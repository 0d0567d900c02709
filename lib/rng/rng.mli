(** Shared deterministic RNG: one splitmix64 stream and one unbiased
    bounded draw for every component that previously carried its own
    copy (VM intrinsics, schedulers, the race-directed fuzzer, the
    ConTeGe baseline).

    All draws are rejection-sampled over the full 64-bit stream, so
    [below] is exactly uniform on [0, bound) — the historical
    [rem (logand z max_int) n] draw over-represented small residues. *)

type t
(** A mutable generator.  Deterministic: equal seeds produce equal
    draw sequences. *)

val create : int64 -> t
val copy : t -> t

val bits : t -> int64
(** The raw 64-bit splitmix64 output; advances the state once. *)

val below : t -> int -> int
(** [below t bound] draws uniformly from [0, bound).
    @raise Invalid_argument when [bound <= 0]. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a list.
    @raise Invalid_argument on the empty list (never
    [Division_by_zero] or [Failure "nth"]). *)

val bool : t -> bool

val range : t -> int -> int -> int
(** [range t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val below_state : int64 -> int -> int * int64
(** Pure unbiased bounded draw: [(value, next_state)].  May advance the
    state more than once (rejection sampling).
    @raise Invalid_argument when the bound is non-positive. *)

val derive : base:int64 -> index:int -> int64
(** An independent stream seed for a (base, index) pair; mirrors
    [Par.seed]. *)
