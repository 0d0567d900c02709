(** Deterministic fan-out over domains.

    The evaluation campaign (§5) is embarrassingly parallel — every
    corpus class, every synthesized test and every schedule/confirmation
    run is an independent seeded VM execution.  [map] runs such work on
    several domains while keeping the result *bit-identical* regardless
    of the job count: result [i] is written for input [i] whatever
    domain ran it, and seeds are derived per index with {!seed} rather
    than from any shared mutable generator. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val max_domains : unit -> int
(** The fan-out width cap applied by {!map}: running more domains than
    cores is counter-productive (OCaml minor collections are
    stop-the-world across every running domain), so the effective width
    is [min jobs (max_domains ())].  Defaults to
    [Domain.recommended_domain_count ()]; override with
    {!set_max_domains}. *)

val set_max_domains : int -> unit
(** Raise or lower the {!max_domains} cap (clamped to [>= 1]).  Tests
    use it to exercise genuine multi-domain merging on small machines. *)

val seed : base:int64 -> index:int -> int64
(** Deterministic per-index seed derivation (splitmix64 finalizer over
    [base] and [index]); independent of job count and evaluation order. *)

val map : ?jobs:int -> 'a list -> ('a -> 'b) -> 'b list
(** [map ~jobs xs f] applies [f] to every element and returns the
    results in input order.  With an effective width
    [min jobs (max_domains ()) (List.length xs)] of 1 (default [jobs]:
    {!default_jobs}) this is [List.map]; otherwise the caller and
    [width - 1] helper domains claim input indices from one atomic
    counter.  If [f] raises, no new index is claimed, every claimed one
    still runs, and the exception of the smallest failing index is
    re-raised once the helpers are joined — the same exception
    [List.map] would raise, whatever [jobs]. *)
