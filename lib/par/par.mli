(** Multicore evaluation engine: a sharded work-stealing [Domain] pool
    and a deterministic fan-out/merge combinator.

    The evaluation campaign (§5) is embarrassingly parallel — every
    corpus class, every synthesized test and every schedule/confirmation
    run is an independent seeded VM execution.  [map] distributes such
    work across domains while keeping the result *bit-identical*
    regardless of the job count: inputs are split into index chunks,
    result [i] is written for input [i] whatever worker ran it, and
    seeds are derived per-index with {!seed} rather than from any
    shared mutable generator.

    Each fan-out runs on a private pool of worker domains.  Every worker
    owns a deque of chunks: the owner pops LIFO, idle workers steal FIFO
    from victims probed in seeded-random order, and an idle pool parks
    on a condvar (a sleeping domain does not stall minor collections).
    Scheduling facts (queue high-water mark, steal counts, per-worker
    chunk counts, idle time) are flushed to the global metrics registry
    as volatile gauges when the fan-out ends. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val max_domains : unit -> int
(** The fan-out width cap applied by {!map}/{!mapi}: requesting more
    worker domains than cores is counter-productive (OCaml minor
    collections are stop-the-world across every running domain), so
    the effective width is [min jobs (max_domains ())].  Defaults to
    [Domain.recommended_domain_count ()]; override with
    {!set_max_domains} or the NARADA_PAR_MAX_DOMAINS environment
    variable. *)

val set_max_domains : int -> unit
(** Raise or lower the {!max_domains} cap (clamped to [>= 1]).  Used by
    tests to exercise genuine multi-domain merging on small machines,
    and by operators who know better than the default. *)

val seed : base:int64 -> index:int -> int64
(** Deterministic per-index seed derivation (splitmix64 finalizer over
    [base] and [index]); independent of job count and submission order. *)

val map : ?jobs:int -> ?chunk:int -> 'a list -> ('a -> 'b) -> 'b list
(** [map ~jobs xs f] applies [f] to every element on a private pool of
    [min jobs (max_domains ())] workers (default {!default_jobs}) and
    returns the results in input order.  Inputs are submitted as index
    chunks of [?chunk] elements (default: the granularity heuristic
    [max 1 (n / (8 * width))], ~8 chunks per worker) and a single
    completion latch synchronizes the fan-out — no per-element future.
    With an effective width of 1 (or a short list) no domain is
    spawned and this is [List.map].  If tasks raise, the exception of
    the smallest failing input index is re-raised after the pool is
    shut down — output (and failure) is deterministic regardless of
    [jobs]. *)

val mapi : ?jobs:int -> ?chunk:int -> 'a list -> (int -> 'a -> 'b) -> 'b list
(** Like {!map} but the function also receives the input index — the
    hook for per-index seed derivation. *)
