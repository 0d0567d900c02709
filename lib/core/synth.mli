(** Test synthesis (§3.4, Algorithm 1).

    [plan] groups racy pairs into tests; [instantiate] executes the
    collectObjects / shareObjects phases on a fresh machine — seed
    replays suspended before the invocations of interest, context
    recipes applied so the owners alias — and spawns the two racy
    threads, unscheduled.  Schedulers and detectors take over from the
    returned {!Detect.Racefuzzer.instance}. *)

type test = {
  st_id : int;
  st_pair : Pairs.pair;
  st_plan_a : Context.plan;
  st_plan_b : Context.plan;
  st_seed_cls : Jir.Ast.id;
  st_seed_meth : Jir.Ast.id;
}

val dedup_key : Pairs.pair -> string * string * string
(** One test per unordered method pair and racy field (§5). *)

val plan :
  Jir.Program.t ->
  Summary.t ->
  seed_cls:Jir.Ast.id ->
  seed_meth:Jir.Ast.id ->
  Pairs.pair list ->
  test list

val instantiate :
  ?seed:int64 ->
  ?apply_context:bool ->
  ?backend:Backend.t ->
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  test ->
  (Detect.Racefuzzer.instance, string) result
(** [apply_context:false] skips the shareObjects phase (used by the
    ablation bench to show that context derivation is what exposes the
    races).  [backend] (a prepared backend for [cu]) is installed on
    the instance machine right after creation. *)

type prefixes
(** The collectObjects prefixes of the tests of one seed test (as one
    analysis plans them), shared between them.  Per A goal (endpoint
    A's qname and occurrence) one machine replays the seed to A, then
    replays it a second time as a cursor that stops at every B goal
    those tests need; each stop leaves a snapshot with B's replay
    suspended, exactly the state {!instantiate} reaches after its two
    replays.  A test takes a fork of its snapshot, or the snapshot
    itself if it is the last test planned for it; after that the
    snapshot is released, and a later request (another instantiator for
    the same test, or a test not in the set) replays the seed afresh,
    never fails because of it.  The cursor is dropped once it has passed
    its last goal.  Domain-safe: one mutex per A goal serializes the
    cursor and the snapshots taken from it. *)

val prefixes :
  ?backend:Backend.t ->
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  test list ->
  prefixes
(** Plan the prefixes of [tests] (cheap: nothing runs until the first
    test is built).  Machines are built with the default seed and
    [backend] installed, as {!instantiate} without [?seed] builds them. *)

val instantiator : prefixes -> test -> Detect.Racefuzzer.instantiator
(** Instantiate once, fork many: the first call builds the test as
    {!instantiate} would, starting from its shared prefix, and counts it
    in the stable counter [synth/instantiations]; every call, the first
    included, returns a fork of that template (or its cached [Error]).
    Deterministic by construction and safe to call from several domains
    (see {!Detect.Racefuzzer.forking}).  Every seed replay, shared or
    not, counts in the stable counter [synth/seed_replays]. *)

val to_source : test -> string
(** Render the test as readable Jir-like pseudocode (the paper's
    Fig. 3 shape). *)
