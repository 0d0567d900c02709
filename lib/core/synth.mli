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

val instantiator :
  ?seed:int64 ->
  ?apply_context:bool ->
  ?backend:Backend.t ->
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  test ->
  Detect.Racefuzzer.instantiator
(** Instantiate once, fork many: the first call runs {!instantiate}
    and counts it in the stable counter [synth/instantiations]; every
    call, the first included, returns a fork of that template (or its
    cached [Error]).  Deterministic by construction and safe to call
    from several domains (see {!Detect.Racefuzzer.forking}). *)

val to_source : test -> string
(** Render the test as readable Jir-like pseudocode (the paper's
    Fig. 3 shape). *)
