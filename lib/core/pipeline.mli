(** End-to-end Narada pipeline (Fig. 6): sequential seed execution →
    access analysis → pair generation → context derivation → test
    synthesis, with wall-clock timing for the Table 4 reproduction. *)

type analysis = {
  an_cu : Jir.Code.unit_;
  an_client_classes : Jir.Ast.id list;
  an_seed_cls : Jir.Ast.id;
  an_seed_meth : Jir.Ast.id;
  an_trace_len : int;
  an_access : Access.result;
  an_pairs : Pairs.pair list;
  an_pairs_pruned : int;
      (** pairs removed by the static filter (0 when off) *)
  an_static_filter : bool;
  an_tests : Synth.test list;
  an_seconds : float;
  an_backend : Backend.t;
      (** execution backend prepared for [an_cu]; installed on every
          machine {!instantiator} creates *)
  an_prefixes : Synth.prefixes;
      (** the shared collectObjects prefixes of [an_tests] on
          [an_backend] *)
}

val analyze :
  ?seed:int64 ->
  ?static_filter:bool ->
  ?static_cache:Static.Cache.t ->
  ?backend:Backend.kind ->
  ?fields:Jir.Ast.id list ->
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  seed_cls:Jir.Ast.id ->
  seed_meth:Jir.Ast.id ->
  (analysis, string) result
(** [~static_filter:true] intersects the generated pairs with the
    static race analyzer's candidate set before synthesis; kept and
    pruned counts are reported separately so unfiltered totals stay
    reconstructible.  [~static_cache] backs the filter's per-class
    summaries, so repeated analyses pay only the static linking phase.
    [backend] (default {!Backend.default_kind}) selects the execution
    backend; preparing it (digest lookup plus at most one compilation)
    happens here, once per analysis.  [fields] restricts pair generation,
    and so the tests, to accesses of those fields: the pairs and the
    tests' dedup keys and plans are those of the full analysis on those
    fields, in the same order, but test ids are renumbered.  Repair's
    re-detection uses it. *)

val with_backend : analysis -> Backend.kind -> analysis
(** The same analysis on another backend: trace, accesses, pairs and
    tests do not depend on the backend, because the seed trace is
    recorded with an observer attached and so runs interpreted on both.
    Prepares [kind] and plans fresh prefixes for [an_tests] (the
    analysis's own prefixes hold machines of its backend). *)

val analyze_source :
  ?seed:int64 ->
  ?static_filter:bool ->
  ?static_cache:Static.Cache.t ->
  ?backend:Backend.kind ->
  string ->
  client_classes:Jir.Ast.id list ->
  seed_cls:Jir.Ast.id ->
  seed_meth:Jir.Ast.id ->
  (analysis, string) result
(** Parse, compile and analyze Jir source text. *)

val instantiator : analysis -> Synth.test -> Detect.Racefuzzer.instantiator
(** {!Synth.instantiator} over [an_prefixes]: a test of [an_tests]
    starts from its shared prefix; any other test, or one whose prefix
    was already released, replays the seed afresh. *)

val summary_to_string : analysis -> string
