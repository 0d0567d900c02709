(** Per-class interleaving coverage: which racy pairs, HB edges, lock
    orders, and postponed-set states the synthesized tests of a corpus
    entry actually exercise.  Deterministic for every [jobs] value
    (coverage-set union is commutative; units merge in test order). *)

type class_cov = {
  cc_entry : Corpus.Corpus_def.entry;
  cc_tests : int;
  cc_cov : Cov.Set.t;
}

val directed_coverage :
  Runtime.Machine.t ->
  cand:Detect.Racefuzzer.candidate ->
  seed:int64 ->
  fuel:int ->
  Cov.Set.t
(** One [`Report] directed run with a trace recorder attached and
    recycled afterwards: postponed-set states, HB edges, lock orders,
    and the racy pair if the run confirms it. *)

val coverage_corpus :
  ?seed:int64 ->
  ?fuel:int ->
  ?jobs:int ->
  Corpus.Corpus_def.entry list ->
  (Corpus.Corpus_def.entry * (class_cov, string) result) list
(** Also records stable counters [cov/<id>/<kind>] into the global
    registry — the payload pinned by [test/cram/cov.t]. *)

val table :
  (Corpus.Corpus_def.entry * (class_cov, string) result) list -> string
