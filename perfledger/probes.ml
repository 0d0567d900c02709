(* The ledger's calls into the program's layers.  Each wraps one public
   function in a span and counts the work it does, so a traced pass can
   split time and allocation by layer without a span inside the
   program. *)

open Pass
module P = Narada_core.Pipeline
module Rf = Detect.Racefuzzer
module T = Tracer

(* An instantiator that is counted and timed on its own. *)
let counted_instantiator (c : counts) (raw : Rf.instantiator) : Rf.instantiator =
 fun () ->
  T.with_ "core.instantiate" (fun () ->
      bump c "core.instantiations";
      match raw () with
      | Ok _ as ok ->
        bump c "instantiated_ok";
        ok
      | Error _ as e ->
        bump c "core.instantiate_failed";
        e)

(* The [Obs] children of a pipeline run that the ledger reports apart:
   backend preparation happens before the "pipeline" span opens, pair
   generation inside it. *)
let pipeline_children =
  [ T.Node ("backend/compile", "backend.compile", []); T.Node ("pipeline/pairs", "core.pairs", []) ]

let pipeline f = T.with_ ~obs:(T.obs_reader pipeline_children) "core.pipeline" f

let compiled_unit c e =
  bump c "corpus.compiles";
  T.with_ "corpus.compile" (fun () -> Corpus.Registry.compiled_unit e)

(* One lockset schedule: the hybrid detector on a random schedule. *)
let lockset_run c (inst : Rf.instance) ~seed =
  let lockset = Detect.Lockset.attach inst.Rf.ri_machine in
  let r = Conc.Exec.run inst.Rf.ri_machine (Conc.Scheduler.random ~seed) in
  bump c "detect.schedule_runs";
  bump c "detect.schedule_steps" ~by:(float_of_int r.Conc.Exec.steps);
  Detect.Lockset.candidates lockset

let confirm c ~instantiate ~cand ~runs ?fuel ~seed () =
  let ok0 = get c "instantiated_ok" in
  let res =
    T.with_ "detect.confirm" (fun () ->
        Rf.confirm ~instantiate ~cand ~runs ?fuel ~seed ~jobs:1 ())
  in
  bump c "detect.confirm_calls";
  bump c "detect.confirm_runs" ~by:(get c "instantiated_ok" -. ok0);
  bump c "detect.confirm_steps" ~by:(float_of_int res.Rf.steps);
  if res.Rf.confirmed <> None then bump c "detect.confirm_hits";
  res

let triage c ~instantiate ~cand ~seed ?fuel () =
  let ok0 = get c "instantiated_ok" in
  let v =
    T.with_ "detect.triage" (fun () ->
        Detect.Triage.triage ~instantiate ~cand ~seed ?fuel ())
  in
  bump c "detect.triage_calls";
  bump c "detect.triage_replays" ~by:(get c "instantiated_ok" -. ok0);
  v

(* Lockset candidates are kept per static race key, first witness first;
   schedule [i] of a test runs under a seed derived from the base seed. *)
let add_candidate tbl r =
  let k = Detect.Race.key_of r in
  if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k r

let schedule_seed base i = Int64.add base (Int64.of_int (i * 1299709))

let sort_keys tbl =
  List.sort
    (fun (k1, _) (k2, _) -> Detect.Race.compare_key k1 k2)
    (Hashtbl.fold (fun k r acc -> (k, r) :: acc) tbl [])
