(* Harmful/benign triage of confirmed races.

   The paper triages manually (§5): e.g. the 62 benign races of the
   Scanner class come from a reset method writing constants.  We
   mechanize the same judgement: a race is *benign* when forcing the
   racy interleaving cannot change observable state, and *harmful*
   otherwise.  Concretely we compare, over identical instantiations:

   - the fully serialized execution (thread A to completion, then B),
   - the reverse serialization (B, then A),
   - race-forced executions where the two racing accesses are executed
     back to back in both orders at the moment they are simultaneously
     enabled (lost updates surface here),

   and declare the race harmful if any of the last three differs from
   the first in its final snapshot (hash of the heap reachable from the
   test roots), crash set or the racy threads' return values.  The two
   serializations depend only on the test, so [baselines] runs them
   once per test and [verdict] adds the forced runs per race. *)

type verdict = Harmful | Benign

let verdict_to_string = function Harmful -> "harmful" | Benign -> "benign"

type outcome = {
  o_snapshot : Runtime.Snapshot.t;
  o_crashes : string list; (* crash reasons, sorted *)
  o_returns : string list; (* the racy threads' results, in thread order *)
}

let crashes_of m =
  List.sort String.compare
    (List.filter_map (Runtime.Machine.crash_reason m) (Runtime.Machine.threads m))

let snapshot_of (inst : Racefuzzer.instance) =
  Runtime.Snapshot.canonical
    (Runtime.Machine.heap inst.Racefuzzer.ri_machine)
    ~roots:inst.Racefuzzer.ri_roots

(* What the racy threads returned is client-observable: a stale read
   (e.g. a getter racing an increment) is order-sensitive and therefore
   harmful even when the final heap is identical.  Reference results are
   canonicalized through the snapshot machinery. *)
let returns_of (inst : Racefuzzer.instance) =
  let m = inst.Racefuzzer.ri_machine in
  List.map
    (fun tid ->
      match Runtime.Machine.status m tid with
      | Runtime.Machine.Finished (Some (Runtime.Value.Vref _ as v)) ->
        Runtime.Snapshot.to_string
          (Runtime.Snapshot.canonical (Runtime.Machine.heap m) ~roots:[ v ])
      | Runtime.Machine.Finished (Some v) -> Runtime.Value.to_string v
      | Runtime.Machine.Finished None -> "()"
      | Runtime.Machine.Crashed msg -> "crash:" ^ msg
      | Runtime.Machine.Runnable | Runtime.Machine.Blocked_lock _
      | Runtime.Machine.Blocked_join _ | Runtime.Machine.Suspended ->
        "stuck")
    inst.Racefuzzer.ri_threads

(* Priority replay: step the first runnable thread of [order], else the
   first runnable thread in creation order, until quiescent or out of
   fuel.  Priority scheduling draws no randomness, and the picks for
   [order] are built once per replay, so no step allocates. *)
let run_priority m ~order ~fuel =
  let order = List.map (fun th -> (th, Conc.Exec.Run th)) order in
  (* Folded over [order] from [First]: the pick of its first runnable
     thread, or [First] when none is runnable. *)
  let prefer pick (th, run) =
    match pick with
    | Conc.Exec.First when Runtime.Machine.runnable_th m th -> run
    | _ -> pick
  in
  let choose _ = List.fold_left prefer Conc.Exec.First order in
  ignore (Conc.Exec.drive ~fuel m { Conc.Exec.base with choose })

let outcome_of (inst : Racefuzzer.instance) =
  {
    o_snapshot = snapshot_of inst;
    o_crashes = crashes_of inst.Racefuzzer.ri_machine;
    o_returns = returns_of inst;
  }

(* Serialized execution: run the racy threads one after the other in the
   given priority order (other threads, if any, after them).  [order]
   holds the racy threads, which exist before the run, so their records
   resolve once. *)
let run_serialized (inst : Racefuzzer.instance) ~order ~fuel : outcome =
  let m = inst.Racefuzzer.ri_machine in
  let order =
    List.filter_map
      (fun tid ->
        List.find_opt
          (fun th -> Runtime.Machine.thread_id th = tid)
          (Runtime.Machine.all_threads m))
      order
  in
  run_priority m ~order ~fuel;
  outcome_of inst

let run_forced (inst : Racefuzzer.instance) ~cand ~first ~seed ~fuel : outcome =
  let m = inst.Racefuzzer.ri_machine in
  let on_confirm = if first then `Force_first () else `Force_second () in
  ignore (Racefuzzer.directed_run m ~cand ~seed ~fuel ~on_confirm);
  (* Drain whatever is left (directed_run drains after forcing, but if
     the pair never became simultaneously enabled some threads may
     remain). *)
  run_priority m ~order:[] ~fuel;
  outcome_of inst

let equal_outcome (a : outcome) (b : outcome) =
  a.o_snapshot = b.o_snapshot
  && List.equal String.equal a.o_crashes b.o_crashes
  && List.equal String.equal a.o_returns b.o_returns

(* One replay on its own instance, counted. *)
let with_instance (instantiate : Racefuzzer.instantiator) k =
  match instantiate () with
  | Error e -> Error e
  | Ok inst ->
    Obs.Metrics.incr (Obs.Metrics.global ()) "triage/replays";
    Ok (k inst)

let ( let* ) = Result.bind

(* The A;B outcome every comparison is made against, and whether B;A
   reaches the same one.  Neither depends on the race, only on the
   test. *)
type baselines = { b_serial : outcome; b_commute : bool }

let baselines ~(instantiate : Racefuzzer.instantiator) ?(fuel = 200_000) () :
    (baselines, string) result =
  let* serial =
    with_instance instantiate (fun inst ->
        run_serialized inst ~order:inst.Racefuzzer.ri_threads ~fuel)
  in
  let* serial_rev =
    with_instance instantiate (fun inst ->
        run_serialized inst ~order:(List.rev inst.Racefuzzer.ri_threads) ~fuel)
  in
  Ok { b_serial = serial; b_commute = equal_outcome serial serial_rev }

(* Harmful iff B;A, forced-first or forced-second differs from A;B;
   the comparisons run in that order and stop at the first difference.
   [instantiate] must be deterministic: each call returns an identical,
   independent initial state (a fork of one template, for the
   synthesizer's instantiators). *)
let verdict (b : baselines) ~(instantiate : Racefuzzer.instantiator)
    ~(cand : Racefuzzer.candidate) ?(seed = 7L) ?(fuel = 200_000) () :
    (verdict, string) result =
  let differs ~first =
    with_instance instantiate (fun inst ->
        not (equal_outcome b.b_serial (run_forced inst ~cand ~first ~seed ~fuel)))
  in
  if not b.b_commute then Ok Harmful
  else
    let* d1 = differs ~first:true in
    if d1 then Ok Harmful
    else
      let* d2 = differs ~first:false in
      Ok (if d2 then Harmful else Benign)

let triage ~instantiate ~cand ?seed ?fuel () =
  let* b = baselines ~instantiate ?fuel () in
  verdict b ~instantiate ~cand ?seed ?fuel ()
