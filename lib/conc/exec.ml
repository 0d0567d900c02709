(* Multithreaded executor: the one loop that drives a machine's threads.
   A policy decides which thread steps next; the loop owns the fuel
   check, the runnable walk, the step itself and the quiescence /
   deadlock / fuel-exhausted outcome.  [run] is the scheduler policy;
   RaceFuzzer's directed run, triage's priority replays and systematic
   exploration are other policies over [drive].

   Observers (race detectors, trace recorders) attach to the machine
   itself; this module only owns scheduling. *)

type outcome =
  | All_finished
  | Deadlock of Runtime.Value.tid list (* live threads, none runnable *)
  | Fuel_exhausted

type pick =
  | Draw
  | First
  | Run of Runtime.Machine.thread
  | Free of Runtime.Machine.thread
  | Stop

type policy = {
  excluded : (Runtime.Machine.thread -> bool) option;
  choose : (unit -> int) -> pick;
  draw : int -> int;
  on_step : Runtime.Machine.thread -> Runtime.Machine.step_result -> unit;
}

let base =
  {
    excluded = None;
    choose = (fun _ -> Stop);
    draw = (fun _ -> 0);
    on_step = (fun _ _ -> ());
  }

(* The loop works on thread records: a hash lookup per thread at query
   time would otherwise be paid on every one of the (often millions of)
   steps.  The eligible set is never materialized: [count] and [nth]
   walk the machine's own creation-order list ([nth] raises [Not_found]
   past its end).  [count] is handed to the policy unevaluated, so a
   policy that decides without it (a forced step, a priority thread, a
   plain draw) pays no walk of its own, and the list is counted at most
   once per scheduling point; [First] does not count at all.  [Draw]
   and [First] are constant constructors and the index comes from
   [draw], so nothing here allocates per step. *)
let drive ~fuel (m : Runtime.Machine.t) (p : policy) : outcome =
  let excluded = p.excluded in
  let eligible th =
    Runtime.Machine.runnable_th m th
    && match excluded with None -> true | Some ex -> not (ex th)
  in
  let rec count_from acc = function
    | [] -> acc
    | th :: rest -> count_from (if eligible th then acc + 1 else acc) rest
  in
  let counted = ref (-1) in
  let count () =
    if !counted < 0 then counted := count_from 0 (Runtime.Machine.all_threads m);
    !counted
  in
  let rec nth i = function
    | [] -> raise Not_found
    | th :: rest ->
      if eligible th then if i = 0 then th else nth (i - 1) rest
      else nth i rest
  in
  let step th = p.on_step th (Runtime.Machine.step_th m th) in
  let stopped () =
    match Runtime.Machine.live_tids m with
    | [] -> All_finished
    | live -> Deadlock live
  in
  let rec loop fuel =
    if fuel <= 0 then Fuel_exhausted
    else begin
      counted := -1;
      match p.choose count with
      | Draw -> (
        match count () with
        | 0 -> stopped ()
        | k ->
          step (nth (p.draw k) (Runtime.Machine.all_threads m));
          loop (fuel - 1))
      | First -> (
        match nth 0 (Runtime.Machine.all_threads m) with
        | th ->
          step th;
          loop (fuel - 1)
        | exception Not_found -> stopped ())
      | Run th ->
        step th;
        loop (fuel - 1)
      | Free th ->
        step th;
        loop fuel
      | Stop -> stopped ()
    end
  in
  loop fuel

type run_result = {
  outcome : outcome;
  steps : int;
  decisions : Runtime.Value.tid list; (* schedule actually taken, for replay *)
  crashes : (Runtime.Value.tid * string) list;
}

(* The scheduler policy: run until every thread is finished/crashed, a
   deadlock is reached, or fuel runs out.  With an index-choosing
   scheduler the runnable set is never materialized; otherwise
   [Scheduler.choose] keeps its tid-list interface.  The scheduler is
   consulted even when a single thread is runnable: the random
   scheduler draws from its RNG regardless, and skipping the draw would
   silently change every downstream schedule.  Only [Stepped] results
   count as steps and decisions; a thread that turns out unable to move
   (its lock was grabbed since the runnable query) still costs fuel, so
   the run terminates. *)
let run ?(fuel = 400_000) (m : Runtime.Machine.t) (sched : Scheduler.t) :
    run_result =
  let decisions = ref [] in
  let steps = ref 0 in
  let choose_idx = Scheduler.choose_idx sched in
  let choose, draw =
    match choose_idx with
    | Some f -> ((fun _ -> Draw), fun k -> f m k)
    | None ->
      ( (fun _ ->
          match Runtime.Machine.runnable_tids m with
          | [] -> Stop
          | tids -> Run (Runtime.Machine.find_thread m (Scheduler.choose sched m tids))),
        fun _ -> 0 )
  in
  let on_step th = function
    | Runtime.Machine.Stepped ->
      decisions := Runtime.Machine.thread_id th :: !decisions;
      incr steps
    | Runtime.Machine.Blocked | Runtime.Machine.Not_runnable -> ()
  in
  let outcome = drive ~fuel m { base with choose; draw; on_step } in
  let crashes =
    List.filter_map
      (fun tid ->
        match Runtime.Machine.crash_reason m tid with
        | Some msg -> Some (tid, msg)
        | None -> None)
      (Runtime.Machine.threads m)
  in
  { outcome; steps = !steps; decisions = List.rev !decisions; crashes }

(* Convenience: compile-and-run a whole program from its static main,
   scheduling any threads it spawns. *)
let run_program ?fuel ?(seed = Runtime.Machine.default_seed) ?(on_machine = fun _ -> ())
    (cu : Jir.Code.unit_) ~client_classes ~cls ~meth (sched : Scheduler.t) :
    run_result * Runtime.Machine.t =
  let m = Runtime.Machine.create ~client_classes ~seed cu in
  on_machine m;
  let cm =
    match Jir.Code.find_static cu cls meth with
    | Some cm -> cm
    | None -> Jir.Diag.error "no static entry point %s.%s" cls meth
  in
  ignore (Runtime.Machine.new_thread m ~client:true ~cm ~recv:None ~args:[] ());
  (run ?fuel m sched, m)
