(* Sequential execution driver.

   Runs seed tests to completion (recording traces for the Narada
   analysis) and supports the paper's suspension mechanism (§3.4): run a
   sequential test and suspend it just *before* a chosen client-level
   library invocation so the object references about to be passed can be
   collected and reused by a synthesized multithreaded test. *)

open Jir

let find_entry cu ~cls ~meth =
  match Code.find_static cu cls meth with
  | Some cm -> cm
  | None -> Diag.error "no static entry point %s.%s" cls meth

(* Run static method [cls.meth()] on a fresh machine; returns the
   machine and the recorded trace. *)
let record ?(seed = Machine.default_seed) ?(fuel = Machine.default_fuel)
    ?(on_machine = fun (_ : Machine.t) -> ()) (cu : Code.unit_)
    ~client_classes ~cls ~meth : Machine.t * Trace.t * (Value.t option, string) result =
  let m = Machine.create ~client_classes ~seed cu in
  on_machine m;
  let rec_ = Trace.attach m in
  let cm = find_entry cu ~cls ~meth in
  let tid = Machine.new_thread m ~client:true ~cm ~recv:None ~args:[] () in
  let res = Machine.run_thread_to_completion m tid ~fuel in
  let trace = Trace.snapshot rec_ in
  (* The snapshot is a copy and no caller steps [m] afterwards, so the
     backing chunks can rejoin the per-domain pool right away —
     replay-heavy stages (confirm, eval, deadlock) run this in a loop. *)
  Trace.recycle rec_;
  (m, trace, res)

(* Convenience used throughout tests: run [cls.main()]. *)
let run_main ?(seed = Machine.default_seed) ?(on_machine = fun (_ : Machine.t) -> ())
    (cu : Code.unit_) ~cls : (Value.t option, string) result * string =
  let m = Machine.create ~client_classes:[ cls ] ~seed cu in
  on_machine m;
  let cm = find_entry cu ~cls ~meth:"main" in
  let res = Machine.call m ~client:true ~cm ~recv:None ~args:[] () in
  (res, Machine.output m)

type captured = {
  cap_meth : Code.meth; (* target about to be invoked *)
  cap_recv : Value.t option;
  cap_args : Value.t list;
  cap_tid : Value.tid; (* the suspended thread *)
}

(* A replay of [cls.meth()] on its own thread of [m] that stops just
   before each of a set of client-level invocations (the goals), so one
   replay serves every capture point a batch of synthesized tests needs.
   A goal [(qname, nth)] is the [nth] (0-based) client-level invocation
   of [qname]; library-internal calls do not count. *)
type replay = {
  rp_m : Machine.t;
  rp_th : Machine.thread;
  rp_tid : Value.tid;
  rp_seen : (string * int ref) list; (* invocations of each goal qname so far *)
  mutable rp_left : (string * int) list; (* goals not reached yet *)
  mutable rp_fuel : int;
  mutable rp_parked : bool; (* stopped before a goal's call: step past it first *)
}

let replay ?(fuel = Machine.default_fuel) (m : Machine.t) ~cls ~meth ~goals =
  let cm = find_entry (Machine.unit_of m) ~cls ~meth in
  let tid = Machine.new_thread m ~client:true ~cm ~recv:None ~args:[] () in
  {
    rp_m = m;
    (* Hoist the thread record: the loop below runs once per instruction
       of the seed test, and the record-based queries skip the per-step
       tid lookups. *)
    rp_th = Machine.find_thread m tid;
    rp_tid = tid;
    rp_seen = List.map (fun q -> (q, ref 0)) (List.sort_uniq String.compare (List.map fst goals));
    rp_left = goals;
    rp_fuel = fuel;
    rp_parked = false;
  }

let next_goal (r : replay) : ((string * int) * captured) option =
  let m = r.rp_m and th = r.rp_th in
  let rec look () =
    if r.rp_fuel <= 0 then None
    else
      let is_client_caller =
        match Machine.top_frame_th th with
        | Some f -> Machine.is_client_frame m f
        | None -> true
      in
      match Machine.pending_call_th m th with
      | Some (target, recv, args) when is_client_caller -> (
        match List.assoc_opt target.Code.cm_qname r.rp_seen with
        | None -> step ()
        | Some seen ->
          let goal = (target.Code.cm_qname, !seen) in
          incr seen;
          if List.mem goal r.rp_left then begin
            r.rp_left <- List.filter (fun g -> g <> goal) r.rp_left;
            r.rp_parked <- true;
            Some
              (goal, { cap_meth = target; cap_recv = recv; cap_args = args; cap_tid = r.rp_tid })
          end
          else step ())
      | Some _ | None -> step ()
  and step () =
    match Machine.step_th m th with
    | Machine.Stepped -> (
      match Machine.status_th th with
      | Machine.Finished _ | Machine.Crashed _ | Machine.Suspended -> None
      | Machine.Runnable | Machine.Blocked_lock _ | Machine.Blocked_join _ ->
        r.rp_fuel <- r.rp_fuel - 1;
        look ())
    | Machine.Blocked | Machine.Not_runnable -> None
  in
  if r.rp_left = [] then None
  else if r.rp_parked then begin
    r.rp_parked <- false;
    step ()
  end
  else look ()

(* The one-goal replay: start [cls.meth()] on [m] and run it until just
   before the [nth] (0-based) client-level invocation of [target_qname];
   leave the thread there.  Returns [None] if the test finishes without
   reaching the invocation. *)
let run_until_call ?fuel (m : Machine.t) ~cls ~meth ~target_qname ~nth : captured option =
  Option.map snd (next_goal (replay ?fuel m ~cls ~meth ~goals:[ (target_qname, nth) ]))
