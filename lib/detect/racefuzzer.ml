(* Race-directed randomized scheduling, after RaceFuzzer (Sen, PLDI'08).

   Given a candidate racy pair (from the lockset pass), run the program
   under a random scheduler that *postpones* any thread about to perform
   a matching access.  When two threads are simultaneously postponed at
   conflicting accesses to the same variable (same object and field, at
   least one write), the race is real and is reported with both accesses
   enabled; the scheduler then executes them back to back.

   The machinery is reused by triage to force a racy interleaving. *)

type instance = {
  ri_machine : Runtime.Machine.t;
  ri_threads : Runtime.Value.tid list; (* the concurrently racing threads *)
  ri_roots : Runtime.Value.t list; (* observable roots, for triage *)
}

type instantiator = unit -> (instance, string) result

(* The set-up is built once, under a mutex so a first call from a Par
   worker is safe; every call, the first included, gets a fork, so the
   template itself is never stepped and concurrent forks only read it.
   An [Error] is cached like a success. *)
let forking (build : unit -> (instance, string) result) : instantiator =
  let mu = Mutex.create () in
  let template = ref None in
  fun () ->
    let t =
      Mutex.protect mu (fun () ->
          match !template with
          | Some t -> t
          | None ->
            let t = build () in
            template := Some t;
            t)
    in
    Result.map
      (fun inst -> { inst with ri_machine = Runtime.Machine.fork inst.ri_machine })
      t

(* What to look for: the field name, optionally narrowed to two sites. *)
type candidate = {
  c_field : Jir.Ast.id;
  c_sites : (Runtime.Event.site * Runtime.Event.site) option;
}

let candidate_of_report (r : Race.report) : candidate =
  {
    c_field = r.Race.r_first.Race.a_field;
    c_sites = Some (r.Race.r_first.Race.a_site, r.Race.r_second.Race.a_site);
  }

let matches (cand : candidate) (pa : Runtime.Machine.pending_access) =
  String.equal pa.Runtime.Machine.pa_field cand.c_field
  &&
  match cand.c_sites with
  | None -> true
  | Some (s1, s2) ->
    Runtime.Event.compare_site pa.Runtime.Machine.pa_site s1 = 0
    || Runtime.Event.compare_site pa.Runtime.Machine.pa_site s2 = 0

type confirm_result = {
  confirmed : Race.report option;
  runs_used : int;
  steps : int;
}

(* Per-execution facts, schedule-independent given the seed. *)
type run_stats = { rs_steps : int; rs_max_postponed : int }

let access_of_pending m tid (pa : Runtime.Machine.pending_access) ~label :
    Race.access =
  {
    Race.a_tid = tid;
    a_site = pa.Runtime.Machine.pa_site;
    a_kind = pa.Runtime.Machine.pa_kind;
    a_obj = pa.Runtime.Machine.pa_obj;
    a_field = pa.Runtime.Machine.pa_field;
    a_idx = pa.Runtime.Machine.pa_idx;
    a_locks = Runtime.Machine.held_locks m tid;
    a_label = label;
    a_value = Runtime.Value.Vnull;
  }

let conflicting (a : Runtime.Machine.pending_access)
    (b : Runtime.Machine.pending_access) =
  a.Runtime.Machine.pa_obj = b.Runtime.Machine.pa_obj
  && String.equal a.Runtime.Machine.pa_field b.Runtime.Machine.pa_field
  && Option.equal Int.equal a.Runtime.Machine.pa_idx b.Runtime.Machine.pa_idx
  && (a.Runtime.Machine.pa_kind = `Write || b.Runtime.Machine.pa_kind = `Write)

(* Dense per-tid mirrors used by the postponing policy below: tids are
   small consecutive ints, so per-step membership tests and the
   pending-access memo live in growable arrays instead of hashtables.
   The [postponed] hashtable itself is kept — its fold order decides
   which conflicting pair is reported first, and that order is pinned
   by the cram suite — but the per-step paths only touch the arrays. *)
type 'a tidmap = { mutable slots : 'a array; default : 'a }

let tidmap default = { slots = Array.make 8 default; default }

let tid_slot tm tid =
  if tid >= Array.length tm.slots then begin
    let bigger =
      Array.make (max (tid + 1) (2 * Array.length tm.slots)) tm.default
    in
    Array.blit tm.slots 0 bigger 0 (Array.length tm.slots);
    tm.slots <- bigger
  end;
  tid

(* Where a directed run stands: postponing threads at matching accesses,
   about to step the second of a forced racing pair, or done forcing. *)
type phase = Directing | Second of Runtime.Machine.thread | Forced

(* One directed execution: a postponing policy over [Conc.Exec.drive].
   [on_confirm] decides what to do when the pair is simultaneously
   enabled: return [`Report] to stop and report, or [`Force order] to
   execute the racing accesses in the given order (at no fuel cost) and
   finish the execution under plain random scheduling (used by triage).  [on_postponed] sees the
   postponed set as (tid, field) pairs whenever a thread joins it or is
   released from it while it stays non-empty (coverage uses it for
   postponed-state features); without it no state list is built.  Every
   RNG draw — a random step or the release of a postponed thread — is
   one [Rng.below] on the one stream, and every step counts. *)
let directed_run ?on_postponed (m : Runtime.Machine.t) ~(cand : candidate)
    ~seed ~fuel
    ~(on_confirm :
       [ `Report | `Force_first of unit | `Force_second of unit ]) :
    Race.report option * run_stats =
  let rng = Rng.create seed in
  let pick n = Rng.below rng n in
  let postponed : (Runtime.Value.tid, Runtime.Machine.pending_access) Hashtbl.t =
    Hashtbl.create 4
  in
  let in_postponed = tidmap false in
  let changed = ref false in
  let observe () =
    match on_postponed with
    | Some f when Hashtbl.length postponed > 0 ->
      f
        (Hashtbl.fold
           (fun tid pa acc -> (tid, pa.Runtime.Machine.pa_field) :: acc)
           postponed [])
    | Some _ | None -> ()
  in
  let steps = ref 0 in
  let max_postponed = ref 0 in
  let result = ref None in
  let phase = ref Directing in
  (* A thread's pending access only changes when that thread itself
     steps (it reads the thread's own registers and pc), so memoize it
     per tid and invalidate on step instead of re-decoding the next
     instruction of every runnable thread at every scheduling point. *)
  let pa_memo : Runtime.Machine.pending_access option option tidmap =
    tidmap None
  in
  let pending th =
    let i = tid_slot pa_memo (Runtime.Machine.thread_id th) in
    match pa_memo.slots.(i) with
    | Some v -> v
    | None ->
      let v = Runtime.Machine.pending_access_th m th in
      pa_memo.slots.(i) <- Some v;
      v
  in
  let postpone tid pa =
    Hashtbl.replace postponed tid pa;
    in_postponed.slots.(tid_slot in_postponed tid) <- true;
    changed := true
  in
  let unpostpone tid =
    Hashtbl.remove postponed tid;
    in_postponed.slots.(tid_slot in_postponed tid) <- false
  in
  let is_postponed tid = in_postponed.slots.(tid_slot in_postponed tid) in
  (* Postpone a runnable thread poised at a matching access. *)
  let refresh th =
    let tid = Runtime.Machine.thread_id th in
    if (not (is_postponed tid)) && Runtime.Machine.runnable_th m th then
      match pending th with
      | Some pa when matches cand pa -> postpone tid pa
      | Some _ | None -> ()
  in
  let direct count =
    changed := false;
    List.iter refresh (Runtime.Machine.all_threads m);
    if !changed then observe ();
    let np = Hashtbl.length postponed in
    if np > !max_postponed then max_postponed := np;
    (* Check for a simultaneously-enabled conflicting pair; with fewer
       than two postponed threads there is nothing to scan. *)
    let pair =
      if np < 2 then []
      else begin
        let poised =
          Hashtbl.fold (fun tid pa acc -> (tid, pa) :: acc) postponed []
        in
        List.concat_map
          (fun (t1, p1) ->
            List.filter_map
              (fun (t2, p2) ->
                if t1 < t2 && conflicting p1 p2 then Some ((t1, p1), (t2, p2))
                else None)
              poised)
          poised
      end
    in
    match pair with
    | ((t1, p1), (t2, p2)) :: _ -> (
      result :=
        Some
          {
            Race.r_first = access_of_pending m t1 p1 ~label:!steps;
            r_second = access_of_pending m t2 p2 ~label:!steps;
            r_detector = "racefuzzer";
          };
      let force a b =
        phase := Second (Runtime.Machine.find_thread m b);
        Conc.Exec.Free (Runtime.Machine.find_thread m a)
      in
      match on_confirm with
      | `Report -> Conc.Exec.Stop
      | `Force_first () -> force t1 t2
      | `Force_second () -> force t2 t1)
    | [] -> (
      (* Pick among the runnable, non-postponed threads. *)
      match count () with
      | 0 -> (
        (* Everyone is postponed or blocked: release a postponed thread. *)
        let poised = Hashtbl.fold (fun tid _ acc -> tid :: acc) postponed [] in
        match List.sort Int.compare poised with
        | [] -> Conc.Exec.Stop (* genuine deadlock or completion *)
        | l ->
          let tid = List.nth l (pick (List.length l)) in
          unpostpone tid;
          observe ();
          Conc.Exec.Run (Runtime.Machine.find_thread m tid))
      | _ -> Conc.Exec.Draw)
  in
  let choose count =
    match !phase with
    | Directing -> direct count
    | Second th ->
      phase := Forced;
      Conc.Exec.Free th
    | Forced -> Conc.Exec.Stop
  in
  let on_step th _ =
    pa_memo.slots.(tid_slot pa_memo (Runtime.Machine.thread_id th)) <- None;
    incr steps
  in
  let excluded = Some (fun th -> is_postponed (Runtime.Machine.thread_id th)) in
  ignore (Conc.Exec.drive ~fuel m { Conc.Exec.excluded; choose; draw = pick; on_step });
  (* The drain gets the fuel left: every step so far cost one unit
     except the forced pair. *)
  if (match !phase with Forced -> true | Directing | Second _ -> false) then
    ignore
      (Conc.Exec.drive ~fuel:(fuel - (!steps - 2)) m
         { Conc.Exec.base with choose = (fun _ -> Conc.Exec.Draw); draw = pick; on_step });
  (!result, { rs_steps = !steps; rs_max_postponed = !max_postponed })

(* Try to confirm a candidate over several directed runs with different
   scheduler seeds.  Each run is an independent seeded VM execution, so
   with [jobs > 1] all runs are fanned out with [Par.map] and the
   sequential early-exit answer is recovered by scanning the results in
   run order — the outcome is identical for every job count.

   Metrics are aggregated over the *logical prefix* only (runs
   [0 .. runs_used - 1]): the parallel path executes every run, but the
   extra runs past the confirmation must not leak into the registry or
   the stable metrics would depend on the job count. *)
let confirm ~(instantiate : instantiator) ~(cand : candidate) ?(runs = 10)
    ?(fuel = 200_000) ?(seed = 7L) ?(jobs = 1) () : confirm_result =
  let attempt_once i =
    match instantiate () with
    | Error _ -> Error ()
    | Ok inst ->
      let run_seed = Int64.add seed (Int64.of_int (i * 7919)) in
      Ok
        (directed_run inst.ri_machine ~cand ~seed:run_seed ~fuel
           ~on_confirm:`Report)
  in
  let outcomes =
    if jobs <= 1 then begin
      (* Early exit: stop at the first confirmation or instantiation
         failure; the runs executed are exactly the logical prefix. *)
      let acc = ref [] in
      let rec attempt i =
        if i < runs then begin
          let o = attempt_once i in
          acc := o :: !acc;
          match o with
          | Error () | Ok (Some _, _) -> ()
          | Ok (None, _) -> attempt (i + 1)
        end
      in
      attempt 0;
      List.rev !acc
    end
    else Par.map ~jobs (List.init runs Fun.id) attempt_once
  in
  let rec scan i = function
    | [] -> { confirmed = None; runs_used = runs; steps = 0 }
    | Error () :: _ -> { confirmed = None; runs_used = i; steps = 0 }
    | Ok (Some r, _) :: _ -> { confirmed = Some r; runs_used = i + 1; steps = 0 }
    | Ok (None, _) :: rest -> scan (i + 1) rest
  in
  let res = scan 0 outcomes in
  let reg = Obs.Metrics.global () in
  let prefix_steps = ref 0 in
  List.iteri
    (fun i o ->
      if i < res.runs_used then
        match o with
        | Ok (_, st) ->
          prefix_steps := !prefix_steps + st.rs_steps;
          Obs.Metrics.observe reg "racefuzzer/steps" st.rs_steps;
          Obs.Metrics.observe reg "racefuzzer/postponed_max" st.rs_max_postponed
        | Error () -> ())
    outcomes;
  if res.confirmed <> None then
    Obs.Metrics.observe reg "racefuzzer/runs_to_confirm" res.runs_used;
  { res with steps = !prefix_steps }
