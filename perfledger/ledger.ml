(* The performance ledger: one closed-loop client (one unit at a time,
   --jobs 1) drives one workload for a fixed time, then an optional
   traced pass splits the time across the program's layers.

     ledger --workload eval|repair|crucible --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object; the lines before
   it are the human report.  The exit code is 1 when an output check
   fails and 2 on a usage error. *)

open Pass
module T = Tracer

(* ---- workloads ---- *)

(* [w_run ~traced ~index seed] sets up and runs pass [index] of a run on
   [seed].  It returns the set-up time, the pass, and the check of the
   pass's results against the program's own entry point
   ([evaluate_class], [Crucible.run]), which traced runs make. *)
type workload = {
  w_run : traced:bool -> index:int -> int64 -> float * pass * (unit -> string list);
}

let workload ~setup ?after ~body ~check ?(api = fun _ _ -> []) () =
  {
    w_run =
      (fun ~traced ~index seed ->
        let obs = T.obs_window () in
        let t0 = Obs.Clock.ticks () in
        let env = setup seed in
        let setup_s = Obs.Clock.elapsed_s ~since:t0 in
        let after = if index = 0 then Option.map (fun f -> f seed env) after else None in
        let p, r = timed_pass ?after ~obs (body ~traced seed env) check in
        (setup_s, p, fun () -> api seed r));
  }

let workloads =
  [
    ( "eval",
      workload ~setup:Eval_w.setup ~body:Eval_w.body ~check:Eval_w.check ~api:Eval_w.api_check () );
    (* [repair]'s units are timed after the pass, in pass 0 only: they
       repeat the pass's race phase, and a run affords one repeat. *)
    ( "repair",
      workload ~setup:Repair_w.setup ~after:Repair_w.units ~body:Repair_w.body
        ~check:Repair_w.check () );
    ( "crucible",
      workload ~setup:Crucible_w.setup ~body:Crucible_w.body ~check:Crucible_w.check
        ~api:Crucible_w.api_check () );
  ]

(* ---- passes, each in a fresh process ---- *)

(* Every untraced pass runs in a process of its own: it sets up (timed,
   cold, so the set-up is what a user pays on every invocation), then
   runs the pass.  Caches, heap growth and the heap high-water mark are
   therefore per pass, and one costly pass does not leak into the next.
   The child writes its sample to standard output with [Marshal]; the
   program's own printing goes to standard error. *)
type sample = { pass : pass; setup : float (** s *) }

let pass_in_child ~name ~seed ~index : (sample, string) result =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "--pass"; string_of_int index; "--workload"; name; "--seed"; Int64.to_string seed;
    |]
  in
  let ic = Unix.open_process_args_in exe args in
  set_binary_mode_in ic true;
  let smp = try Ok (Marshal.from_channel ic : sample) with End_of_file | Failure _ as e -> Error e in
  match (Unix.close_process_in ic, smp) with
  | Unix.WEXITED 0, Ok smp -> Ok smp
  | Unix.WEXITED 0, Error e ->
    Error (Printf.sprintf "pass %d sent no sample: %s" index (Printexc.to_string e))
  | Unix.WEXITED n, _ -> Error (Printf.sprintf "pass %d exited with code %d" index n)
  | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
    Error (Printf.sprintf "pass %d was stopped by signal %d" index n)

(* ---- metrics ---- *)

let mwords w = w /. 1e6

let layers = [ "corpus"; "core"; "detect"; "repair"; "fuzz"; "static"; "backend" ]

let layer_of name =
  match String.index_opt name '.' with
  | Some i when List.mem (String.sub name 0 i) layers -> Some (String.sub name 0 i)
  | _ -> None

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

(* The gated end-to-end metrics, the median unit latency and the tail
   percentile used.  The median unit latency is reported but not gated:
   per-race latency on [repair] has several modes, and a slower core can
   move its median from one to the next (see the README). *)
let end_to_end ~setup_s (passes : pass list) =
  let med f = Stats.median (List.map f passes) in
  (* On [repair] only pass 0 times units. *)
  let timed = List.filter (fun p -> p.units <> []) passes in
  let p50 =
    if timed = [] then 0.0 else Stats.median (List.map (fun p -> Stats.median p.units) timed)
  in
  let tails = List.filter_map (fun p -> Stats.tail p.units) timed in
  let tail_ms =
    match tails with [] -> p50 | _ -> Stats.median (List.map (fun t -> t.Stats.t_value) tails)
  in
  ( [
      m "wall_s" "s" (med (fun p -> p.wall));
      m "setup_s" "s" setup_s;
      m "unit_tail_ms" "ms" tail_ms;
      m "alloc_mwords" "Mwords" (mwords (med (fun p -> p.alloc)));
      m "peak_heap_mb" "MB" (med (fun p -> p.heap_mb));
    ],
    m "unit_p50_ms" "ms" p50,
    match tails with t :: _ -> Some t | [] -> None )

(* Per-layer metrics of the traced run.  Layer times are self times
   from the span tree, set-up included; the layer shares, [other_s] and
   [layer_coverage] are over the pass's own subtree.  On crucible the
   pipeline, static, backend and repair layers run inside the oracles,
   so their times there come from the program's own spans. *)
let per_layer ~(traced : pass) ~untraced_wall spans =
  let obs = traced.obs in
  let self = Stats.self_by_name spans in
  let in_tree name = List.mem_assoc name self in
  let s name = match List.assoc_opt name self with Some (t, _) -> t | None -> 0.0 in
  let a name = match List.assoc_opt name self with Some (_, w) -> mwords w | None -> 0.0 in
  let o name = Option.value ~default:0.0 (List.assoc_opt name obs) in
  let tree_or_obs name = if in_tree name then s name else o (name ^ "_s") in
  let c name = get traced.counts name in
  let ratio x y = if y > 0.0 then x /. y else 0.0 in
  let layer_self = List.map (fun l -> (l, ref 0.0, ref 0.0)) layers in
  List.iter
    (fun (name, (t, w)) ->
      match layer_of name with
      | Some l ->
        let _, st, sw = List.find (fun (l', _, _) -> l' = l) layer_self in
        st := !st +. t;
        sw := !sw +. w
      | None -> ())
    (Stats.self_by_name (Stats.subtree "pass" spans));
  let covered = List.fold_left (fun acc (_, t, _) -> acc +. !t) 0.0 layer_self in
  let v = traced.verdict in
  let fail_ratio =
    ratio (float_of_int (v.failed + List.length v.problems)) (float_of_int v.attempted)
  in
  [
    m "corpus.compile_s" "s" (s "corpus.compile");
    m "corpus.compiles" "count" (c "corpus.compiles");
    m "backend.compile_s" "s" (tree_or_obs "backend.compile");
    m "backend.compiles" "count" (o "backend.compiles");
    m "backend.installs" "count" (o "backend.installs");
    m "core.pipeline_s" "s" (tree_or_obs "core.pipeline");
    m "core.pipeline_runs" "count" (o "core.pipeline_runs");
    m "core.pairs_s" "s" (tree_or_obs "core.pairs");
    m "core.pairs" "count" (o "core.pairs");
    m "core.tests" "count" (o "core.tests");
    m "core.pipeline_alloc_mwords" "Mwords" (a "core.pipeline");
    m "core.instantiate_s" "s" (s "core.instantiate");
    m "core.instantiations" "count" (c "core.instantiations");
    m "core.instantiate_failed" "count" (c "core.instantiate_failed");
    m "detect.schedules_s" "s" (s "detect.schedules");
    m "detect.schedule_runs" "count" (c "detect.schedule_runs");
    m "detect.schedule_steps" "count" (c "detect.schedule_steps");
    m "detect.candidates" "count" (c "detect.candidates");
    m "detect.confirm_s" "s" (s "detect.confirm");
    m "detect.confirm_calls" "count" (c "detect.confirm_calls");
    m "detect.confirm_runs" "count" (o "detect.confirm_runs");
    m "detect.confirm_steps" "count" (o "detect.confirm_steps");
    m "detect.confirm_hit_ratio" "ratio" (ratio (c "detect.confirm_hits") (c "detect.confirm_calls"));
    m "detect.confirm_alloc_mwords" "Mwords" (a "detect.confirm");
    m "detect.triage_s" "s" (s "detect.triage");
    m "detect.triage_calls" "count" (c "detect.triage_calls");
    m "detect.triage_replays" "count" (o "detect.triage_replays");
    m "detect.triage_alloc_mwords" "Mwords" (a "detect.triage");
    m "detect.discovery_s" "s" (s "detect.discovery");
    m "repair.baseline_s" "s" (s "repair.baseline");
    m "repair.race_s" "s" (tree_or_obs "repair.race");
    m "repair.attempts" "count" (o "repair.attempts");
    m "repair.accept_ratio" "ratio" (ratio (o "repair.repaired") (o "repair.attempts"));
  ]
  @ List.map
      (fun r -> m ("repair.reject_" ^ r) "count" (c ("repair.reject_" ^ r)))
      [ "compile"; "behavior"; "deadlock"; "race_survives"; "new_race" ]
  @ [ m "fuzz.gen_s" "s" (s "fuzz.gen"); m "fuzz.check_s" "s" (s "fuzz.check") ]
  @ List.map
      (fun n -> m ("fuzz.oracle." ^ n ^ "_s") "s" (s ("fuzz.oracle." ^ n)))
      Fuzz.Oracle.names
  @ [
      m "static.summary_s" "s" (tree_or_obs "static.summary");
      m "static.link_s" "s" (tree_or_obs "static.link");
      m "static.summaries" "count" (o "static.summaries");
      m "runtime.gc_minor" "count" (float_of_int traced.gc_minor);
      m "runtime.gc_major" "count" (float_of_int traced.gc_major);
      m "other_s" "s" (traced.wall -. covered);
      m "layer_coverage" "ratio" (ratio covered traced.wall);
      m "traced_wall_s" "s" traced.wall;
      m "trace_overhead_s" "s" (traced.wall -. untraced_wall);
      m "races_reproduced" "count" (c "races_reproduced");
      m "races_repaired" "count" (c "races_repaired");
      m "fail_ratio" "ratio" fail_ratio;
    ]
  @ List.concat_map
      (fun (l, t, w) ->
        [
          m (l ^ ".wall_share") "ratio" (ratio !t traced.wall);
          m (l ^ ".alloc_share") "ratio" (ratio (mwords !w) (mwords traced.alloc));
        ])
      layer_self

(* ---- the run ---- *)

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_json ~correct ~attempted ~failed (ms : metric list) =
  let fields =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.m_name (json_float mt.m_value)
          mt.m_unit)
      ms
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let print_metrics title (ms : metric list) =
  Printf.printf "%s\n" title;
  List.iter (fun mt -> Printf.printf "  %-34s %16.6f %s\n" mt.m_name mt.m_value mt.m_unit) ms

(* Spans are written out once the traced pass has ended. *)
let write_spans ~dir ~name ~seed spans =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "%s-seed%Ld.spans.jsonl" name seed) in
  let oc = open_out path in
  List.iter
    (fun (sp, self_ns, self_alloc) ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"unit\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld, \"self_ns\": %Ld, \"self_alloc_words\": %.0f}\n"
        sp.Stats.sp_id sp.Stats.sp_parent sp.Stats.sp_name sp.Stats.sp_unit sp.Stats.sp_start
        sp.Stats.sp_stop self_ns self_alloc)
    (Stats.self spans);
  close_out oc;
  path

(* Checks of the traced pass against the untraced pass on the same
   inputs and against the program's own counters.  A mismatch is a
   ledger bug. *)
let cross_checks ~name ~(traced : pass) ~(untraced : pass) =
  let c = get traced.counts and o n = Option.value ~default:0.0 (List.assoc_opt n traced.obs) in
  let uo n = Option.value ~default:0.0 (List.assoc_opt n untraced.obs) in
  let eq what mine theirs =
    if mine = theirs then []
    else [ Printf.sprintf "%s: ledger counted %.0f, program counted %.0f" what mine theirs ]
  in
  (if String.equal traced.verdict.answer untraced.verdict.answer then []
   else [ "the traced pass found other results than the untraced pass on the same seed" ])
  @
  if name <> "eval" then []
  else
    eq "detect/candidates" (c "detect.candidates") (uo "detect.candidates")
    @ eq "detect/reproduced" (c "detect.confirm_hits") (uo "detect.reproduced")
    @ eq "triage/replays" (c "detect.triage_replays") (o "detect.triage_replays")
    @ eq "racefuzzer/steps count" (c "detect.confirm_runs") (o "detect.confirm_runs")
    @ eq "racefuzzer/steps sum" (c "detect.confirm_steps") (o "detect.confirm_steps")

(* Pass [k] of a run uses seed [s_k]: [s_0] is the run's seed, later
   ones are derived from it, so one run averages over several inputs
   and the same seed always gives the same sequence of inputs. *)
let pass_seed seed k = if k = 0 then seed else Par.seed ~base:seed ~index:k

let run ~name ~(w : workload) ~seed ~seconds ~trace ~out_dir =
  let problems = ref [] in
  (* The traced pass runs in this process before the untraced ones, on
     the run's own seed.  Its set-up is traced too: set-up spans count in
     the per-layer times but not in the pass's layer shares. *)
  let traced =
    if not trace then None
    else begin
      T.reset ();
      T.on := true;
      let _, p, api = w.w_run ~traced:true ~index:0 seed in
      T.on := false;
      Some (p, api, T.spans ())
    end
  in
  let samples = ref [] and broken = ref false in
  let t0 = Obs.Clock.ticks () in
  while (not !broken) && (!samples = [] || Obs.Clock.elapsed_s ~since:t0 < seconds) do
    match pass_in_child ~name ~seed ~index:(List.length !samples) with
    | Ok smp -> samples := smp :: !samples
    | Error msg ->
      problems := !problems @ [ msg ];
      broken := true
  done;
  let samples = List.rev !samples in
  if samples = [] then begin
    List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) !problems;
    exit 1
  end;
  let passes = List.map (fun smp -> smp.pass) samples in
  let first = List.hd samples in
  let e2e, p50, tail =
    end_to_end ~setup_s:(Stats.median (List.map (fun smp -> smp.setup) samples)) passes
  in
  let attempted_of ps = List.fold_left (fun a p -> a + p.verdict.attempted) 0 ps in
  let failed_of ps = List.fold_left (fun a p -> a + p.verdict.failed) 0 ps in
  let all = passes @ match traced with Some (p, _, _) -> [ p ] | None -> [] in
  List.iter (fun p -> problems := !problems @ p.verdict.problems) all;
  Printf.printf
    "workload %s, seed %Ld: %d untraced passes of %d units each, one process per pass, jobs 1 \
     (one client, closed loop; multi-core behaviour is not measured)\n"
    name seed (List.length passes) first.pass.verdict.attempted;
  print_metrics "end-to-end (untraced, median over passes)" (e2e @ [ p50 ]);
  Printf.printf "  pass walls (s): %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) passes));
  (match tail with
  | Some t ->
    Printf.printf "  unit_tail_ms is p%g: %d samples per pass, %d beyond it\n" t.Stats.t_pct
      t.Stats.t_samples t.Stats.t_beyond
  | None -> Printf.printf "  unit_tail_ms is the median: fewer than 11 units per pass\n");
  Printf.printf "  fail_ratio %.6f (%d of %d units failed by the workload's rule)\n"
    (float_of_int (failed_of passes) /. float_of_int (max 1 (attempted_of passes)))
    (failed_of passes) (attempted_of passes);
  Printf.printf "  races_reproduced %.0f count, races_repaired %.0f count (pass 0, seed %Ld)\n"
    (get first.pass.counts "races_reproduced") (get first.pass.counts "races_repaired") seed;
  List.iter (fun p -> List.iter (Printf.printf "  %s\n") p.verdict.notes) all;
  let layer_metrics =
    match traced with
    | None -> []
    | Some (tp, api, spans) ->
      let untraced_wall = Stats.median (List.map (fun p -> p.wall) passes) in
      let ms = per_layer ~traced:tp ~untraced_wall spans in
      let path = write_spans ~dir:out_dir ~name ~seed spans in
      problems := !problems @ cross_checks ~name ~traced:tp ~untraced:first.pass @ api ();
      let coverage = List.find (fun mt -> mt.m_name = "layer_coverage") ms in
      if coverage.m_value < 0.9 then
        problems :=
          !problems
          @ [
              Printf.sprintf "named layers cover only %.1f%% of the traced wall"
                (100.0 *. coverage.m_value);
            ];
      print_metrics "per layer (traced pass on the run's seed; times are self times)" ms;
      Printf.printf "  spans written to %s\n" path;
      ms
  in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) !problems;
  let correct = !problems = [] in
  print_json ~correct ~attempted:(attempted_of all)
    ~failed:(failed_of all + List.length !problems)
    (if trace then layer_metrics else e2e);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let pass = ref (-1) and out_dir = ref "perfledger/_out" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME eval, repair or crucible");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string_opt s), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long the untraced passes run");
      ("--trace", Arg.Set_int trace, "0|1 add a traced pass and report per-layer metrics");
      ("--out", Arg.Set_string out_dir, "DIR where the traced pass's spans are written");
      ("--pass", Arg.Set_int pass, "K run untraced pass K in this process and report it");
    ]
  in
  let usage = "ledger --workload NAME --seed N --seconds S --trace 0|1" in
  let die msg =
    prerr_endline ("ledger: " ^ msg);
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> die ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> die msg
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  let w = match List.assoc_opt !workload workloads with Some w -> w | None -> die "unknown workload" in
  let seed = match !seed with Some s -> s | None -> die "--seed N is required" in
  if !pass >= 0 then begin
    (* The sample goes to the parent on the original standard output;
       anything the program prints goes to standard error. *)
    let out = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
    Unix.dup2 Unix.stderr Unix.stdout;
    let setup, p, _ = w.w_run ~traced:false ~index:!pass (pass_seed seed !pass) in
    Marshal.to_channel out { pass = p; setup } [];
    close_out out
  end
  else begin
    if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
    run ~name:!workload ~w ~seed ~seconds:!seconds ~trace:(!trace = 1) ~out_dir:!out_dir
  end
