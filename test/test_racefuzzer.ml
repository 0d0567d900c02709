(* RaceFuzzer-style directed scheduling and harmful/benign triage. *)

open Detect

(* Build an instantiator for a plain two-thread program (entry spawns
   both threads itself would hide them, so spawn here from the harness). *)
let instantiator_of src ~cls ~meths : Racefuzzer.instantiator =
 fun () ->
  let cu = Jir.Compile.compile_source src in
  let m = Runtime.Machine.create ~client_classes:[ "Harness" ] cu in
  match Runtime.Machine.construct m ~cls ~args:[] () with
  | Error e -> Error e
  | Ok recv ->
    let spawn meth =
      match Jir.Code.find_virtual cu cls meth with
      | Some cm ->
        Ok (Runtime.Machine.new_thread m ~client:true ~cm ~recv:(Some recv) ~args:[] ())
      | None -> Error ("no method " ^ meth)
    in
    (match meths with
    | [ m1; m2 ] -> (
      match (spawn m1, spawn m2) with
      | Ok t1, Ok t2 ->
        Ok
          {
            Racefuzzer.ri_machine = m;
            ri_threads = [ t1; t2 ];
            ri_roots = [ recv ];
          }
      | Error e, _ | _, Error e -> Error e)
    | _ -> Error "need two methods")

let counter_src =
  "class C { int count; void inc() { this.count = this.count + 1; } \
   synchronized void sinc() { this.count = this.count + 1; } void reset() { \
   this.count = 0; } int get() { return this.count; } }"

let cand field = { Racefuzzer.c_field = field; c_sites = None }

let test_confirms_real_race () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "inc" ] in
  let r = Racefuzzer.confirm ~instantiate:inst ~cand:(cand "count") () in
  match r.Racefuzzer.confirmed with
  | Some report ->
    Alcotest.(check bool) "different threads" true
      (report.Race.r_first.Race.a_tid <> report.Race.r_second.Race.a_tid);
    Alcotest.(check string) "field" "count" report.Race.r_first.Race.a_field
  | None -> Alcotest.fail "expected confirmation"

let test_no_confirm_when_synchronized () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "sinc"; "sinc" ] in
  let r = Racefuzzer.confirm ~instantiate:inst ~cand:(cand "count") ~runs:8 () in
  Alcotest.(check bool) "no confirmation" true (r.Racefuzzer.confirmed = None)

let test_confirm_is_deterministic () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "inc" ] in
  let r1 = Racefuzzer.confirm ~instantiate:inst ~cand:(cand "count") ~seed:3L () in
  let r2 = Racefuzzer.confirm ~instantiate:inst ~cand:(cand "count") ~seed:3L () in
  Alcotest.(check int) "same number of runs" r1.Racefuzzer.runs_used
    r2.Racefuzzer.runs_used

let test_candidate_of_report () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "inc" ] in
  match inst () with
  | Error e -> Alcotest.fail e
  | Ok i ->
    let ls = Lockset.attach i.Racefuzzer.ri_machine in
    ignore (Conc.Exec.run i.Racefuzzer.ri_machine (Conc.Scheduler.random ~seed:2L));
    (match Lockset.candidates ls with
    | r :: _ ->
      let c = Racefuzzer.candidate_of_report r in
      Alcotest.(check string) "field copied" "count" c.Racefuzzer.c_field;
      Alcotest.(check bool) "sites narrowed" true (c.Racefuzzer.c_sites <> None)
    | [] -> Alcotest.fail "no candidates")

(* Attaching a trace recorder and the postponed-state observer must not
   change the run: same report, same steps, same postponed high-water
   mark as the plain run that [confirm] makes. *)
let test_observed_run_matches_plain () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "inc" ] in
  let machine () =
    match inst () with
    | Ok ri -> ri.Racefuzzer.ri_machine
    | Error e -> Alcotest.fail e
  in
  let observed = ref 0 in
  for i = 1 to 50 do
    let seed = Int64.of_int i in
    let plain =
      Racefuzzer.directed_run (machine ()) ~cand:(cand "count") ~seed
        ~fuel:100_000 ~on_confirm:`Report
    in
    let m = machine () in
    let rec_ = Runtime.Trace.attach m in
    let with_obs =
      Racefuzzer.directed_run
        ~on_postponed:(fun _ -> incr observed)
        m ~cand:(cand "count") ~seed ~fuel:100_000 ~on_confirm:`Report
    in
    Runtime.Trace.recycle rec_;
    if plain <> with_obs then Alcotest.failf "seed %d: observed run differs" i
  done;
  Alcotest.(check bool) "observer saw postponed states" true (!observed > 0)

let test_replay_stress_pools_chunks () =
  (* 1000 coverage replays must not grow the per-domain chunk pool past
     its cap — each directed coverage run recycles its recorder — and
     the pool gauge must have been recorded. *)
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "inc" ] in
  for i = 1 to 1000 do
    match inst () with
    | Error e -> Alcotest.fail e
    | Ok ri ->
      ignore
        (Eval.Coverage.directed_coverage ri.Racefuzzer.ri_machine
           ~cand:(cand "count") ~seed:(Int64.of_int i) ~fuel:100_000);
      if Runtime.Trace.pool_size () > Runtime.Trace.max_pooled_chunks () then
        Alcotest.failf "pool grew past cap at replay %d: %d" i
          (Runtime.Trace.pool_size ())
  done;
  Alcotest.(check bool) "pool bounded after 1k replays" true
    (Runtime.Trace.pool_size () <= Runtime.Trace.max_pooled_chunks ());
  let gauges = Obs.Metrics.gauges (Obs.Metrics.global ()) in
  match List.assoc_opt "trace/pool/chunks" gauges with
  | Some v ->
    Alcotest.(check bool) "gauge within cap" true
      (v <= float_of_int (Runtime.Trace.max_pooled_chunks ()))
  | None -> Alcotest.fail "trace/pool/chunks gauge not recorded"

let test_triage_lost_update_harmful () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "inc" ] in
  match Triage.triage ~instantiate:inst ~cand:(cand "count") () with
  | Ok Triage.Harmful -> ()
  | Ok Triage.Benign -> Alcotest.fail "lost update must be harmful"
  | Error e -> Alcotest.fail e

let test_triage_const_reset_benign () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "reset"; "reset" ] in
  match Triage.triage ~instantiate:inst ~cand:(cand "count") () with
  | Ok Triage.Benign -> ()
  | Ok Triage.Harmful -> Alcotest.fail "double reset to 0 is benign"
  | Error e -> Alcotest.fail e

let test_triage_stale_read_harmful () =
  (* get() racing with inc(): the final heap is the same either way, but
     get's observed value is order-sensitive — a stale read, harmful. *)
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "get" ] in
  match Triage.triage ~instantiate:inst ~cand:(cand "count") () with
  | Ok Triage.Harmful -> ()
  | Ok Triage.Benign -> Alcotest.fail "stale read must be harmful"
  | Error e -> Alcotest.fail e

let test_triage_read_of_constant_benign () =
  (* get() racing with reset() on an already-zero counter: every order
     reads 0 and leaves 0 — genuinely benign. *)
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "reset"; "get" ] in
  match Triage.triage ~instantiate:inst ~cand:(cand "count") () with
  | Ok Triage.Benign -> ()
  | Ok Triage.Harmful -> Alcotest.fail "reading an unchanged constant is benign"
  | Error e -> Alcotest.fail e

(* A close/use race that null-crashes in one order only. *)
let crash_src =
  "class R { int[] buf; R() { this.buf = new int[2]; } int read() { return \
   this.buf[0]; } void close() { this.buf = null; } }"

let test_triage_crash_harmful () =
  let inst = instantiator_of crash_src ~cls:"R" ~meths:[ "read"; "close" ] in
  match Triage.triage ~instantiate:inst ~cand:(cand "buf") () with
  | Ok Triage.Harmful -> ()
  | Ok Triage.Benign -> Alcotest.fail "close/read race crashes: harmful"
  | Error e -> Alcotest.fail e

(* Replay cost of the split triage, read off the [triage/replays]
   counter. *)
let replays f =
  let reg = Obs.Metrics.global () in
  let before = Obs.Metrics.counter_value reg "triage/replays" in
  let r = f () in
  (r, Obs.Metrics.counter_value reg "triage/replays" - before)

let baselines_of inst =
  match replays (fun () -> Triage.baselines ~instantiate:inst ()) with
  | Ok b, n ->
    Alcotest.(check int) "baselines cost 2 replays" 2 n;
    b
  | Error e, _ -> Alcotest.fail e

let check_verdict_cost ~meths ~expect ~cost () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths in
  let b = baselines_of inst in
  match replays (fun () -> Triage.verdict b ~instantiate:inst ~cand:(cand "count") ()) with
  | Ok v, n ->
    Alcotest.(check string) "verdict" (Triage.verdict_to_string expect)
      (Triage.verdict_to_string v);
    Alcotest.(check int) "verdict replays" cost n
  | Error e, _ -> Alcotest.fail e

(* The five triage programs above: [verdict] on shared baselines agrees
   with [triage]. *)
let test_verdict_matches_triage () =
  List.iter
    (fun (src, cls, meths, field) ->
      let inst = instantiator_of src ~cls ~meths in
      let b = baselines_of inst in
      let name = String.concat "/" meths in
      Alcotest.(check bool) name true
        (Triage.verdict b ~instantiate:inst ~cand:(cand field) ()
        = Triage.triage ~instantiate:inst ~cand:(cand field) ()))
    [
      (counter_src, "C", [ "inc"; "inc" ], "count");
      (counter_src, "C", [ "reset"; "reset" ], "count");
      (counter_src, "C", [ "inc"; "get" ], "count");
      (counter_src, "C", [ "reset"; "get" ], "count");
      (crash_src, "R", [ "read"; "close" ], "buf");
    ]

let () =
  Alcotest.run "racefuzzer"
    [
      ( "confirmation",
        [
          Alcotest.test_case "real race confirmed" `Quick test_confirms_real_race;
          Alcotest.test_case "synchronized not confirmed" `Quick
            test_no_confirm_when_synchronized;
          Alcotest.test_case "deterministic" `Quick test_confirm_is_deterministic;
          Alcotest.test_case "candidate narrowing" `Quick test_candidate_of_report;
          Alcotest.test_case "observed run matches plain" `Quick
            test_observed_run_matches_plain;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "1k replays keep pool bounded" `Slow
            test_replay_stress_pools_chunks;
        ] );
      ( "triage",
        [
          Alcotest.test_case "lost update harmful" `Quick
            test_triage_lost_update_harmful;
          Alcotest.test_case "const reset benign" `Quick
            test_triage_const_reset_benign;
          Alcotest.test_case "stale read harmful" `Quick
            test_triage_stale_read_harmful;
          Alcotest.test_case "constant read benign" `Quick
            test_triage_read_of_constant_benign;
          Alcotest.test_case "crash harmful" `Quick test_triage_crash_harmful;
          Alcotest.test_case "stale read: 0 replays" `Quick
            (check_verdict_cost ~meths:[ "inc"; "get" ] ~expect:Triage.Harmful ~cost:0);
          Alcotest.test_case "lost update: 1 replay" `Quick
            (check_verdict_cost ~meths:[ "inc"; "inc" ] ~expect:Triage.Harmful ~cost:1);
          Alcotest.test_case "const reset: 2 replays" `Quick
            (check_verdict_cost ~meths:[ "reset"; "reset" ] ~expect:Triage.Benign ~cost:2);
          Alcotest.test_case "verdict on shared baselines = triage" `Quick
            test_verdict_matches_triage;
        ] );
    ]
