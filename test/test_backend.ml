(* Backend abstraction tests: kind parsing, the digest-keyed compiled
   cache, interp/compiled observational equivalence (results, output,
   labels, races), label lockstep across a mid-run observer attach,
   run_until_call edge cases, and the trace-pool cap knob. *)

open Runtime

let compile = Jir.Compile.compile_source

let racy_src =
  "class C { int count; void inc() { this.count = this.count + 1; } int get() \
   { return this.count; } } class Main { static int main() { C c = new C(); \
   thread t1 = spawn c.inc(); thread t2 = spawn c.inc(); join t1; join t2; \
   Sys.print(c.get()); return c.get(); } }"

let run_both ?(seed = 17L) src k =
  List.map
    (fun kind ->
      let cu = compile src in
      let be = Backend.prepare kind cu in
      let r, m =
        Conc.Exec.run_program ~seed cu ~client_classes:[ "Main" ] ~cls:"Main"
          ~meth:"main" ~on_machine:(Backend.on_machine be)
          (Conc.Scheduler.random ~seed)
      in
      k r m)
    [ Backend.Interp; Backend.Compiled ]

(* --- kinds ------------------------------------------------------- *)

let test_kind_parsing () =
  let ok s k =
    match Backend.of_string s with
    | Ok k' -> Alcotest.(check string) s (Backend.to_string k) (Backend.to_string k')
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "interp" Backend.Interp;
  ok "interpreter" Backend.Interp;
  ok "compiled" Backend.Compiled;
  ok "compile" Backend.Compiled;
  (match Backend.of_string "llvm" with
  | Ok _ -> Alcotest.fail "'llvm' should not parse"
  | Error e ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "error names the input" true (contains e "llvm"));
  List.iter
    (fun k ->
      match Backend.of_string (Backend.to_string k) with
      | Ok k' -> Alcotest.(check bool) "roundtrip" true (k = k')
      | Error e -> Alcotest.fail e)
    [ Backend.Interp; Backend.Compiled ]

(* --- digest cache ------------------------------------------------- *)

let test_digest_stability () =
  let d1 = Machine.Compiled.digest (compile racy_src) in
  let d2 = Machine.Compiled.digest (compile racy_src) in
  Alcotest.(check string) "same source, same digest" d1 d2;
  let d3 =
    Machine.Compiled.digest
      (compile "class Main { static int main() { return 1; } }")
  in
  Alcotest.(check bool) "different source, different digest" true (d1 <> d3)

let test_compiled_code_cached () =
  let c1 = Backend.compiled_code (compile racy_src) in
  let c2 = Backend.compiled_code (compile racy_src) in
  (* Same digest: the second call must hit the process-wide cache. *)
  Alcotest.(check bool) "physically shared" true (c1 == c2);
  Alcotest.(check bool) "some units" true (Machine.Compiled.units c1 > 0);
  Alcotest.(check bool) "some instrs" true
    (Machine.Compiled.instrs c1 > Machine.Compiled.units c1)

(* --- equivalence -------------------------------------------------- *)

let test_equivalent_runs () =
  List.iter
    (fun seed ->
      match
        run_both ~seed racy_src (fun r m ->
            ( r.Conc.Exec.outcome,
              r.Conc.Exec.steps,
              r.Conc.Exec.decisions,
              Machine.output m,
              Machine.labels_used m ))
      with
      | [ i; c ] ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %Ld: identical run" seed)
          true (i = c)
      | _ -> assert false)
    [ 1L; 2L; 3L; 17L; 42L ]

let test_equivalent_races () =
  let races kind =
    let cu = compile racy_src in
    let be = Backend.prepare kind cu in
    let cands = ref [] in
    let _r, _m =
      Conc.Exec.run_program ~seed:5L cu ~client_classes:[ "Main" ] ~cls:"Main"
        ~meth:"main"
        ~on_machine:(fun m ->
          Backend.install be m;
          let ls = Detect.Lockset.attach m in
          cands := [ ls ])
        (Conc.Scheduler.random ~seed:5L)
    in
    match !cands with
    | [ ls ] ->
      List.map
        (fun r -> Detect.Race.key_of r)
        (Detect.Lockset.candidates ls)
    | _ -> assert false
  in
  let ri = races Backend.Interp and rc = races Backend.Compiled in
  Alcotest.(check int) "same candidate count" (List.length ri) (List.length rc);
  List.iter2
    (fun a b ->
      Alcotest.(check int) "same candidate" 0 (Detect.Race.compare_key a b))
    ri rc

(* Observers force the interpreter path, but the label counter must
   stay in lockstep so an observer attached mid-run sees exactly the
   labels the interpreter would have produced from that point on. *)
let test_mid_run_attach () =
  let trace_tail kind =
    let cu = compile racy_src in
    let be = Backend.prepare kind cu in
    let m = Backend.create ~client_classes:[ "Main" ] ~seed:9L be cu in
    let cm = Option.get (Jir.Code.find_static cu "Main" "main") in
    let tid = Machine.new_thread m ~client:true ~cm ~recv:None ~args:[] () in
    let th = Machine.find_thread m tid in
    (* run the first 40 steps unobserved (compiled fast path), then
       attach a recorder for the rest *)
    for _ = 1 to 40 do
      ignore (Machine.step_th m th)
    done;
    let rec_ = Trace.attach m in
    ignore (Machine.run_thread_to_completion m tid ~fuel:100_000);
    (Machine.labels_used m, Trace.to_string (Trace.snapshot rec_))
  in
  let li, ti = trace_tail Backend.Interp in
  let lc, tc = trace_tail Backend.Compiled in
  Alcotest.(check int) "labels in lockstep" li lc;
  Alcotest.(check string) "identical trace tail" ti tc

(* --- run_until_call edge cases ------------------------------------ *)

let seed_src =
  "class C { int v; void inc() { this.v = this.v + 1; } } class Seed { static \
   void test() { C c = new C(); c.inc(); c.inc(); c.inc(); } }"

let fresh_seed_machine () =
  let cu = compile seed_src in
  (cu, Machine.create ~client_classes:[ "Seed" ] cu)

let test_until_call_counts () =
  let _cu, m = fresh_seed_machine () in
  match Interp.run_until_call m ~cls:"Seed" ~meth:"test" ~target_qname:"C.inc" ~nth:2 with
  | Some cap ->
    Alcotest.(check string) "third call captured" "C.inc"
      cap.Interp.cap_meth.Jir.Code.cm_qname;
    Alcotest.(check bool) "receiver present" true (cap.Interp.cap_recv <> None);
    (* the capture leaves the thread parked *before* the call *)
    Alcotest.(check bool) "thread still live" true
      (Machine.status m cap.Interp.cap_tid = Machine.Runnable)
  | None -> Alcotest.fail "expected a capture"

let test_until_call_nth_beyond () =
  let _cu, m = fresh_seed_machine () in
  (* only three invocations exist: asking for the fourth runs the seed
     test to completion and captures nothing *)
  match Interp.run_until_call m ~cls:"Seed" ~meth:"test" ~target_qname:"C.inc" ~nth:3 with
  | Some _ -> Alcotest.fail "no fourth invocation exists"
  | None -> ()

let test_until_call_fuel_exhaustion () =
  let _cu, m = fresh_seed_machine () in
  (* too little fuel to even reach the first invocation *)
  match
    Interp.run_until_call ~fuel:2 m ~cls:"Seed" ~meth:"test"
      ~target_qname:"C.inc" ~nth:0
  with
  | Some _ -> Alcotest.fail "fuel was too small to reach the call"
  | None -> ()

(* One replay serves several goals: they come back in the order the
   seed reaches them, each in the state a one-goal replay stops in, and
   the replay stops once every goal was reached. *)
let test_replay_goals () =
  let v_at m (cap : Interp.captured) =
    match cap.Interp.cap_recv with
    | Some r -> Machine.deref_path m r [ "v" ]
    | None -> None
  in
  let one nth =
    let _cu, m = fresh_seed_machine () in
    match Interp.run_until_call m ~cls:"Seed" ~meth:"test" ~target_qname:"C.inc" ~nth with
    | Some cap -> (Machine.labels_used m, v_at m cap)
    | None -> Alcotest.failf "no capture of call %d" nth
  in
  let _cu, m = fresh_seed_machine () in
  let r =
    Interp.replay m ~cls:"Seed" ~meth:"test" ~goals:[ ("C.inc", 2); ("C.inc", 0); ("C.nope", 0) ]
  in
  let next () =
    match Interp.next_goal r with
    | Some (g, cap) -> (g, (Machine.labels_used m, v_at m cap))
    | None -> Alcotest.fail "expected a goal"
  in
  let g0, s0 = next () in
  let g2, s2 = next () in
  Alcotest.(check (pair string int)) "first goal reached first" ("C.inc", 0) g0;
  Alcotest.(check (pair string int)) "then the third call" ("C.inc", 2) g2;
  Alcotest.(check bool) "first stop = one-goal replay" true (s0 = one 0);
  Alcotest.(check bool) "second stop = one-goal replay" true (s2 = one 2);
  Alcotest.(check bool) "unreachable goal: replay ends" true (Interp.next_goal r = None)

(* Library-internal invocations of the target must not count: only
   client-level calls are synthesis anchors. *)
let test_until_call_client_only () =
  let src =
    "class C { int v; void inc() { this.v = this.v + 1; } void twice() { \
     this.inc(); this.inc(); } } class Seed { static void test() { C c = new \
     C(); c.twice(); c.inc(); } }"
  in
  let cu = compile src in
  let m = Machine.create ~client_classes:[ "Seed" ] cu in
  match Interp.run_until_call m ~cls:"Seed" ~meth:"test" ~target_qname:"C.inc" ~nth:0 with
  | Some cap ->
    (* the two library-internal C.inc calls inside twice() are skipped;
       the first *client* C.inc is the one after c.twice(), by which
       point v is already 2 *)
    let v =
      match cap.Interp.cap_recv with
      | Some r -> Machine.deref_path m r [ "v" ]
      | None -> None
    in
    Alcotest.(check bool) "library calls skipped" true
      (v = Some (Value.Vint 2))
  | None -> Alcotest.fail "expected a capture"

(* --- trace pool cap ----------------------------------------------- *)

let test_pool_cap () =
  let old = Trace.max_pooled_chunks () in
  Fun.protect
    ~finally:(fun () -> Trace.set_pool_cap old)
    (fun () ->
      Trace.set_pool_cap 0;
      Alcotest.(check int) "cap 0" 0 (Trace.max_pooled_chunks ());
      (* recycling with a zero cap frees instead of pooling *)
      let cu = compile seed_src in
      let _m, tr, res =
        Interp.record cu ~client_classes:[ "Seed" ] ~cls:"Seed" ~meth:"test"
      in
      Alcotest.(check bool) "run ok" true (Result.is_ok res);
      Alcotest.(check bool) "trace recorded" true (Trace.length tr > 0);
      Alcotest.(check int) "nothing pooled" 0 (Trace.pool_size ());
      Trace.set_pool_cap (-5);
      Alcotest.(check int) "negative clamps to 0" 0 (Trace.max_pooled_chunks ()))

let () =
  Alcotest.run "backend"
    [
      ( "kinds",
        [ Alcotest.test_case "parsing" `Quick test_kind_parsing ] );
      ( "cache",
        [
          Alcotest.test_case "digest stability" `Quick test_digest_stability;
          Alcotest.test_case "compiled code shared" `Quick test_compiled_code_cached;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "runs" `Quick test_equivalent_runs;
          Alcotest.test_case "races" `Quick test_equivalent_races;
          Alcotest.test_case "mid-run attach" `Quick test_mid_run_attach;
        ] );
      ( "run_until_call",
        [
          Alcotest.test_case "nth capture" `Quick test_until_call_counts;
          Alcotest.test_case "nth beyond last" `Quick test_until_call_nth_beyond;
          Alcotest.test_case "fuel exhaustion" `Quick test_until_call_fuel_exhaustion;
          Alcotest.test_case "client calls only" `Quick test_until_call_client_only;
          Alcotest.test_case "several goals, one replay" `Quick test_replay_goals;
        ] );
      ( "trace pool",
        [ Alcotest.test_case "cap knob" `Quick test_pool_cap ] );
    ]
