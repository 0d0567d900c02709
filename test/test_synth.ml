(* Test synthesis (§3.4, Algorithm 1): planning, object collection,
   sharing, and the structure of instantiated tests. *)

open Narada_core

let fig1_analysis () = Testlib.Fixtures.analyze Testlib.Fixtures.fig1

let find_test (an : Pipeline.analysis) ~qa ~qb =
  match
    List.find_opt
      (fun (t : Synth.test) ->
        let p = t.Synth.st_pair in
        (p.Pairs.p_a.Pairs.ep_qname = qa && p.Pairs.p_b.Pairs.ep_qname = qb)
        || (p.Pairs.p_a.Pairs.ep_qname = qb && p.Pairs.p_b.Pairs.ep_qname = qa))
      an.Pipeline.an_tests
  with
  | Some t -> t
  | None -> Alcotest.failf "no synthesized test for %s x %s" qa qb

let test_dedup_folds_pairs () =
  let an = fig1_analysis () in
  Alcotest.(check bool) "fewer tests than pairs" true
    (List.length an.Pipeline.an_tests <= List.length an.Pipeline.an_pairs);
  (* and keys are unique *)
  let keys = List.map Synth.dedup_key
      (List.map (fun (t : Synth.test) -> t.Synth.st_pair) an.Pipeline.an_tests) in
  Alcotest.(check int) "unique" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_instantiate_shares_counter () =
  (* The update×update test must leave both thread receivers' [c] fields
     pointing at the same Counter — the paper's context requirement. *)
  let an = fig1_analysis () in
  let t = find_test an ~qa:"Lib.update" ~qb:"Lib.update" in
  match (Pipeline.instantiator an t) () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    let m = inst.Detect.Racefuzzer.ri_machine in
    let tids = inst.Detect.Racefuzzer.ri_threads in
    Alcotest.(check int) "two racy threads" 2 (List.length tids);
    let recv_of tid =
      match Runtime.Machine.frames_of m tid with
      | f :: _ -> f.Runtime.Machine.regs.(0)
      | [] -> Alcotest.fail "no frame"
    in
    let r1 = recv_of (List.nth tids 0) and r2 = recv_of (List.nth tids 1) in
    Alcotest.(check bool) "receivers distinct" false (Runtime.Value.equal r1 r2);
    let c1 = Runtime.Machine.deref_path m r1 [ "c" ] in
    let c2 = Runtime.Machine.deref_path m r2 [ "c" ] in
    (match (c1, c2) with
    | Some (Runtime.Value.Vref a), Some (Runtime.Value.Vref b) ->
      Alcotest.(check int) "counters shared" a b
    | _ -> Alcotest.fail "c fields unset")

let test_instantiate_deterministic () =
  let an = fig1_analysis () in
  let t = find_test an ~qa:"Lib.update" ~qb:"Lib.update" in
  let inst = Pipeline.instantiator an t in
  let snap () =
    match inst () with
    | Error e -> Alcotest.fail e
    | Ok i ->
      Runtime.Snapshot.to_string
        (Runtime.Snapshot.canonical
           (Runtime.Machine.heap i.Detect.Racefuzzer.ri_machine)
           ~roots:i.Detect.Racefuzzer.ri_roots)
  in
  Alcotest.(check string) "identical initial states" (snap ()) (snap ())

let test_collection_threads_frozen () =
  (* After instantiation, only the two racy threads are runnable; the
     seed-replay threads are suspended forever. *)
  let an = fig1_analysis () in
  let t = find_test an ~qa:"Lib.update" ~qb:"Lib.update" in
  match (Pipeline.instantiator an t) () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    let m = inst.Detect.Racefuzzer.ri_machine in
    let runnable = Runtime.Machine.runnable_tids m in
    List.iter
      (fun tid ->
        Alcotest.(check bool) "runnable is a racy thread" true
          (List.mem tid inst.Detect.Racefuzzer.ri_threads))
      runnable

let test_share_owner_directly () =
  (* update×get: get's receiver must BE update's receiver's counter. *)
  let an = fig1_analysis () in
  let t = find_test an ~qa:"Lib.update" ~qb:"Counter.get" in
  match (Pipeline.instantiator an t) () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    let m = inst.Detect.Racefuzzer.ri_machine in
    let recvs =
      List.map
        (fun tid ->
          match Runtime.Machine.frames_of m tid with
          | f :: _ -> f.Runtime.Machine.regs.(0)
          | [] -> Runtime.Value.Vnull)
        inst.Detect.Racefuzzer.ri_threads
    in
    (* one receiver is a Lib, the other is that Lib's counter *)
    let heap = Runtime.Machine.heap m in
    let libs, counters =
      List.partition
        (fun v ->
          match Runtime.Value.addr_of v with
          | Some a -> Runtime.Heap.class_of heap a = Some "Lib"
          | None -> false)
        recvs
    in
    (match (libs, counters) with
    | [ lib ], [ counter ] -> (
      match Runtime.Machine.deref_path m lib [ "c" ] with
      | Some c -> Alcotest.(check bool) "lib.c == counter" true (Runtime.Value.equal c counter)
      | None -> Alcotest.fail "lib.c unset")
    | _ -> Alcotest.fail "expected one Lib and one Counter receiver")

let test_fig13_instantiation () =
  (* The foo×foo test on fig13: both receivers' x fields must alias. *)
  let an = Testlib.Fixtures.analyze Testlib.Fixtures.fig13 in
  let t = find_test an ~qa:"A.foo" ~qb:"A.foo" in
  match (Pipeline.instantiator an t) () with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    let m = inst.Detect.Racefuzzer.ri_machine in
    let xs =
      List.map
        (fun tid ->
          match Runtime.Machine.frames_of m tid with
          | f :: _ -> Runtime.Machine.deref_path m f.Runtime.Machine.regs.(0) [ "x" ]
          | [] -> None)
        inst.Detect.Racefuzzer.ri_threads
    in
    match xs with
    | [ Some (Runtime.Value.Vref a); Some (Runtime.Value.Vref b) ] ->
      Alcotest.(check int) "x fields alias" a b
    | _ -> Alcotest.fail "x fields not resolved"

let test_to_source_mentions_methods () =
  let an = fig1_analysis () in
  let t = find_test an ~qa:"Lib.update" ~qb:"Lib.update" in
  let src = Synth.to_source t in
  let contains needle =
    let nh = String.length src and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub src i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "spawns update" true (contains "spawn ownerA.update");
  Alcotest.(check bool) "mentions field" true (contains ".count")

let test_roots_nonempty () =
  let an = fig1_analysis () in
  List.iter
    (fun (t : Synth.test) ->
      match (Pipeline.instantiator an t) () with
      | Ok inst ->
        Alcotest.(check bool) "roots present" true
          (inst.Detect.Racefuzzer.ri_roots <> [])
      | Error _ -> ())
    an.Pipeline.an_tests

(* ---- instantiate once, fork many ---- *)

let corpus_analyses =
  lazy
    (List.map
       (fun (e : Corpus.Corpus_def.entry) ->
         match
           Pipeline.analyze (Corpus.Registry.compiled_unit e)
             ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
             ~seed_cls:e.Corpus.Corpus_def.e_seed_cls
             ~seed_meth:e.Corpus.Corpus_def.e_seed_meth
         with
         | Ok an -> (e.Corpus.Corpus_def.e_id, an)
         | Error err -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id err)
       Corpus.Registry.all)

(* Generated programs, analyzed like Crucible's synthesis-replay oracle
   analyzes them; a program whose seed test the pipeline rejects has no
   tests to fork and is skipped. *)
let gen_analyses =
  lazy
    (List.filter_map
       (fun i ->
         let seed = Par.seed ~base:11L ~index:i in
         let src = Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed) in
         match
           Pipeline.analyze_source src ~client_classes:[ Fuzz.Gen.seed_cls ]
             ~seed_cls:Fuzz.Gen.seed_cls ~seed_meth:Fuzz.Gen.seed_meth
         with
         | Ok an -> Some (Printf.sprintf "gen#%d" i, an)
         | Error _ -> None)
       (List.init 50 Fun.id))

let fresh (an : Pipeline.analysis) t =
  Synth.instantiate an.Pipeline.an_cu ~client_classes:an.Pipeline.an_client_classes
    ~backend:an.Pipeline.an_backend t

(* Everything a scheduled run shows: its events (a trace recorder is
   attached, so the interpreter runs), outcome, steps, output and the
   canonical heap from the roots. *)
let traced_run (inst : Detect.Racefuzzer.instance) ~seed =
  let m = inst.Detect.Racefuzzer.ri_machine in
  let rec_ = Runtime.Trace.attach m in
  let r = Conc.Exec.run m (Conc.Scheduler.random ~seed) in
  ( Runtime.Trace.snapshot rec_,
    r.Conc.Exec.outcome,
    r.Conc.Exec.steps,
    Runtime.Machine.output m,
    Runtime.Snapshot.canonical (Runtime.Machine.heap m) ~roots:inst.Detect.Racefuzzer.ri_roots )

(* The same facts without observers, so the compiled fast path runs;
   the label count stands in for the events. *)
let quiet_run (inst : Detect.Racefuzzer.instance) ~seed =
  let m = inst.Detect.Racefuzzer.ri_machine in
  let r = Conc.Exec.run m (Conc.Scheduler.random ~seed) in
  ( Runtime.Machine.labels_used m,
    r.Conc.Exec.outcome,
    r.Conc.Exec.steps,
    Runtime.Machine.output m,
    Runtime.Snapshot.canonical (Runtime.Machine.heap m) ~roots:inst.Detect.Racefuzzer.ri_roots )

let fork_seeds = [ 3L; 17L; 101L ]

(* Every fork handed out by one instantiator runs exactly as a fresh
   instantiation does, under several schedules; later forks come after
   earlier ones have run, so a fork that leaks state into the template
   shows up as a divergence. *)
let check_fork_equals_fresh (name, (an : Pipeline.analysis)) =
  List.iter
    (fun (t : Synth.test) ->
      let inst = Pipeline.instantiator an t in
      let where what = Printf.sprintf "%s test #%d: %s" name t.Synth.st_id what in
      let same run label seed =
        match (inst (), fresh an t) with
        | Ok a, Ok b ->
          if run a ~seed <> run b ~seed then
            Alcotest.fail (where (Printf.sprintf "%s run, seed %Ld, fork /= fresh" label seed))
        | Error e1, Error e2 -> Alcotest.(check string) (where "same error") e2 e1
        | Ok _, Error e | Error e, Ok _ -> Alcotest.fail (where ("one side failed: " ^ e))
      in
      List.iter (same traced_run "traced") fork_seeds;
      same quiet_run "quiet" (List.hd fork_seeds))
    an.Pipeline.an_tests

let test_fork_equals_fresh_corpus () =
  List.iter check_fork_equals_fresh (Lazy.force corpus_analyses)

let test_fork_equals_fresh_gen () =
  let ans = Lazy.force gen_analyses in
  Alcotest.(check bool) "most generated programs analyze" true (List.length ans >= 40);
  List.iter check_fork_equals_fresh ans

(* A fork of a running machine continues exactly as the machine does.
   Forks are taken at several points of a run (the first step at which a
   racy thread holds a monitor, and after 8, 32 and 128 steps); each
   time the original runs to completion first, so a fork sharing
   monitors, frames or registers with its source diverges.  The
   scheduler is a function of the machine state alone, so both
   continuations face the same picks. *)
let state_sched =
  Conc.Scheduler.of_fun (fun m runnable ->
      List.nth runnable (Runtime.Machine.labels_used m * 7 mod List.length runnable))

let holds_a_lock (inst : Detect.Racefuzzer.instance) =
  List.exists
    (fun tid -> Runtime.Machine.held_locks inst.Detect.Racefuzzer.ri_machine tid <> [])
    inst.Detect.Racefuzzer.ri_threads

let continuation (inst : Detect.Racefuzzer.instance) =
  let m = inst.Detect.Racefuzzer.ri_machine in
  let r = Conc.Exec.run m state_sched in
  ( r.Conc.Exec.outcome,
    r.Conc.Exec.decisions,
    r.Conc.Exec.crashes,
    Runtime.Machine.labels_used m,
    Runtime.Machine.output m,
    Runtime.Snapshot.canonical (Runtime.Machine.heap m) ~roots:inst.Detect.Racefuzzer.ri_roots )

(* Step [inst] until [stop] holds; [false] if the run ends first. *)
let advance (inst : Detect.Racefuzzer.instance) ~stop =
  let rec go n =
    stop n
    || (Conc.Exec.run ~fuel:1 inst.Detect.Racefuzzer.ri_machine state_sched).Conc.Exec.steps > 0
       && go (n + 1)
  in
  go 0

let test_fork_mid_run () =
  let with_lock = ref 0 in
  List.iter
    (fun (name, (an : Pipeline.analysis)) ->
      List.iter
        (fun (t : Synth.test) ->
          let inst = Pipeline.instantiator an t in
          let fork_at what stop =
            match inst () with
            | Error _ -> ()
            | Ok i ->
              if advance i ~stop:(stop i) then begin
                if holds_a_lock i then incr with_lock;
                let f =
                  { i with Detect.Racefuzzer.ri_machine = Runtime.Machine.fork i.Detect.Racefuzzer.ri_machine }
                in
                let original = continuation i in
                if continuation f <> original then
                  Alcotest.failf "%s test #%d: fork %s diverges" name t.Synth.st_id what
              end
          in
          fork_at "at the first monitor held" (fun i n -> holds_a_lock i || n >= 10_000);
          List.iter
            (fun k -> fork_at (Printf.sprintf "after %d steps" k) (fun _ n -> n >= k))
            [ 8; 32; 128 ])
        an.Pipeline.an_tests)
    (Lazy.force corpus_analyses @ Lazy.force gen_analyses);
  Alcotest.(check bool) "some forks taken with a monitor held" true (!with_lock > 10)

(* Fork, run to completion, fork again: the second fork starts from the
   same state and runs the same way, so the run left the template
   untouched. *)
let test_template_stays_pristine () =
  let an = fig1_analysis () in
  List.iter
    (fun (t : Synth.test) ->
      let inst = Pipeline.instantiator an t in
      let run () =
        match inst () with Ok i -> traced_run i ~seed:5L | Error e -> Alcotest.fail e
      in
      let first = run () in
      Alcotest.(check bool) "second fork runs like the first" true (run () = first))
    an.Pipeline.an_tests

let test_error_cached () =
  let builds = ref 0 in
  let inst =
    Detect.Racefuzzer.forking (fun () ->
        incr builds;
        Error (Printf.sprintf "build %d failed" !builds))
  in
  let r1 = inst () and r2 = inst () in
  Alcotest.(check int) "built once" 1 !builds;
  match (r1, r2) with
  | Error e1, Error e2 ->
    Alcotest.(check string) "first error" "build 1 failed" e1;
    Alcotest.(check string) "same error" e1 e2
  | _ -> Alcotest.fail "expected the cached error"

let instantiations () =
  Obs.Metrics.counter_value (Obs.Metrics.global ()) "synth/instantiations"

(* The template is built on the first call, whoever makes it, and
   counted once however many forks follow. *)
let test_template_built_once () =
  let an = fig1_analysis () in
  let t = find_test an ~qa:"Lib.update" ~qb:"Lib.update" in
  let before = instantiations () in
  let inst = Pipeline.instantiator an t in
  Alcotest.(check int) "nothing built yet" before (instantiations ());
  for _ = 1 to 5 do
    ignore (inst ())
  done;
  Alcotest.(check int) "one template" (before + 1) (instantiations ())

(* A parallel confirm whose instantiator was never called builds the
   template from a worker domain; the result matches the sequential
   scan and the template is built once.  [Par] clamps the width to the
   machine's domain count, so on a two-core box [~jobs:4] runs two
   domains. *)
let test_confirm_domain_safety () =
  let an = Lazy.force corpus_analyses |> List.assoc "C5" in
  List.iteri
    (fun i (t : Synth.test) ->
      if i < 12 then begin
        let cand =
          { Detect.Racefuzzer.c_field = t.Synth.st_pair.Pairs.p_field; c_sites = None }
        in
        let seq =
          Detect.Racefuzzer.confirm ~instantiate:(Pipeline.instantiator an t) ~cand
            ~jobs:1 ()
        in
        let before = instantiations () in
        let par =
          Detect.Racefuzzer.confirm ~instantiate:(Pipeline.instantiator an t) ~cand
            ~jobs:4 ()
        in
        Alcotest.(check int) "template built once" (before + 1) (instantiations ());
        Alcotest.(check bool) "jobs 4 = jobs 1" true (par = seq)
      end)
    an.Pipeline.an_tests

(* ---- prefix sharing ---- *)

let seed_replays () =
  Obs.Metrics.counter_value (Obs.Metrics.global ()) "synth/seed_replays"

(* [f ()] and the seed replays it started. *)
let replays_of f =
  let before = seed_replays () in
  let r = f () in
  (r, seed_replays () - before)

let goal (e : Pairs.endpoint) = (e.Pairs.ep_qname, e.Pairs.ep_occurrence)

let shuffled xs =
  let st = Random.State.make [| 42 |] in
  List.map (fun x -> (Random.State.bits st, x)) xs
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* Did the seed replay to endpoint A fail?  Then collectObjects stopped
   after one replay, and every test at that A goal fails the same way. *)
let a_unreached (t : Synth.test) = function
  | Error e ->
    let qa, occ = goal t.Synth.st_pair.Pairs.p_a in
    e = Printf.sprintf "seed replay never reached %s (occurrence %d)" qa occ
  | Ok _ -> false

(* A test built from a shared prefix runs as a fresh [Synth.instantiate]
   (the fork = fresh facts, one traced schedule), whatever order the
   tests are requested in.  The seed replays are counted exactly: a
   round saves each test's own collectObjects replays (two, or one when
   A is never reached) and pays one A replay plus one cursor per A goal
   (or the A replay alone).  A second round over the same prefixes finds
   every snapshot released and replays afresh, so it costs what fresh
   builds cost and still gives the same tests.  Returns the replays a
   round saves and the number of B snapshots planned for two or more
   tests. *)
let check_prefix_sharing (name, (an : Pipeline.analysis)) =
  let tests = an.Pipeline.an_tests in
  let facts r = Result.map (fun i -> traced_run i ~seed:3L) r in
  let fresh_facts = List.map (fun t -> replays_of (fun () -> facts (fresh an t))) tests in
  let sum = List.fold_left ( + ) 0 in
  let fresh_total = sum (List.map snd fresh_facts) in
  let points =
    List.sort_uniq compare
      (List.map2
         (fun (t : Synth.test) (r, _) -> (goal t.Synth.st_pair.Pairs.p_a, a_unreached t r))
         tests fresh_facts)
  in
  let saved =
    sum (List.map2 (fun t (r, _) -> if a_unreached t r then 1 else 2) tests fresh_facts)
    - sum (List.map (fun (_, unreached) -> if unreached then 1 else 2) points)
  in
  let slots =
    List.map
      (fun (t : Synth.test) -> (goal t.Synth.st_pair.Pairs.p_a, goal t.Synth.st_pair.Pairs.p_b))
      tests
  in
  let shared_slots =
    List.length
      (List.filter
         (fun k -> List.length (List.filter (( = ) k) slots) >= 2)
         (List.sort_uniq compare slots))
  in
  let round px what order =
    sum
      (List.map
         (fun ((t : Synth.test), (want, _)) ->
           let got, n = replays_of (fun () -> facts (Synth.instantiator px t ())) in
           if got <> want then
             Alcotest.failf "%s test #%d (%s): prefix-shared /= fresh" name t.Synth.st_id what;
           n)
         order)
  in
  List.iter
    (fun (what, order) ->
      let px =
        Synth.prefixes ~backend:an.Pipeline.an_backend an.Pipeline.an_cu
          ~client_classes:an.Pipeline.an_client_classes tests
      in
      let requests = order (List.combine tests fresh_facts) in
      Alcotest.(check int)
        (Printf.sprintf "%s, %s: seed replays" name what)
        (fresh_total - saved) (round px what requests);
      Alcotest.(check int)
        (Printf.sprintf "%s, %s: after release" name what)
        fresh_total
        (round px (what ^ ", after release") requests))
    [ ("forward", Fun.id); ("reverse", List.rev); ("shuffled", shuffled) ];
  (saved, shared_slots)

let check_prefix_sharing_all ans =
  let saved, shared = List.split (List.map check_prefix_sharing ans) in
  Alcotest.(check bool) "replays saved" true (List.fold_left ( + ) 0 saved > 0);
  Alcotest.(check bool) "some snapshot serves two tests" true (List.fold_left ( + ) 0 shared > 0)

let test_prefix_sharing_corpus () = check_prefix_sharing_all (Lazy.force corpus_analyses)
let test_prefix_sharing_gen () = check_prefix_sharing_all (Lazy.force gen_analyses)

let () =
  Alcotest.run "synth"
    [
      ( "planning",
        [ Alcotest.test_case "dedup" `Quick test_dedup_folds_pairs ] );
      ( "instantiation",
        [
          Alcotest.test_case "counter shared (fig1)" `Quick
            test_instantiate_shares_counter;
          Alcotest.test_case "deterministic" `Quick test_instantiate_deterministic;
          Alcotest.test_case "collectors frozen" `Quick
            test_collection_threads_frozen;
          Alcotest.test_case "share owner (update x get)" `Quick
            test_share_owner_directly;
          Alcotest.test_case "fig13 context applied" `Quick test_fig13_instantiation;
          Alcotest.test_case "roots" `Quick test_roots_nonempty;
        ] );
      ( "forking",
        [
          Alcotest.test_case "fork = fresh (C1-C9)" `Quick test_fork_equals_fresh_corpus;
          Alcotest.test_case "fork = fresh (generated)" `Quick test_fork_equals_fresh_gen;
          Alcotest.test_case "mid-run fork" `Quick test_fork_mid_run;
          Alcotest.test_case "template stays pristine" `Quick test_template_stays_pristine;
          Alcotest.test_case "error cached" `Quick test_error_cached;
          Alcotest.test_case "template built once" `Quick test_template_built_once;
          Alcotest.test_case "confirm domain safety" `Quick test_confirm_domain_safety;
        ] );
      ( "prefix sharing",
        [
          Alcotest.test_case "shared = fresh (C1-C9)" `Quick test_prefix_sharing_corpus;
          Alcotest.test_case "shared = fresh (generated)" `Quick test_prefix_sharing_gen;
        ] );
      ( "rendering",
        [ Alcotest.test_case "to_source" `Quick test_to_source_mentions_methods ] );
    ]
