(* Workload [repair]: [narada repair] of C5.  A pass is one call of
   [Repair.Engine.repair_all]; its units are the confirmed races, timed
   one by one through the public [repair_race] after the pass. *)

open Pass
module R = Repair.Engine
module T = Tracer

let entry () =
  match Corpus.Registry.find "C5" with
  | Some e -> e
  | None -> failwith "corpus entry C5 is missing"

let opts seed = { R.default_options with R.eo_seed = seed; eo_jobs = 1 }

(* Set-up: compile C5 and prepare both backends. *)
let setup seed =
  let e = entry () in
  let cu = T.with_ "corpus.compile" (fun () -> Corpus.Registry.compiled_unit e) in
  T.with_ "backend.compile" (fun () ->
      List.iter (fun k -> ignore (Backend.prepare k cu)) (opts seed).R.eo_backends);
  R.subject_of_unit cu ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
    ~seed_cls:e.Corpus.Corpus_def.e_seed_cls ~seed_meth:e.Corpus.Corpus_def.e_seed_meth

(* [repair_all] is one call, so the traced pass splits its time with
   the program's own spans: discovery (synthesis, lockset schedules,
   confirmation, triage) is the [repair/subject] span less the per-race
   validation, and inside the validation the ledger places the pipeline
   re-runs and backend compiles.  The pipeline spans include
   discovery's one pipeline run, so that run counts in both
   [detect.discovery] and [core.pipeline], and [repair.race]'s self time
   is short by it.  The program's spans carry no allocation: all of
   [repair_all]'s stays with the ledger's own span. *)
let split () =
  let since path =
    let before = T.span_ns path in
    fun () -> Int64.sub (T.span_ns path) before
  in
  let subject = since "repair/subject" and race = since "repair/subject/repair/race" in
  let compile = since "backend/compile" and pipeline = since "pipeline" in
  let pairs = since "pipeline/pairs" in
  fun () ->
    [
      T.Derived ("detect.discovery", Int64.sub (subject ()) (race ()), []);
      T.Derived
        ( "repair.race",
          race (),
          [
            T.Derived ("backend.compile", compile (), []);
            T.Derived ("core.pipeline", pipeline (), [ T.Derived ("core.pairs", pairs (), []) ]);
          ] );
    ]

let body ~traced:_ seed sub _c _unit =
  T.with_ ~obs:split "repair_all" (fun () -> R.repair_all ~opts:(opts seed) sub)

let reject_name = function
  | R.R_compile _ -> "compile"
  | R.R_behavior _ -> "behavior"
  | R.R_deadlock _ -> "deadlock"
  | R.R_race_survives _ -> "race_survives"
  | R.R_new_race _ -> "new_race"

let chosen (rr : R.race_repair) =
  Printf.sprintf "%s -> %s"
    (Repair.Grammar.race_id_to_string rr.R.rr_id)
    (match rr.R.rr_outcome with
    | R.Repaired { rc_cand; _ } -> Repair.Grammar.candidate_to_string rc_cand
    | R.No_candidates -> "no candidates"
    | R.Not_repairable -> "not repairable")

let attempts (rr : R.race_repair) =
  List.map
    (fun (a : R.attempt) ->
      Repair.Grammar.candidate_to_string a.R.at_cand
      ^ match a.R.at_result with Ok () -> " ok" | Error r -> " " ^ reject_name r)
    rr.R.rr_attempts

let answer rrs = Digest.to_hex (Digest.string (String.concat "\n" (List.map chosen rrs)))

(* The units: each race [repair_all] repaired, repaired again on its
   own through [repair_race].  The public [baseline_of] leaves out what
   [repair_all] adds to the baseline from discovery (every detected race
   and the tests that showed it), so [repair_race] re-detects on the
   tests that target the racy field only, and for a candidate that
   replaces a mutex it confirms every other race as possibly new.  Its
   validation work can therefore differ from [repair_all]'s.  The
   chosen candidates must be the same; differences in the attempts are
   reported. *)
let units seed sub _c result unit_ =
  match result with
  | Error _ -> ([], [])
  | Ok rp -> (
    let o = opts seed in
    match T.with_ "repair.baseline" (fun () -> R.baseline_of o sub) with
    | Error msg -> ([ "baseline_of failed: " ^ msg ], [])
    | Ok bl ->
      let runs0, steps0 = T.histogram "racefuzzer/steps" in
      let mine =
        List.map
          (fun (rr : R.race_repair) ->
            unit_ (fun () ->
                R.repair_race o sub bl rr.R.rr_id ~key:rr.R.rr_key ~verdict:rr.R.rr_verdict))
          rp.R.rp_races
      in
      let runs1, steps1 = T.histogram "racefuzzer/steps" in
      let theirs = rp.R.rp_races in
      let n_attempts rrs = List.fold_left (fun a rr -> a + List.length rr.R.rr_attempts) 0 rrs in
      let differ =
        List.fold_left2 (fun n a b -> if attempts a = attempts b then n else n + 1) 0 mine theirs
      in
      ( (if List.map chosen mine = List.map chosen theirs then []
         else
           [
             Printf.sprintf "repair_race chose other candidates (%s) than repair_all (%s)"
               (answer mine) (answer theirs);
           ]),
        [
          Printf.sprintf
            "units (repair_race, public baseline): %d attempts, repair_all %d; attempt lists \
             differ on %d of %d races; %d confirmation runs, %d steps"
            (n_attempts mine) (n_attempts theirs) differ (List.length mine) (runs1 - runs0)
            (steps1 - steps0);
        ] ))

let check c = function
  | Error msg ->
    { answer = "error"; attempted = 1; failed = 1; problems = [ "repair_all: " ^ msg ]; notes = [] }
  | Ok rp ->
    let problems = ref [] in
    let failed = ref 0 in
    List.iter
      (fun (rr : R.race_repair) ->
        List.iter
          (fun (a : R.attempt) ->
            bump c "repair.attempts";
            match a.R.at_result with
            | Ok () -> ()
            | Error r -> bump c ("repair.reject_" ^ reject_name r))
          rr.R.rr_attempts;
        match rr.R.rr_outcome with
        | R.Repaired { rc_patched; _ } ->
          bump c "races_repaired";
          if not (R.constructive rr) then
            problems := (chosen rr ^ ": repaired but not constructive") :: !problems;
          (match Jir.Compile.compile_unit rc_patched with
          | _ -> ()
          | exception Jir.Diag.Error d ->
            problems := (chosen rr ^ ": patch does not compile: " ^ Jir.Diag.to_string d) :: !problems)
        | R.No_candidates | R.Not_repairable -> incr failed)
      rp.R.rp_races;
    bump c "races_reproduced" ~by:(float_of_int (List.length rp.R.rp_races));
    {
      answer = answer rp.R.rp_races;
      attempted = List.length rp.R.rp_races;
      failed = !failed;
      problems = List.rev !problems;
      notes = [];
    }
