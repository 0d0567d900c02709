(* Workload [eval]: the C1-C9 campaign, one unit per synthesized test. *)

open Pass
open Probes
module E = Eval.Evaluate
module P = Narada_core.Pipeline
module Rf = Detect.Racefuzzer
module T = Tracer

let opts seed =
  { E.default_options with opt_seed = seed; opt_jobs = 1; opt_backend = Backend.Compiled }

let analyze (o : E.options) (e : Corpus.Corpus_def.entry) cu =
  P.analyze cu ~static_filter:false ~backend:o.E.opt_backend
    ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
    ~seed_cls:e.Corpus.Corpus_def.e_seed_cls ~seed_meth:e.Corpus.Corpus_def.e_seed_meth

(* What the campaign does before its first test: compile every class
   and prepare its compiled backend.  Both are cached per class, and the
   pass's [compiled_unit] and [analyze] calls find them there. *)
let setup seed =
  List.iter
    (fun e ->
      let cu = T.with_ "corpus.compile" (fun () -> Corpus.Registry.compiled_unit e) in
      T.with_ "backend.compile" (fun () -> ignore (Backend.prepare (opts seed).E.opt_backend cu)))
    Corpus.Registry.all

(* [E.evaluate_test] rebuilt from the layers' public functions, so each
   layer gets its own span.  Same calls, same seeds, same order. *)
let traced_test c (o : E.options) an t : E.test_eval =
  let instantiate = counted_instantiator c (P.instantiator an t) in
  match instantiate () with
  | Error _ -> { E.te_test = t; te_instantiated = false; te_races = [] }
  | Ok first ->
    let tbl = Hashtbl.create 8 in
    T.with_ "detect.schedules" (fun () ->
        for i = 0 to o.E.opt_schedules - 1 do
          if i = 0 then List.iter (add_candidate tbl) (lockset_run c first ~seed:o.E.opt_seed)
          else
            match instantiate () with
            | Ok inst ->
              List.iter (add_candidate tbl)
                (lockset_run c inst ~seed:(schedule_seed o.E.opt_seed i))
            | Error _ -> ()
        done);
    let candidates = sort_keys tbl in
    bump c "detect.candidates" ~by:(float_of_int (List.length candidates));
    let races =
      List.map
        (fun (k, r) ->
          let cand = Rf.candidate_of_report r in
          let res =
            confirm c ~instantiate ~cand ~runs:o.E.opt_confirm_runs ~seed:o.E.opt_seed ()
          in
          let reproduced = res.Rf.confirmed <> None in
          let verdict =
            if not reproduced then None
            else
              match triage c ~instantiate ~cand ~seed:o.E.opt_seed () with
              | Ok v -> Some v
              | Error _ -> None
          in
          { E.ro_key = k; ro_reproduced = reproduced; ro_verdict = verdict })
        candidates
    in
    {
      E.te_test = t;
      te_instantiated = true;
      te_races = List.sort (fun a b -> Detect.Race.compare_key a.E.ro_key b.E.ro_key) races;
    }

type class_result = {
  cr_id : string;
  cr_error : string option;
  cr_tests : E.test_eval list;
}

(* Per-class totals, deduplicated across tests the way the harness
   counts Table 5: a race keeps its best outcome. *)
let totals (tes : E.test_eval list) =
  let best = Hashtbl.create 32 in
  List.iter
    (fun te ->
      List.iter
        (fun ro ->
          match Hashtbl.find_opt best ro.E.ro_key with
          | None -> Hashtbl.replace best ro.E.ro_key ro
          | Some prev ->
            if
              (ro.E.ro_reproduced && not prev.E.ro_reproduced)
              || ro.E.ro_verdict = Some Detect.Triage.Harmful
                 && prev.E.ro_verdict <> Some Detect.Triage.Harmful
            then Hashtbl.replace best ro.E.ro_key ro)
        te.E.te_races)
    tes;
  let all = Hashtbl.fold (fun _ ro acc -> ro :: acc) best [] in
  let count p = List.length (List.filter p all) in
  ( List.length all,
    count (fun ro -> ro.E.ro_reproduced),
    count (fun ro -> ro.E.ro_verdict = Some Detect.Triage.Harmful),
    count (fun ro -> ro.E.ro_verdict = Some Detect.Triage.Benign) )

let body ~traced seed () c unit_ =
  let o = opts seed in
  List.map
    (fun (e : Corpus.Corpus_def.entry) ->
      let cu = compiled_unit c e in
      let an = pipeline (fun () -> analyze o e cu) in
      match an with
      | Error msg -> { cr_id = e.Corpus.Corpus_def.e_id; cr_error = Some msg; cr_tests = [] }
      | Ok an ->
        let tests =
          List.map
            (fun t ->
              unit_ (fun () -> if traced then traced_test c o an t else E.evaluate_test o an t))
            an.P.an_tests
        in
        { cr_id = e.Corpus.Corpus_def.e_id; cr_error = None; cr_tests = tests })
    Corpus.Registry.all

let render_class cr =
  let d, r, h, b = totals cr.cr_tests in
  Printf.sprintf "%s %d/%d/%d/%d" cr.cr_id d r h b

let answer crs =
  let races =
    List.concat_map
      (fun cr ->
        List.concat_map
          (fun te ->
            List.map
              (fun ro ->
                Printf.sprintf "%s %d %s %b %s" cr.cr_id
                  te.E.te_test.Narada_core.Synth.st_id
                  (Detect.Race.key_to_string ro.E.ro_key)
                  ro.E.ro_reproduced
                  (match ro.E.ro_verdict with
                  | Some v -> Detect.Triage.verdict_to_string v
                  | None -> "-"))
              te.E.te_races)
          cr.cr_tests)
      crs
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.map render_class crs @ races)))

let check c crs =
  let problems = ref [] in
  let failed = ref 0 in
  List.iter
    (fun cr ->
      (match cr.cr_error with
      | Some msg ->
        incr failed;
        problems := Printf.sprintf "%s: analysis failed: %s" cr.cr_id msg :: !problems
      | None -> ());
      List.iter (fun te -> if not te.E.te_instantiated then incr failed) cr.cr_tests;
      let d, r, h, b = totals cr.cr_tests in
      bump c "races_reproduced" ~by:(float_of_int r);
      if h + b <> r || r > d then
        problems :=
          Printf.sprintf "%s: harmful %d + benign %d <> reproduced %d, or > detected %d"
            cr.cr_id h b r d
          :: !problems)
    crs;
  {
    answer = answer crs;
    attempted =
      List.fold_left
        (fun a cr -> a + if cr.cr_error = None then List.length cr.cr_tests else 1)
        0 crs;
    failed = !failed;
    problems = List.rev !problems;
    notes = [];
  }

(* The totals above must equal the harness's own [evaluate_class]. *)
let api_check seed crs =
  List.filter_map
    (fun (e : Corpus.Corpus_def.entry) ->
      let mine = List.find (fun cr -> cr.cr_id = e.Corpus.Corpus_def.e_id) crs in
      match E.evaluate_class ~opts:(opts seed) e with
      | Error msg -> Some (e.Corpus.Corpus_def.e_id ^ ": evaluate_class failed: " ^ msg)
      | Ok ce ->
        let theirs =
          Printf.sprintf "%s %d/%d/%d/%d" e.Corpus.Corpus_def.e_id ce.E.cl_detected
            ce.E.cl_reproduced ce.E.cl_harmful ce.E.cl_benign
        in
        if String.equal theirs (render_class mine) then None
        else Some (Printf.sprintf "totals %s but evaluate_class %s" (render_class mine) theirs))
    Corpus.Registry.all
