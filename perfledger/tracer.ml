(* The ledger's own span recorder.  Spans are opened from the benchmark's
   files around calls into the program's public functions; they are kept
   in memory and handed out when the pass ends.  When tracing is off,
   [with_] is a plain call. *)

let on = ref false
let unit_id = ref (-1)
let recorded : Stats.span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let reset () =
  recorded := [];
  next_id := 0;
  stack := [];
  unit_id := -1

let spans () = List.rev !recorded

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let add ~id ~parent ~name ~start ~stop ~alloc =
  recorded :=
    {
      Stats.sp_id = id;
      sp_parent = parent;
      sp_name = name;
      sp_unit = !unit_id;
      sp_start = start;
      sp_stop = stop;
      sp_alloc = alloc;
    }
    :: !recorded

(* A child span read from the program's own [Obs] spans: only its
   duration is known, so children are laid back to back from the start
   of the ledger span that encloses them. *)
type derived = Derived of string * int64 * derived list

let rec lay ~parent ~start (ds : derived list) =
  ignore
    (List.fold_left
       (fun t (Derived (name, ns, kids)) ->
         let id = fresh () in
         let stop = Int64.add t ns in
         add ~id ~parent ~name ~start:t ~stop ~alloc:0.0;
         lay ~parent:id ~start:t kids;
         stop)
       start ds)

(* [with_ ?obs name f] runs [f] inside a span.  [obs], when given, is
   called before [f] and returns the reader called after it for the
   [Obs] children of this span. *)
let with_ ?obs name f =
  if not !on then f ()
  else begin
    let id = fresh () in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let read = Option.map (fun o -> o ()) obs in
    let a0 = Gc.minor_words () in
    let t0 = Obs.Clock.ticks () in
    let finish () =
      let t1 = Obs.Clock.ticks () in
      let a1 = Gc.minor_words () in
      stack := List.tl !stack;
      add ~id ~parent ~name ~start:t0 ~stop:t1 ~alloc:(a1 -. a0);
      Option.iter (fun r -> lay ~parent:id ~start:t0 (r ())) read
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* ---- reading the program's own registry ---- *)

let reg () = Obs.Metrics.global ()
let span_ns path = Obs.Metrics.span_ns (reg ()) path
let counter name = Obs.Metrics.counter_value (reg ()) name

let histogram name =
  match List.assoc_opt name (Obs.Metrics.histograms (reg ())) with
  | Some h -> (h.Obs.Metrics.h_count, h.Obs.Metrics.h_sum)
  | None -> (0, 0)

let gauge name =
  Option.value ~default:0.0 (List.assoc_opt name (Obs.Metrics.gauges (reg ())))

(* A reader of [Obs] span-time deltas for [tree]: each node is a span
   path and the ledger name its delta is recorded under. *)
type obs_tree = Node of string * string * obs_tree list

type snapshot = Snap of int64 * snapshot list

let obs_reader (trees : obs_tree list) () =
  let rec snap (Node (path, _, kids)) = Snap (span_ns path, List.map snap kids) in
  let before = List.map snap trees in
  fun () ->
    let rec delta (Node (path, name, kids)) (Snap (b, bkids)) =
      Derived (name, Int64.sub (span_ns path) b, List.map2 delta kids bkids)
    in
    List.filter
      (fun (Derived (_, ns, _)) -> Int64.compare ns 0L > 0)
      (List.map2 delta trees before)

(* The program's own counters and span times that the ledger reports,
   under the ledger's metric names. *)
let obs_readers =
  let secs path () = Int64.to_float (span_ns path) /. 1e9 in
  [
    ("backend.compiles", fun () -> float_of_int (counter "backend/compiled/units"));
    ("backend.installs", fun () -> gauge "backend/installs");
    ("backend.compile_s", secs "backend/compile");
    ("core.pipeline_runs", fun () -> float_of_int (Obs.Metrics.span_calls (reg ()) "pipeline"));
    ( "core.pipeline_s",
      fun () -> Int64.to_float (Int64.sub (span_ns "pipeline") (span_ns "pipeline/pairs")) /. 1e9 );
    ("core.pairs_s", secs "pipeline/pairs");
    ("core.pairs", fun () -> float_of_int (snd (histogram "pipeline#pairs")));
    ("core.tests", fun () -> float_of_int (snd (histogram "pipeline#tests")));
    ("detect.confirm_runs", fun () -> float_of_int (fst (histogram "racefuzzer/steps")));
    ("detect.confirm_steps", fun () -> float_of_int (snd (histogram "racefuzzer/steps")));
    ("detect.triage_replays", fun () -> float_of_int (counter "triage/replays"));
    ("detect.reproduced", fun () -> float_of_int (counter "detect/reproduced"));
    ("detect.candidates", fun () -> float_of_int (counter "detect/candidates"));
    ("repair.attempts", fun () -> float_of_int (counter "repair/attempts"));
    ("repair.repaired", fun () -> float_of_int (counter "repair/repaired"));
    ( "repair.race_s",
      fun () ->
        Int64.to_float (Int64.add (span_ns "repair/race") (span_ns "repair/subject/repair/race"))
        /. 1e9 );
    ("static.summary_s", secs "static/summary");
    ("static.link_s", secs "static/link");
    ("static.summaries", fun () -> float_of_int (counter "static/summarized"));
  ]

(* Opens a window over [obs_readers]; the function returned closes it
   and gives each reader's change. *)
let obs_window () =
  let before = List.map (fun (_, r) -> r ()) obs_readers in
  fun () -> List.map2 (fun (n, r) b -> (n, r () -. b)) obs_readers before
