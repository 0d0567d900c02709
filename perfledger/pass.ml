(* One timed pass of a workload and the work counts gathered from
   outside while it runs. *)

module T = Tracer

(* Work counts gathered from outside while a pass runs.  They are exact:
   the same seed gives the same counts. *)
type counts = (string, float) Hashtbl.t

let bump (c : counts) ?(by = 1.0) name =
  Hashtbl.replace c name (by +. Option.value ~default:0.0 (Hashtbl.find_opt c name))

let get (c : counts) name = Option.value ~default:0.0 (Hashtbl.find_opt c name)

(* What a workload's check says about a pass's results. *)
type verdict = {
  answer : string;  (** canonical rendering of the pass's results *)
  attempted : int;  (** units of work the pass attempted *)
  failed : int;  (** of those, failed by the workload's own rule *)
  problems : string list;  (** failed output checks *)
  notes : string list;  (** findings to print that do not fail the run *)
}

type pass = {
  wall : float;  (** s *)
  units : float list;  (** per-unit latency, ms *)
  alloc : float;  (** words *)
  heap_mb : float;  (** the process's top heap when the clock stopped *)
  obs : (string * float) list;  (** the program's own counters over set-up and pass *)
  verdict : verdict;
  counts : counts;
  gc_minor : int;
  gc_major : int;
}

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Run [body] as one pass.  [body] gets the pass's counts and [unit_],
   which times one unit and tags its spans with the unit's id.  [after],
   when given, runs once the clock and the heap reading have stopped; it
   gets [body]'s result and [unit_] too, for a workload whose units are
   timed apart from its pass, and returns failed checks and notes.
   [check] then judges the result.  [obs] closes the window over the
   program's own counters that the caller opened before set-up.  Returns
   the pass and [body]'s result. *)
let timed_pass ?after ~obs body check : pass * 'a =
  let counts = Hashtbl.create 64 in
  let units = ref [] in
  let n = ref 0 in
  let unit_ f =
    T.unit_id := !n;
    incr n;
    let t = Obs.Clock.ticks () in
    let v = T.with_ "unit" f in
    units := (Int64.to_float (Obs.Clock.elapsed_ns ~since:t) /. 1e6) :: !units;
    T.unit_id := -1;
    v
  in
  let g0 = Gc.quick_stat () in
  let a0 = allocated () in
  let t0 = Obs.Clock.ticks () in
  let result = T.with_ "pass" (fun () -> body counts unit_) in
  let wall = Obs.Clock.elapsed_s ~since:t0 in
  let alloc = allocated () -. a0 in
  let g1 = Gc.quick_stat () in
  let heap_mb = float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let obs = obs () in
  let more_problems, more_notes =
    match after with Some f -> f counts result unit_ | None -> ([], [])
  in
  let v = check counts result in
  let pass =
    {
      wall;
      units = List.rev !units;
      alloc;
      heap_mb;
      obs;
      verdict = { v with problems = v.problems @ more_problems; notes = v.notes @ more_notes };
      counts;
      gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
      gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    }
  in
  (pass, result)
