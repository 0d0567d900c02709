(* Execution backends over the Jir runtime.

   Backend #1 is the plain {!Runtime.Machine} interpreter.  Backend #2
   is the closure-compiling engine ({!Runtime.Machine.Compiled}): each
   method body of a unit is translated to OCaml closures once, and the
   compiled code is cached process-wide keyed by the unit's content
   digest, so replay-heavy stages (Racefuzzer confirmation, triage
   re-runs, differential oracles) pay compilation once per distinct
   program instead of dispatch-per-instruction on every replay.

   A [t] is a *prepared* backend: the digest lookup and (at most one)
   compilation happen in [prepare], so the per-machine cost of
   [install] on the replay hot path is a hashtable-sized walk of the
   unit's methods, not a digest of the whole program. *)

type kind = Interp | Compiled

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "interp" | "interpreter" -> Ok Interp
  | "compiled" | "compile" -> Ok Compiled
  | _ -> Error (Printf.sprintf "unknown backend %S (expected interp|compiled)" s)

let to_string = function Interp -> "interp" | Compiled -> "compiled"

(* Replay stages default to the compiled backend; NARADA_BACKEND=interp
   flips the whole process without threading a flag everywhere (the
   cram suite uses it to pin interpreter behavior). *)
let default_kind () =
  match Sys.getenv_opt "NARADA_BACKEND" with
  | Some s -> ( match of_string s with Ok k -> k | Error _ -> Compiled)
  | None -> Compiled

type t = Interp_b | Compiled_b of Runtime.Machine.Compiled.code

(* Digest-keyed compiled-code cache: lock-free steady-state reads,
   compile at most once per distinct unit (see Corpus.Registry). *)
module Code_cache = Corpus.Registry.Keyed_cache (struct
  type t = Runtime.Machine.Compiled.code
end)

let codes = Code_cache.create ()

let compiled_code (cu : Jir.Code.unit_) : Runtime.Machine.Compiled.code =
  let dg = Runtime.Machine.Compiled.digest cu in
  Code_cache.find_or_compute codes dg (fun () ->
      (* Compile counts are stable: the set of distinct digests a
         campaign compiles is a pure function of inputs and seeds, and
         the cache runs this closure exactly once per digest. *)
      Obs.Span.with_ ~root:true "backend/compile" (fun () ->
          let code = Runtime.Machine.Compiled.compile cu in
          let g = Obs.Metrics.global () in
          Obs.Metrics.incr g "backend/compiled/units"
            ~n:(Runtime.Machine.Compiled.units code);
          Obs.Metrics.incr g "backend/compiled/instrs"
            ~n:(Runtime.Machine.Compiled.instrs code);
          code))

let prepare (k : kind) (cu : Jir.Code.unit_) : t =
  match k with Interp -> Interp_b | Compiled -> Compiled_b (compiled_code cu)

let install (t : t) (m : Runtime.Machine.t) =
  match t with
  | Interp_b -> ()
  | Compiled_b code ->
    Runtime.Machine.Compiled.install m code;
    (* Installs count machines built from scratch (forks inherit their
       template's code), an implementation detail of how a stage gets
       its machines rather than work the campaign does — a volatile
       gauge, never a counter. *)
    Obs.Metrics.gauge_add (Obs.Metrics.global ()) "backend/installs" 1.0

let on_machine (t : t) : Runtime.Machine.t -> unit = install t

let create ?client_classes ?seed (t : t) (cu : Jir.Code.unit_) :
    Runtime.Machine.t =
  let m = Runtime.Machine.create ?client_classes ?seed cu in
  install t m;
  m
