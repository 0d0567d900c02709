(** Execution backends over the Jir runtime.

    Backend #1 ([Interp]) is the plain {!Runtime.Machine} interpreter.
    Backend #2 ([Compiled]) is the closure-compiling engine
    ({!Runtime.Machine.Compiled}), with compiled code cached
    process-wide keyed by the unit's content digest.  Both backends
    produce identical event streams, labels, results and race sets for
    the same (program, seed, schedule) — checked continuously by the
    [backend-diff] Crucible oracle.  Compiled code plugs in underneath
    the machine's own stepping, so scheduling and suspension go through
    the machine unchanged on both backends. *)

type kind = Interp | Compiled

val of_string : string -> (kind, string) result
(** Accepts ["interp"] / ["interpreter"] and ["compiled"] /
    ["compile"]. *)

val to_string : kind -> string

val default_kind : unit -> kind
(** [Compiled] unless the [NARADA_BACKEND] environment variable names
    a different backend. *)

type t
(** A prepared backend for one unit: the digest lookup and (at most
    one) compilation happen in {!prepare}, so installing on a fresh
    machine is cheap on the replay hot path. *)

val prepare : kind -> Jir.Code.unit_ -> t

val compiled_code : Jir.Code.unit_ -> Runtime.Machine.Compiled.code
(** The digest-keyed compiled code of a unit, compiling on first use.
    Domain-safe: compiles at most once per distinct digest.  Records
    the ["backend/compile"] span and the ["backend/compiled/units"] /
    ["backend/compiled/instrs"] counters on compilation. *)

val install : t -> Runtime.Machine.t -> unit
(** Install the prepared backend on a machine ([Interp] installs
    nothing). *)

val on_machine : t -> Runtime.Machine.t -> unit
(** {!install} shaped for the [?on_machine] hooks of
    {!Runtime.Interp.record} and {!Conc.Exec.run_program}. *)

val create :
  ?client_classes:Jir.Ast.id list ->
  ?seed:int64 ->
  t ->
  Jir.Code.unit_ ->
  Runtime.Machine.t
(** [Machine.create] followed by {!install}. *)
