(** Sequential execution driver: runs seed tests to completion
    (recording traces for the analysis) and implements the paper's
    suspension mechanism (§3.4) — run a sequential test and suspend it
    just before a chosen client-level invocation so the object
    references about to be passed can be collected. *)

val record :
  ?seed:int64 ->
  ?fuel:int ->
  ?on_machine:(Machine.t -> unit) ->
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  cls:Jir.Ast.id ->
  meth:Jir.Ast.id ->
  Machine.t * Trace.t * (Value.t option, string) result
(** Run static method [cls.meth()] on a fresh machine, recording the
    trace.  [on_machine] runs right after machine creation (before any
    stepping) — how backends install compiled code. *)

val run_main :
  ?seed:int64 ->
  ?on_machine:(Machine.t -> unit) ->
  Jir.Code.unit_ ->
  cls:Jir.Ast.id ->
  (Value.t option, string) result * string
(** Run [cls.main()]; returns the result and captured [Sys.print]
    output. *)

(** A suspended capture: the invocation about to happen. *)
type captured = {
  cap_meth : Jir.Code.meth;
  cap_recv : Value.t option;
  cap_args : Value.t list;
  cap_tid : Value.tid;  (** the suspended replay thread *)
}

val run_until_call :
  ?fuel:int ->
  Machine.t ->
  cls:Jir.Ast.id ->
  meth:Jir.Ast.id ->
  target_qname:string ->
  nth:int ->
  captured option
(** Start [cls.meth()] on a fresh thread of [m] and run it until just
    before its [nth] (0-based) client-level invocation of
    [target_qname]; the thread is left at that point.  [None] if the
    test ends first.  The one-goal case of {!replay}. *)

type replay
(** A seed replay on its own thread that stops before each of several
    invocations, so one replay serves many capture points. *)

val replay :
  ?fuel:int ->
  Machine.t ->
  cls:Jir.Ast.id ->
  meth:Jir.Ast.id ->
  goals:(string * int) list ->
  replay
(** Start [cls.meth()] on a fresh thread of [m]; nothing is stepped
    until {!next_goal}.  A goal [(qname, nth)] is the [nth] (0-based)
    client-level invocation of [qname].  [fuel] (default
    {!Machine.default_fuel}) bounds the steps of the whole replay. *)

val next_goal : replay -> ((string * int) * captured) option
(** Run the replay thread until just before the next goal's invocation
    and leave it there (a later call steps past it first), so goals come
    back in the order the seed reaches them.  Each goal is reached at
    the step, and in the machine state, at which a one-goal replay of
    it stops.  [None] once every goal was reached, or when the thread
    ends, blocks or runs out of fuel first. *)
