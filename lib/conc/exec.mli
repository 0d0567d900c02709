(** Multithreaded executor: the one loop that drives a machine's
    threads.  {!drive} owns the fuel check, the walk over the runnable
    threads, the step and the outcome; a {!policy} only decides which
    thread steps next.  {!run} is the scheduler policy; RaceFuzzer's
    directed run, triage's priority replays and systematic exploration
    are other policies.  Observers (race detectors, trace recorders)
    attach to the machine itself. *)

type outcome =
  | All_finished
  | Deadlock of Runtime.Value.tid list  (** live threads, none runnable *)
  | Fuel_exhausted

(** What a policy asks the loop to do at a scheduling point. *)
type pick =
  | Draw
      (** Step the eligible thread at index [draw k] (creation order),
          where [k] is the eligible count; one unit of fuel.  With no
          eligible thread, the same as [Stop]. *)
  | First
      (** Step the first eligible thread without counting; one unit of
          fuel.  With no eligible thread, the same as [Stop]. *)
  | Run of Runtime.Machine.thread  (** Step this thread; one unit of fuel. *)
  | Free of Runtime.Machine.thread  (** Step this thread at no fuel cost. *)
  | Stop  (** End the run. *)

type policy = {
  excluded : (Runtime.Machine.thread -> bool) option;
      (** Runnable threads the walk skips (RaceFuzzer's postponed set). *)
  choose : (unit -> int) -> pick;
      (** Called at every scheduling point with fuel left.  Its argument
          counts the eligible threads (runnable and not excluded); it
          walks the thread list at most once per scheduling point. *)
  draw : int -> int;  (** The index for {!Draw}, given the eligible count. *)
  on_step : Runtime.Machine.thread -> Runtime.Machine.step_result -> unit;
      (** Sees every step and its result, whatever the pick. *)
}

val base : policy
(** Excludes nothing, stops at once, draws index 0 and ignores steps:
    the record a policy overrides, as in [{ base with choose }]. *)

val drive : fuel:int -> Runtime.Machine.t -> policy -> outcome
(** Ask the policy for picks and step them until it stops or fuel runs
    out ([Fuel_exhausted], checked before every pick).  On [Stop] the
    outcome is [All_finished] when no thread is live and [Deadlock] of
    the live threads otherwise — also when a policy stops early with
    threads still runnable, whose caller then has its own result.
    Allocates nothing per step. *)

type run_result = {
  outcome : outcome;
  steps : int;  (** [Stepped] results only *)
  decisions : Runtime.Value.tid list;  (** schedule taken, for replay *)
  crashes : (Runtime.Value.tid * string) list;
}

val run : ?fuel:int -> Runtime.Machine.t -> Scheduler.t -> run_result
(** Run under a scheduler until quiescence, deadlock or fuel exhaustion
    (default fuel 400,000).  A pick whose thread cannot move after all
    costs fuel but is not a step or a decision. *)

val run_program :
  ?fuel:int ->
  ?seed:int64 ->
  ?on_machine:(Runtime.Machine.t -> unit) ->
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  cls:Jir.Ast.id ->
  meth:Jir.Ast.id ->
  Scheduler.t ->
  run_result * Runtime.Machine.t
(** Compile-and-run a whole program from a static entry point,
    scheduling any threads it spawns.  [on_machine] is called with the
    fresh machine before the entry thread is created — the hook for
    attaching observers (race detectors, trace recorders) to a run. *)
