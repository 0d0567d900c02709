(** Race-directed randomized scheduling, after RaceFuzzer (Sen, PLDI'08).

    Given a candidate racy pair (from the lockset pass), run the program
    under a random scheduler that postpones any thread about to perform
    a matching access; when two threads are simultaneously postponed at
    conflicting accesses to the same variable the race is real and is
    reported. *)

(** A prepared execution: a machine whose racy threads exist but have
    not been scheduled yet, plus the observable roots for triage. *)
type instance = {
  ri_machine : Runtime.Machine.t;
  ri_threads : Runtime.Value.tid list;
  ri_roots : Runtime.Value.t list;
}

type instantiator = unit -> (instance, string) result
(** Returns an identical, independent initial state on every call.  The
    synthesizer's instantiators are built with {!forking}, so this holds
    by construction: every call is a fork of one template. *)

val forking : (unit -> (instance, string) result) -> instantiator
(** [forking build] runs [build] once, on the first call, and answers
    every call (the first included) with a {!Runtime.Machine.fork} of
    that template; an [Error] is cached and returned as is.  The build
    is serialized by a mutex and the template is never stepped, so the
    instantiator may be called from several domains at once. *)

(** What to look for: a field name, optionally narrowed to two sites. *)
type candidate = {
  c_field : Jir.Ast.id;
  c_sites : (Runtime.Event.site * Runtime.Event.site) option;
}

val candidate_of_report : Race.report -> candidate

type confirm_result = {
  confirmed : Race.report option;
  runs_used : int;
  steps : int;  (** VM steps over the logical prefix of runs executed *)
}

type run_stats = { rs_steps : int; rs_max_postponed : int }
(** Per-execution facts: steps taken and the postponed-set high-water
    mark.  Deterministic given the machine and seed. *)

val confirm :
  instantiate:instantiator ->
  cand:candidate ->
  ?runs:int ->
  ?fuel:int ->
  ?seed:int64 ->
  ?jobs:int ->
  unit ->
  confirm_result
(** Attempt to confirm the candidate over several directed runs with
    different scheduler seeds.  [jobs] (default 1) fans the independent
    runs out over domains with {!Par.map}; the result is identical to the
    sequential early-exit scan for every job count. *)

val directed_run :
  ?on_postponed:((Runtime.Value.tid * Jir.Ast.id) list -> unit) ->
  Runtime.Machine.t ->
  cand:candidate ->
  seed:int64 ->
  fuel:int ->
  on_confirm:[ `Report | `Force_first of unit | `Force_second of unit ] ->
  Race.report option * run_stats
(** One directed execution.  [`Report] stops at the confirmation;
    [`Force_first]/[`Force_second] execute the racing accesses back to
    back in the given order and run the program to completion (used by
    {!Triage}).  [on_postponed] is called with the postponed set, as
    (tid, field) pairs in no particular order, each time a thread joins
    the set or is released from it and the set is non-empty; it only
    observes, so the report and stats are those of the same run without
    it. *)
