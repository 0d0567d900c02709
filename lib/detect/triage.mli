(** Harmful/benign triage of confirmed races, mechanizing the paper's
    manual judgement (§5): a race is benign when forcing the racy
    interleaving cannot change observable state (e.g. resets to
    constants), harmful otherwise (lost updates, crashes,
    order-sensitive state).

    Implementation: over identical instantiations, compare the
    serialized execution A;B with the reverse serialization B;A and
    with the race-forced executions (racing accesses back to back,
    both orders).  Any difference in the canonical heap snapshot, the
    crash set or the racy threads' return values (a stale read is
    order-sensitive even when the final heap agrees) ⇒ harmful.

    Every function here takes an [instantiate] that must be
    deterministic: each call returns an identical, independent initial
    state, so outcomes of separate replays are comparable.  The
    synthesizer's instantiators hold this by construction — every call
    is a fork of one template ({!Racefuzzer.forking}).  A replay whose
    instantiation fails makes the result [Error].

    Cost: the serializations depend only on the test, so a caller
    triaging several races of one test runs {!baselines} once
    (2 replays) and {!verdict} per race (0–2 replays, stopping at the
    first difference).

    Repairability is the second, constructive oracle on top of this
    state-divergence verdict: a race whose synthesized lock fix
    eliminates it under full re-detection is confirmed real by
    construction ([Repair.Engine.constructive]; [lib/repair] sits above
    this library, so the wiring lives in the engine's report, which
    prints both signals per race). *)

type verdict = Harmful | Benign

val verdict_to_string : verdict -> string

type baselines
(** The A;B outcome of one test and whether B;A reaches the same one. *)

val baselines :
  instantiate:Racefuzzer.instantiator ->
  ?fuel:int ->
  unit ->
  (baselines, string) result
(** Run A;B and B;A: 2 replays. *)

val verdict :
  baselines ->
  instantiate:Racefuzzer.instantiator ->
  cand:Racefuzzer.candidate ->
  ?seed:int64 ->
  ?fuel:int ->
  unit ->
  (verdict, string) result
(** Triage one confirmed race of the test the baselines were run on,
    with the same [instantiate] and [fuel].  [Harmful] with no replay
    when the serializations differ; otherwise forced-first (1 replay)
    and, only if that agrees with A;B, forced-second (2 replays). *)

val triage :
  instantiate:Racefuzzer.instantiator ->
  cand:Racefuzzer.candidate ->
  ?seed:int64 ->
  ?fuel:int ->
  unit ->
  (verdict, string) result
(** [baselines] then [verdict]: 2–4 replays for one race. *)
