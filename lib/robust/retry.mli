(** Adaptive retry: exponential backoff with deterministic jitter and a
    circuit breaker over the sample axis.

    {!Circuit.Simulator.run_robust}'s fixed policy retries every failed
    sample the same number of times — sensible under i.i.d. faults,
    wasteful under a correlated outage ({!Circuit.Simulator.burst_model})
    where every retry inside the window burns backoff and re-run cost
    for nothing. The driver here adapts: after [breaker_threshold]
    consecutive sample failures the breaker {e trips} and subsequent
    samples fail fast with a single attempt until a cooldown sized to
    the expected burst length has passed; the next sample is a
    {e half-open probe} with full retries — success closes the breaker,
    failure re-opens it for another cooldown. Retry [a] of a sample
    (attempt [a >= 2]) charges [2^(a-2) · (1 + u/2)] accounted seconds,
    [u] a deterministic uniform draw from the sample's own fault stream.

    The driver is the adaptive walk of {!Circuit.Simulator.run_batch}:
    the point draw, the per-sample fault streams, the burst states,
    each sample's retry loop ({!Circuit.Simulator.attempt_sample}), the
    fault tally, the kept/failed split, the observation noise and the
    run report are the fixed policy's, shared with
    {!Circuit.Simulator.run_robust}. What lives
    here is only the policy: the breaker state machine and the jittered
    backoff each retry is charged.

    Determinism: the one expensive clean evaluation per point runs
    batch-parallel over [?pool] (evaluators are pure) and is replayed
    per attempt; the breaker walks the samples in index order. The
    dataset, report, and every policy decision are therefore bitwise
    identical at every domain count. Backoff and hang time is
    {e accounted}, never slept. *)

type policy = {
  max_attempts : int;  (** attempts per sample while the breaker is closed *)
  breaker_threshold : int;
      (** consecutive failed samples that trip the breaker; [0] disables
          the breaker entirely. The tripped breaker stays open for the
          fault plan's expected burst length (16 samples when the plan
          has no burst model) before the half-open probe. *)
}

val policy : ?max_attempts:int -> ?breaker_threshold:int -> unit -> policy
(** Validated constructor. Defaults: [max_attempts = 4],
    [breaker_threshold = 8].
    @raise Invalid_argument on [max_attempts < 1] or a negative
    threshold. *)

(** Every policy decision, in sample order — the audit trail of the
    adaptive run. *)
type event =
  | Backoff of { sample : int; attempt : int; seconds : float }
      (** a granted retry and the accounted wait before it *)
  | Tripped of { sample : int; consecutive : int; cooldown : int }
      (** breaker opened after [consecutive] failed samples *)
  | Fast_fail of { sample : int }
      (** breaker open: sample abandoned after a single attempt *)
  | Probe of { sample : int; delivered : bool }
      (** the half-open probe and its verdict *)
  | Closed of { sample : int }  (** breaker closed (probe or early success) *)

type report = {
  run : Circuit.Simulator.run_report;
      (** standard run report; [breaker_trips] is filled in *)
  events : event array;
  retries_granted : int;  (** retries spent across the run *)
}

val run :
  ?noise_rel:float ->
  ?pool:Parallel.Pool.t ->
  ?faults:Circuit.Simulator.fault_plan ->
  policy ->
  Circuit.Simulator.t ->
  Randkit.Prng.t ->
  k:int ->
  Circuit.Simulator.dataset * report
(** [run policy sim g ~k] draws [k] samples under [faults] with the
    adaptive retry policy. Failed samples are dropped and recorded in
    [report.run.failed], exactly as {!Circuit.Simulator.run_robust};
    [noise_rel] applies to delivered rows in row order from [g].
    @raise Invalid_argument when [k <= 0]. *)
