(** Adaptive retry: exponential backoff with deterministic jitter, a
    global attempt budget, and a circuit breaker over the sample axis.

    {!Circuit.Simulator.run_robust}'s fixed policy retries every failed
    sample the same number of times — sensible under i.i.d. faults,
    wasteful under a correlated outage ({!Circuit.Simulator.burst_model})
    where every retry inside the window burns backoff and re-run cost
    for nothing. The driver here adapts: after [breaker_threshold]
    consecutive sample failures the breaker {e trips} and subsequent
    samples fail fast with a single attempt until a cooldown sized to
    the expected burst length has passed; the next sample is a
    {e half-open probe} with full retries — success closes the breaker,
    failure re-opens it for another cooldown. A global [attempt_budget]
    caps the total retries a run may spend, whatever the policy would
    otherwise grant.

    The driver is the adaptive walk of {!Circuit.Simulator.run_batch}:
    the point draw, the per-sample fault streams, the burst states,
    each sample's retry loop ({!Circuit.Simulator.attempt_sample}, hence
    {!Circuit.Simulator.draw_attempt}), the fault tally, the kept/failed
    split, the observation noise and the run report are the fixed
    policy's, shared with {!Circuit.Simulator.run_robust}. What lives
    here is only the policy: the breaker state machine, the budget, and
    the jittered backoff each retry is granted.

    Determinism: the one expensive clean evaluation per point runs
    batch-parallel over [?pool] (evaluators are pure) and is replayed
    per attempt; the breaker walks the samples in index order. The
    dataset, report, and every policy decision are therefore bitwise
    identical at every domain count. Backoff and hang time is
    {e accounted}, never slept. *)

type policy = {
  max_attempts : int;  (** attempts per sample while the breaker is closed *)
  base_backoff : float;
      (** accounted base backoff; attempt [a] charges
          [2^(a-2) · base · (1 + jitter·u)] seconds *)
  jitter : float;
      (** jitter fraction in [[0, 1)]; [u] is a deterministic uniform
          draw from the sample's own fault stream *)
  attempt_budget : int;
      (** global cap on retries (attempts beyond each sample's first)
          across the whole run; [max_int] = unbounded *)
  breaker_threshold : int;
      (** consecutive failed samples that trip the breaker; [0] disables
          the breaker entirely *)
  cooldown : int;
      (** samples the tripped breaker stays open before the half-open
          probe; [0] = derive from the fault plan's expected burst
          length (or 16 when the plan has no burst model) *)
}

val policy :
  ?max_attempts:int ->
  ?base_backoff:float ->
  ?jitter:float ->
  ?attempt_budget:int ->
  ?breaker_threshold:int ->
  ?cooldown:int ->
  unit ->
  policy
(** Validated constructor. Defaults: [max_attempts = 4],
    [base_backoff = 1], [jitter = 0.5], unbounded budget,
    [breaker_threshold = 8], derived cooldown.
    @raise Invalid_argument on [max_attempts < 1], a negative backoff,
    budget, threshold, or cooldown, or jitter outside [[0, 1)]. *)

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
  | Budget_exhausted of { sample : int }
      (** first retry denied for lack of budget (emitted once) *)

val event_to_string : event -> string

type report = {
  run : Circuit.Simulator.run_report;
      (** standard run report; [breaker_trips] is filled in *)
  events : event array;
  retries_granted : int;  (** retries actually spent from the budget *)
  retries_denied : int;  (** retries the policy wanted but the budget refused *)
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
