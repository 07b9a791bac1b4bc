(** The fault-tolerant end-to-end fit: simulate (with retries), screen,
    build the design, fit with numerical fallbacks — one call, one
    structured result.

    Every fit spends its samples through one front half, {!deliver}:
    {!Circuit.Simulator.run_robust_multi} (or the adaptive {!Retry.run})
    retries detectable failures and drops samples that never deliver,
    {!Screen.screen} and {!Screen.mahalanobis} remove non-finite,
    outlier and far-point rows before any basis function is evaluated,
    and the min-sample and quorum floors decide whether what survived
    is enough. Single-output {!fit} is the one-simulator case of
    multi-output {!fit_multi}; the two differ only in the outcome they
    return.
    The solver runs with [~on_singular:`Fallback] so a degenerate
    active-set Gram matrix degrades through the {!Rsm.Refit} ladder
    instead of aborting. Nothing in this module raises on the expected
    failure paths — everything is an {!Error.t}. *)

(** Which space the hygiene screens examine. [Response] is the MAD
    screen on simulated values ({!Screen.screen}); [Factor] is the
    robust-Mahalanobis screen on sample points ({!Screen.mahalanobis});
    [Both] composes them, response first. *)
type screen_space = Response | Factor | Both

val screen_space_to_string : screen_space -> string

val screen_space_of_string : string -> screen_space option
(** Case-insensitive; accepts ["response"]/["value"],
    ["factor"]/["point"], ["both"]. *)

val default_quorum : float
(** 0.9 — a fit silently missing more than a tenth of its requested
    samples is a different experiment, not a degraded one. *)

type config = {
  method_ : Rsm.Solver.method_;
  folds : int;  (** CV folds for the λ selection *)
  max_lambda : int;  (** sparsity-search upper bound *)
  samples : int;  (** Monte-Carlo samples to request *)
  screen : bool;  (** run the hygiene screens at all *)
  screen_threshold : float;  (** robust z-score cut (response screen) *)
  screen_space : screen_space;  (** which screens run; default [Response] *)
  screen_confidence : float;
      (** χ² confidence of the factor screen's distance cut *)
  faults : Circuit.Simulator.fault_plan;  (** injected failure model *)
  retry : Circuit.Simulator.retry_policy;
  adaptive : Retry.policy option;
      (** adaptive retry (backoff + breaker, {!Retry.run}) instead of
          the fixed policy; [retry] is ignored when set *)
  min_samples : int;  (** fewest surviving rows acceptable for a fit *)
  quorum : float;
      (** fraction of [samples] that must survive delivery and
          screening, in (0, 1]; a shortfall above the quorum degrades
          the fit (noted on the model), below it fails typed *)
  streamed : bool;  (** matrix-free design instead of materialized *)
  store : Rsm.Select.store option;
      (** the CV cell store ({!type:Rsm.Select.store}); [None] = no CV
          checkpointing *)
  sweep : Rsm.Corr_sweep.sweep;
      (** always [Exact], the one correlation engine; the field stays
          because the end-to-end benchmark forwards it to
          {!Rsm.Select.omp_p} and {!Rsm.Select.lars_p} *)
  shards : Rsm.Shard_sweep.plan option;
      (** the shard plan of the selection sweeps
          ({!type:Rsm.Shard_sweep.plan}); [None] = unsharded. Fits are
          bitwise identical at every shard count, and the plan counts
          the worker recoveries of every fit run with this config. *)
  rescreen : bool;  (** residual rescreen + down-date refit after the fit *)
}

val config :
  ?method_:Rsm.Solver.method_ ->
  ?folds:int ->
  ?max_lambda:int ->
  ?samples:int ->
  ?screen:bool ->
  ?screen_threshold:float ->
  ?screen_space:screen_space ->
  ?screen_confidence:float ->
  ?faults:Circuit.Simulator.fault_plan ->
  ?retry:Circuit.Simulator.retry_policy ->
  ?adaptive:Retry.policy ->
  ?min_samples:int ->
  ?quorum:float ->
  ?streamed:bool ->
  ?store:Rsm.Select.store ->
  ?shards:Rsm.Shard_sweep.plan ->
  ?rescreen:bool ->
  unit ->
  (config, Error.t) result
(** Validated constructor. Defaults: OMP, 4 folds, [max_lambda = 100],
    1000 samples, screening on at {!Screen.default_threshold} in
    [Response] space with {!Screen.default_confidence}, no injected
    faults, the default fixed retry policy
    ({!Circuit.Simulator.retry_policy}) and no adaptive policy,
    [min_samples = 30], [quorum = 0.9], dense design, no checkpointing,
    exact sweep, no rescreen. Returns
    [Error (Invalid_input _)] on non-positive counts or thresholds, a
    confidence or quorum outside its range, [min_samples > samples], or
    a [store] with [Ls], which has no λ sweep. The shard plan and the
    cell store arrive validated by their own constructors
    ({!val:Rsm.Shard_sweep.plan}, {!val:Rsm.Select.store}).

    No field picks the CV driver: {!Rsm.Select.fused_driver} derives it
    from [streamed] and [shards], and both drivers give the same
    bits. *)

type outcome = {
  model : Rsm.Model.t;
      (** the fitted model; {!Rsm.Model.notes} records any numerical
          fallbacks that fired *)
  dataset : Circuit.Simulator.dataset;  (** the rows the fit actually used *)
  run_report : Circuit.Simulator.run_report;  (** delivery/retry accounting *)
  screen_report : Screen.report option;
      (** [None] when the response screen did not run *)
  point_report : Screen.point_report option;
      (** [None] when the factor screen did not run *)
  adaptive_report : Retry.report option;
      (** the adaptive driver's event log; [None] under the fixed
          policy. [run_report] is its [run] field in that case. *)
  cv_lambda : (int * int) option;
      (** a path method's cross-validated λ and its grid's cap
          ({!Rsm.Solver.selected}); [None] for the other methods *)
}

val degraded_note :
  requested:int ->
  survived:int ->
  quorum:float ->
  Circuit.Simulator.run_report ->
  string
(** The single-line ["degraded: ..."] provenance note a quorum-degraded
    fit records in {!Rsm.Model.notes}: rows kept vs requested, split
    into delivery losses ([requested − run.delivered]) and screened rows
    ([run.delivered − survived]), plus burst windows and breaker trips
    when present. {!deliver} stamps it; exported for flows that stage
    the pipeline by hand and must stamp byte-identical notes. *)

val screen_refit :
  ?threshold:float ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  Rsm.Model.t ->
  Rsm.Model.t * int array
(** [screen_refit src f model] rescreens a fitted model's residuals on
    the robust MAD scale ([Screen.mad_consistency]·MAD, the same scale
    as the pre-fit value screen) and, when rows cross [threshold]
    (default {!Screen.default_threshold}), re-solves the active-set
    normal equations with those rows removed. The Gram factor of the
    support columns is {e down-dated} one dropped row at a time
    ({!Linalg.Cholesky.Grow.downdate_row}, O(d·p²) for d drops and p
    support columns) instead of refactorized from the surviving rows —
    the warm-start-then-screen path the roadmap called for. The support
    is unchanged; only coefficients move. Returns the refit model (with
    a note recording the drop count and repair path) and the dropped
    row indices, ascending; [(model, [||])] when nothing crosses the
    threshold, the residual MAD is zero, or the support is empty. If
    the down-dated factor loses positive definiteness, the refit falls
    back to a cold {!Rsm.Refit} solve on the kept rows; if fewer rows
    than support columns survive, the original model is kept (noted).
    @raise Invalid_argument on a non-positive threshold or a response
    length mismatch. *)

(** {2 Delivery: simulate → screen → quorum}

    The one sample-delivery path. Every fit — single- or multi-output,
    fixed or adaptive retry, cross-validated or fixed-λ — spends its
    simulations through {!deliver}, so the retry, screening and quorum
    rules cannot drift apart. *)

type hygiene = {
  run : Circuit.Simulator.run_report;  (** delivery/retry accounting *)
  adaptive : Retry.report option;
      (** the adaptive driver's event log; [None] under the fixed policy *)
  screens : Screen.report option array;
      (** per-output response-screen reports (indices in delivered-row
          space, {e before} the kept-set intersection); [None] entries
          when the response screen did not run *)
  point : Screen.point_report option;
      (** the shared factor-space verdict; [None] when it did not run *)
}
(** What delivery and screening did to the requested samples. *)

type delivery = {
  rows : Circuit.Simulator.dataset array;
      (** the surviving rows, one dataset per simulator; the point
          arrays are physically shared (one kept-row set) *)
  hygiene : hygiene;
  notes : string array;
      (** [[||]] on a full delivery, else the one {!degraded_note} *)
  src : Polybasis.Design.Provider.t;
      (** the design provider over the surviving points (matrix-free
          when [config.streamed]) *)
}

val deliver :
  pool:Parallel.Pool.t option ->
  config ->
  Circuit.Simulator.t array ->
  Polybasis.Basis.t ->
  Randkit.Prng.t ->
  (delivery, Error.t) result
(** [deliver ~pool cfg sims basis rng] simulates [config.samples]
    samples for every simulator at once — the fixed policy of
    {!Circuit.Simulator.run_robust_multi}, or {!Retry.run} when
    [config.adaptive] is set — then screens them: each output's
    response screen runs on its own center and spread and the kept
    sets are intersected (with one output, that output's kept set —
    the rows {!Screen.screen} returns); the point screen runs once on
    the shared points. With [n] rows surviving, [n < min_samples] or
    [n < ceil(quorum·samples)] fails with [Simulation _]; [n < samples]
    at or above both floors proceeds with the ["degraded: ..."] note in
    [notes]. Finally the design provider is built over the surviving
    points. Fails with [Invalid_input _] on an empty [sims], with
    [Config _] when [config.adaptive] is set for more than one
    simulator (the breaker driver owns a single simulator's retry
    loop), and with the screens' own typed errors. *)

val post_fit :
  config -> delivery -> Rsm.Model.t array -> (Rsm.Model.t array, Error.t) result
(** The stage after the solver, one model per output: stamp the
    delivery's [notes] on each model, then, when [config.rescreen], run
    {!screen_refit} on that output's rows. *)

val fit :
  ?pool:Parallel.Pool.t ->
  config ->
  Circuit.Simulator.t ->
  Polybasis.Basis.t ->
  Randkit.Prng.t ->
  (outcome, Error.t) result
(** Run the full pipeline: {!deliver} for the one simulator, the
    cross-validated solver ({!Rsm.Solver.fit_multi_p} at one output,
    which is {!Rsm.Solver.fit_cv_p}), then {!post_fit}.
    Deterministic for a fixed seed at every domain count (the
    underlying stages all pre-split their PRNG streams). Worker-process
    crash recoveries across the fold fits and the refit (a
    [config.shards] plan in [Procs] mode) accumulate in the plan.

    Quorum semantics are {!deliver}'s: below either floor the fit fails
    with [Simulation _] (the typed one-line diagnostic in the CLI); a
    degraded delivery records its single-line ["degraded: ..."] note —
    rows lost in delivery vs screening, burst windows, breaker trips —
    in {!Rsm.Model.notes}, where it survives serialization. A
    full-delivery fit carries no note. Fails with [Invalid_input _] /
    [Numerical _] / [Internal _] when a stage raises. *)

val outcome_summary : outcome -> string
(** Multi-line human-readable account: the {!hygiene_lines}, model size
    and any fallback notes. *)

(** {2 Multi-output pipeline}

    R performance metrics of one circuit — the op-amp's gain, bandwidth,
    power and offset — share their Monte-Carlo points, their fault
    history, their hygiene verdicts and their design matrix; only the
    response vectors differ. {!fit_multi} runs the whole pipeline once
    for all of them: one {!deliver} (every sample evaluated by every
    simulator, delivered only when all outputs are finite, one shared
    kept-row set, one design provider) and one {!Rsm.Solver.fit_multi_p}
    call — on a streamed design, one fused grid that generates each
    column once per greedy step for every output and fold. *)

type multi_outcome = {
  models : Rsm.Model.t array;  (** one fitted model per simulator, in order *)
  datasets : Circuit.Simulator.dataset array;
      (** the rows each fit used; the point arrays are physically
          shared across outputs (one kept-row set) *)
  m_run_report : Circuit.Simulator.run_report;
      (** one delivery/retry account for the shared batch *)
  screen_reports : Screen.report option array;
      (** per-output response-screen reports (indices in delivered-row
          space, {e before} the kept-set intersection); [None] entries
          when the response screen did not run *)
  m_point_report : Screen.point_report option;
      (** the shared factor-space verdict; [None] when it did not run *)
  cv_lambdas : (int * int) option array;
      (** per output, as {!outcome}'s [cv_lambda] *)
}

val fit_multi :
  ?pool:Parallel.Pool.t ->
  config ->
  Circuit.Simulator.t array ->
  Polybasis.Basis.t ->
  Randkit.Prng.t ->
  (multi_outcome, Error.t) result
(** Run the full pipeline for every simulator at once: {!deliver},
    {!Rsm.Solver.fit_multi_p}, then {!post_fit}. The simulators must
    agree on [dim]; [config.adaptive] must be [None] unless there is
    exactly one simulator (the breaker driver owns a single simulator's
    retry loop — requesting it here fails with [Config _], as does an
    empty simulator array with [Invalid_input _]). With one simulator
    the rows, reports and model are {!fit}'s, bit for bit.

    Quorum/degradation semantics are {!deliver}'s, applied to the shared
    surviving row count; a degraded delivery stamps the same
    ["degraded: ..."] note on {e every} model. The grid runs on the
    fused driver exactly when {!Rsm.Select.fused_driver} holds
    ([config.streamed], one shard), on the per-job driver
    otherwise (see {!Rsm.Solver.fit_multi_p}); either way cell
    [(r, q)] checkpoints at
    [Serialize.Checkpoint.Cell.file store.base ~outputs r q], the
    fitted models are bitwise identical across the two drivers, at
    every domain count, dense or streamed, and the fit leaves the
    generator in the same state. *)

val multi_outcome_summary : ?names:string array -> multi_outcome -> string
(** Multi-line account of a multi-output run: the {!hygiene_lines} with
    per-output labels, and one model line per output. [names] labels
    the outputs (e.g. metric names); defaults to ["output <r>"]. *)

(** {2 Hygiene report} *)

val outcome_hygiene : outcome -> hygiene
(** The single-output outcome's reports, as a one-output {!hygiene}. *)

val multi_hygiene : multi_outcome -> hygiene

val hygiene_lines : names:string array -> hygiene -> string list
(** The one rendering of a hygiene report, one line each: the delivery
    summary ({!Circuit.Simulator.report_summary}), the adaptive-retry
    line when that driver ran, then either ["screen: off"] or each
    output's response-screen summary (prefixed with its name when
    [names] is non-empty) followed by the point-screen summary. *)
