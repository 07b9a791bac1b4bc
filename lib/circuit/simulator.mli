(** The transistor-level "simulator" driver — the stand-in for Cadence
    Spectre in the paper's flow (see DESIGN.md, substitution 1).

    A workload couples an analytic performance evaluator with the cost
    model of the real simulator it replaces: [seconds_per_sample] is the
    accounted wall-clock cost of one transistor-level simulation, so the
    cost tables (Tables I, III, IV) can report simulation cost on the
    paper's scale while the fitting cost is measured live. *)

type dataset = {
  points : Linalg.Vec.t array;  (** ΔY^(k): factor vectors, length [dim] *)
  values : float array;  (** f^(k): the simulated performance *)
}

type t = {
  name : string;
  dim : int;  (** number of independent variation factors *)
  eval : Linalg.Vec.t -> float;
  seconds_per_sample : float;  (** accounted cost of one real simulation *)
}

val make :
  name:string -> dim:int -> seconds_per_sample:float ->
  (Linalg.Vec.t -> float) -> t

val run_one : t -> Randkit.Prng.t -> Linalg.Vec.t * float
(** Draw one Monte-Carlo point (iid standard normal factors, Section IV-A:
    "we randomly draw K sampling points based on pdf(ΔY)") and evaluate. *)

val run :
  ?noise_rel:float -> ?pool:Parallel.Pool.t -> t -> Randkit.Prng.t -> k:int ->
  dataset
(** [run sim g ~k] draws [k] samples. [noise_rel] adds Gaussian
    observation noise with sigma equal to that fraction of the sample
    standard deviation of the clean responses (simulator numerical
    noise); default 0.

    With [?pool] the [k] evaluations of [eval] — the Monte-Carlo batch
    that stands in for [k] transistor-level simulations — run
    batch-parallel over the pool. The sample points (and the optional
    noise) are always drawn sequentially from [g], so the dataset is
    bitwise identical with and without a pool, at every domain count.
    [eval] is then called from several domains concurrently and must be
    thread-safe; the built-in circuit evaluators are pure. Default:
    sequential (arbitrary user closures stay safe). *)

(** {2 Fault injection and retry}

    Real transistor-level simulations fail: runs diverge and return
    NaN/Inf, license servers drop mid-batch (transient), jobs hang, and
    occasionally a run converges to garbage that is numerically finite
    (outlier). The fault plan injects exactly those modes so the fitting
    pipeline's hygiene (retry, screening, fallbacks) can be exercised
    and benchmarked deterministically. *)

type fault_kind =
  | Nan_return  (** simulation diverged: NaN result (detectable) *)
  | Inf_return  (** simulation diverged: ±∞ result (detectable) *)
  | Outlier
      (** converged to finite garbage — {e not} detectable at the
          simulator boundary; the dataset screen must catch it *)
  | Transient  (** run crashed / license lost: no value, retry may work *)
  | Hang  (** run hung until a timeout: no value, accounted wall time *)

type burst_model = {
  burst_entry : float;
      (** per-sample probability of a Good→Burst transition, in [0, 1] *)
  burst_len : float;  (** expected burst length in samples (geometric) *)
  burst_rate : float;
      (** per-attempt fault probability {e inside} a burst, in [0, 1]
          (1 = the whole window is down) *)
  burst_mix : (fault_kind * float) array;  (** fault mix inside a burst *)
  burst_seed : int;
      (** seed of the outage chain's own stream, independent of both the
          sampling stream and the per-sample fault streams *)
}

val burst_model :
  ?entry:float ->
  ?len:float ->
  ?rate:float ->
  ?mix:(fault_kind * float) array ->
  ?seed:int ->
  unit ->
  burst_model
(** Correlated-outage model: a two-state (Good/Burst) Markov chain over
    the sample index axis ({!Randkit.Markov}) — the license-server /
    NFS-outage regime where a {e window} of consecutive samples fails
    together, which per-attempt i.i.d. injection cannot represent.
    Defaults: [entry = 0.01], [len = 20], [rate = 1] (a hard outage),
    a transient-heavy mix ([Transient]:3, [Hang]:1 — an outage crashes
    or hangs jobs, it does not fabricate numbers), [seed = 0xb1257].
    @raise Invalid_argument on probabilities outside their ranges,
    [len < 1], or a degenerate mix. *)

type fault_plan = {
  rate : float;  (** per-attempt probability of any fault, in [0, 1) *)
  mix : (fault_kind * float) array;  (** relative weights of the modes *)
  outlier_scale : float;  (** outlier offset in units of [1 + |value|] *)
  hang_seconds : float;  (** accounted timeout charged per hang *)
  fault_seed : int;  (** seed of the fault stream, independent of sampling *)
  burst : burst_model option;
      (** correlated outage windows layered over the i.i.d. model;
          [None] = per-attempt faults only *)
}

val fault_plan :
  ?rate:float ->
  ?mix:(fault_kind * float) array ->
  ?outlier_scale:float ->
  ?hang_seconds:float ->
  ?fault_seed:int ->
  ?burst:burst_model ->
  unit ->
  fault_plan
(** Validated constructor. Defaults: [rate = 0.1], an equal-weight
    NaN/outlier/transient mix, [outlier_scale = 50], [hang_seconds =
    30], [fault_seed = 0x5eed], no burst model.
    @raise Invalid_argument on a rate outside [[0, 1)], an empty or
    negative-weight mix, or non-positive scales. *)

val burst_states : fault_plan -> k:int -> bool array
(** [burst_states plan ~k] is the outage chain for a [k]-sample run:
    element [i] is [true] when sample [i] falls inside a burst window.
    Drawn sequentially from [burst_seed]'s own stream before any
    evaluation, so it is a pure function of [(plan, k)] — bitwise
    identical at every domain and shard count. All-[false] when the
    plan has no burst model. *)

val no_faults : fault_plan
(** Rate-0 plan: {!run_robust} then behaves exactly like {!run} (plus
    the finite-value check on genuine evaluator output). *)

type retry_policy = {
  max_attempts : int;  (** total attempts per sample (1 = no retry) *)
  backoff_seconds : float;
      (** accounted base backoff; attempt [a] charges [2^(a-2)] times
          this (deterministic exponential backoff, never slept) *)
}

val retry_policy :
  ?max_attempts:int -> ?backoff_seconds:float -> unit -> retry_policy
(** Defaults: [max_attempts = 3], [backoff_seconds = 1].
    @raise Invalid_argument when [max_attempts < 1] or the backoff is
    negative. *)

val no_retry : retry_policy

type run_report = {
  requested : int;  (** K asked for *)
  delivered : int;  (** rows actually in the dataset *)
  failed : int array;
      (** sample indices abandoned after exhausting retries — recorded,
          never fatal *)
  faults_injected : int;
  nonfinite_faults : int;  (** NaN/Inf faults (all detected and retried) *)
  outliers_injected : int;  (** finite garbage delivered into the dataset *)
  transient_faults : int;
  hang_faults : int;
  retries : int;
  accounted_extra_seconds : float;
      (** retry re-runs, backoff and hang timeouts, on the simulator's
          cost scale — the price of the retry policy *)
  burst_windows : int;  (** outage windows intersecting the run *)
  burst_samples : int;  (** samples falling inside a burst window *)
  burst_faults : int;  (** faults injected while in the burst state *)
  breaker_trips : int;
      (** circuit-breaker trips ({!Robust.Retry}); always 0 under the
          fixed retry policy of {!run_robust} *)
}

val report_summary : run_report -> string
(** One-line human-readable summary of a run report; burst windows and
    breaker trips are appended only when present, so fault-free and
    burst-free summaries are unchanged. *)

type attempt_outcome = {
  injected : fault_kind option;  (** the fault drawn, if any *)
  returned : float array option;
      (** the values the attempt produced, one per output — possibly
          non-finite (injected NaN/Inf or genuine evaluator divergence),
          possibly corrupted (outlier); [None] for crash/hang attempts *)
  hang_s : float;  (** accounted hang timeout charged by this attempt *)
}

(** {2 The delivery engine}

    One batch run, whatever the retry policy: {!run_batch} draws the
    points and the per-sample fault streams, hands them to the policy's
    walk, which runs each sample through {!attempt_sample}, and then
    assembles the datasets and the report. {!run_robust_multi} (fixed
    policy, samples fanned out over a pool) and {!Robust.Retry.run}
    (adaptive policy, one sequential walk) are its two walks. *)

type tally
(** Mutable fault and retry counters of one sample (fixed policy) or of
    a whole sequential walk (adaptive policy). *)

val tally : unit -> tally
(** A fresh all-zero tally. *)

type batch = {
  b_points : Linalg.Vec.t array;
      (** the [k] sample points, drawn sequentially from the caller's
          generator exactly as in {!run} *)
  b_streams : Randkit.Prng.t array;
      (** per-sample fault streams, split from [fault_seed] by sample
          index before any evaluation ({!Randkit.Prng.split_n}) *)
  b_burst : bool array;  (** {!burst_states} of the run *)
}

val attempt_sample :
  fault_plan ->
  batch ->
  tally ->
  int ->
  evals:(unit -> float) array ->
  retry_cost:float ->
  allowed:int ->
  grant:(int -> float) ->
  float array option
(** [attempt_sample plan b st i ~evals ~retry_cost ~allowed ~grant] is
    the per-sample retry loop for sample [i]: up to [allowed] attempts,
    each one draw on [b.b_streams.(i)]: the fault rate and mix switch to
    the burst model's when [b.b_burst.(i)], and each of [evals] is
    invoked at most once per attempt, only when the attempt produces
    values (clean return or finite outlier garbage; an outlier corrupts
    every output with the same drawn sign). No draw depends on
    evaluator values, so a sample's fault history is a pure function of
    its stream whatever the number of outputs; both the fixed policy
    ({!run_robust_multi}) and the adaptive {!Robust.Retry} driver run
    every attempt through this loop. Before attempt [a >= 2]
    it asks [grant a] for the accounted backoff. A retry counts in [st]
    and charges that backoff plus [retry_cost] (the re-run of every
    simulation), hangs charge their timeout. Returns the delivered values — every output finite — or
    [None] when the sample is abandoned. Injected outliers are finite
    and are delivered. *)

val run_batch :
  noise_rel:float ->
  faults:fault_plan ->
  t array ->
  Randkit.Prng.t ->
  k:int ->
  (batch -> float array option array * tally array) ->
  dataset array * run_report
(** [run_batch ~noise_rel ~faults sims g ~k walk] draws the batch,
    runs [walk] over it — which returns each sample's delivered values
    ({!attempt_sample}) and the tallies to sum, in order — and
    assembles one dataset per simulator over the delivered rows (the
    point array physically shared) plus the run report
    ([breaker_trips = 0]). [noise_rel] noise is drawn per output in
    output order from [g], after the walk, on the delivered rows only.

    Determinism: the points are drawn sequentially from [g] exactly as
    in {!run}, and each sample's fault decisions come from its own
    pre-split stream, so as long as [walk] decides each sample from its
    stream alone (or walks the samples in index order) the datasets and
    report are bitwise identical with and without a pool, at every
    domain count.
    @raise Invalid_argument when [sims] is empty, the simulators
    disagree on [dim], or [k <= 0]. *)

val run_robust :
  ?noise_rel:float ->
  ?pool:Parallel.Pool.t ->
  ?faults:fault_plan ->
  ?retry:retry_policy ->
  t ->
  Randkit.Prng.t ->
  k:int ->
  dataset * run_report
(** [run_robust sim g ~k] is {!run} hardened against failure, the
    one-simulator case of {!run_robust_multi}: each sample is attempted
    up to [retry.max_attempts] times; non-finite results (injected by
    [faults] {e or} produced by the evaluator itself) and transient/hang
    faults are retried; samples still failing are dropped from the
    dataset and recorded in [report.failed]. Injected outliers are
    finite and pass through — screening them is the job of
    [Robust.Screen]. Determinism is {!run_batch}'s; with [faults =
    no_faults] and a clean evaluator the dataset is bitwise identical
    to {!run}'s.
    @raise Invalid_argument when [k <= 0]. *)

val run_robust_multi :
  ?noise_rel:float ->
  ?pool:Parallel.Pool.t ->
  ?faults:fault_plan ->
  ?retry:retry_policy ->
  t array ->
  Randkit.Prng.t ->
  k:int ->
  dataset array * run_report
(** [run_robust_multi sims g ~k] is {!run_batch} under the fixed retry
    policy, for R performance metrics of one circuit: the Monte-Carlo
    points are drawn {e once} and every simulator is evaluated at each
    of them, so the R datasets share one point set (the arrays are
    physically shared) and one fault/retry history — a sample is
    delivered only when {e every} output came back finite, giving all
    outputs identical kept rows and hence one design matrix downstream.
    Each sample's retry loop is independent of the others', so the
    samples fan out over [?pool].

    Because no draw depends on evaluator values, as long as the
    evaluators themselves only return finite values, output [r]'s
    dataset is bitwise identical to [run_robust sims.(r)] run with a
    {!Randkit.Prng.copy} of [g] — the per-output parity the fused
    multi-output fit relies on. An evaluator genuinely diverging on one
    output drops that sample for {e all} outputs, which a per-output run
    would not.

    The single report counts each injected fault and retry once (not
    once per output); a retry re-runs all R simulations and is charged
    their summed [seconds_per_sample]. [noise_rel] noise is drawn per
    output in output order from [g], so each metric's observation noise
    is independent.
    @raise Invalid_argument when [sims] is empty, the simulators
    disagree on [dim], or [k <= 0]. *)

val simulated_cost : t -> k:int -> float
(** [k · seconds_per_sample]: the simulation cost a real flow would pay. *)

val dataset_size : dataset -> int

val split : dataset -> int array -> dataset
(** [split d idx] is the sub-dataset at the given indices (points are
    shared, not copied). *)

val points_matrix : dataset -> Linalg.Mat.t
(** Stack the factor vectors as rows of a [K×dim] matrix. *)
