(** Sample hygiene: screen a simulated dataset before the design matrix
    is built.

    Two screens run in order. The {e finiteness} screen drops rows whose
    factor point or response holds a NaN/Inf — those would poison every
    inner product downstream. The {e outlier} screen drops rows whose
    response sits implausibly far from the bulk, measured on the robust
    MAD scale: with [med] the median response and
    [sigma = 1.4826·MAD] (the consistency constant for a normal bulk),
    a row is dropped when [|f − med| > threshold·sigma]. The median/MAD
    pair keeps its breakdown point at 50%, so the screen stays honest
    even when the faults it hunts contaminate a large fraction of the
    batch — a plain mean/std screen would be dragged by exactly the
    outliers it is meant to find.

    Screening happens in value space, before any basis evaluation, so it
    works identically for Dense and Streamed design providers — by the
    time a provider exists, only clean rows are left. *)

type reason =
  | Non_finite_point  (** a factor coordinate is NaN/Inf *)
  | Non_finite_value  (** the response is NaN/Inf *)
  | Outlier of float  (** robust z-score that crossed the threshold *)
  | Far_point of float
      (** robust Mahalanobis distance that crossed the χ² threshold
          ({!mahalanobis}) *)

type report = {
  total : int;  (** rows examined *)
  kept : int array;  (** surviving row indices, ascending *)
  dropped : (int * reason) array;  (** dropped rows with the reason, ascending *)
  center : float;  (** median of the finite responses *)
  spread : float;  (** robust sigma = 1.4826·MAD of the finite responses *)
  threshold : float;  (** the z-score cut that was applied *)
}

val default_threshold : float
(** 6.0 — far beyond any Gaussian bulk, so clean data is essentially
    never clipped, while the injected [outlier_scale]-sized garbage sits
    tens of sigmas out. *)

val mad_consistency : float
(** 1.4826 ≈ 1/Φ⁻¹(3/4) — the factor that makes the MAD a consistent
    sigma estimate for a normal bulk. Exported so the residual rescreen
    in {!Pipeline} scores on exactly the same robust scale. *)

val screen :
  ?threshold:float ->
  Circuit.Simulator.dataset ->
  (Circuit.Simulator.dataset * report, Error.t) result
(** [screen d] returns the surviving sub-dataset (points shared, not
    copied — {!Circuit.Simulator.split}) and the hygiene report.

    Degenerate spread: when the MAD is zero (over half the responses
    identical) no finite row can be z-scored, so the outlier screen is
    skipped and only non-finite rows are dropped — reported with
    [spread = 0]. Two or fewer finite rows take the same stand-down:
    their MAD is not an outlier scale (two rows sit 0.674 robust sigma
    from their midpoint however far apart they are), so rather than
    silently passing everything the screen reports [spread = 0].

    When {e every} row is non-finite there is no bulk to center on;
    rather than handing back an empty kept set with a NaN center that
    poisons the downstream fit, the call returns
    [Error (Simulation _)] (exit-2 one-liner in the CLI).
    @raise Invalid_argument when [threshold <= 0] or the dataset is
    empty — caller bugs, not data conditions. *)

val report_summary : report -> string
(** One line: totals kept/dropped, with per-reason counts — the
    grep-able hygiene line the CLI prints. *)

(** {2 Point-space screen}

    The response screen cannot see a corrupted {e factor point} whose
    response happens to look plausible — yet such a point silently
    steers the LAR equiangular walk, because the design matrix is built
    from the points. The Mahalanobis screen is the complementary
    defense: it works in factor space and flags points implausibly far
    from the bulk under a robust estimate of its center and scatter. *)

type point_report = {
  p_total : int;  (** rows examined *)
  p_kept : int array;  (** surviving row indices, ascending *)
  p_dropped : (int * reason) array;
      (** dropped rows, ascending; far points carry their distance *)
  p_dim : int;  (** factor dimension the χ² threshold was sized for *)
  p_threshold : float;
      (** the distance cut: [√(χ²_dim(confidence))] — rows with robust
          distance above it are dropped *)
  p_shrinkage : float;
      (** the shrinkage weight γ at which the scatter factor succeeded;
          1 means the screen degraded to per-coordinate robust z-scores *)
}

val default_confidence : float
(** 0.999 — under a clean Gaussian bulk roughly one row in a thousand
    is clipped, while corrupted coordinates sit far outside. *)

val chi2_quantile : dof:int -> float -> float
(** [chi2_quantile ~dof p] is the χ² quantile: exact closed forms at
    [dof = 1] ([(Φ⁻¹((1+p)/2))²], i.e. the squared half-normal quantile)
    and [dof = 2] ([−2·ln(1−p)]), the Wilson–Hilferty cube approximation
    (within a few permil) at [dof >= 3]. Exported for tests and for
    sizing custom cuts. *)

val mahalanobis :
  ?confidence:float ->
  Circuit.Simulator.dataset ->
  (Circuit.Simulator.dataset * point_report, Error.t) result
(** [mahalanobis d] screens the factor points: robust center and scale
    per coordinate (median and [1.4826·MAD]; a spread-free coordinate
    falls back to raw deviations), then the covariance of the
    standardized rows shrunk toward the identity —
    [(1−γ)·S + γ·I] with γ escalating over a fixed ladder until the
    Cholesky factor exists (γ = 1 always does) — and a row is dropped
    when its robust distance exceeds [√(χ²_dim(confidence))].

    Verdicts are exactly invariant to sample order: every
    floating-point accumulation walks the rows in canonical
    (lexicographic point) order, and each row's distance depends only
    on the row and the canonical statistics.

    Degenerate cases mirror {!screen}: ≤2 finite rows stand down to
    finiteness-only screening (reported with [p_shrinkage = 1]); a
    dataset with {e no} finite row returns [Error (Simulation _)].
    @raise Invalid_argument when [confidence] is outside (0, 1) or the
    dataset is empty. *)

val point_report_summary : point_report -> string
(** One line: totals kept/dropped with non-finite/far counts, the
    dimension, distance threshold, and shrinkage used. *)
