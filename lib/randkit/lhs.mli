(** Latin hypercube sampling of standard-normal factors.

    An alternative sampling plan to iid Monte Carlo: each of the [n]
    dimensions is stratified into [k] equal-probability slices, one
    sample per slice, with the slices randomly permuted per dimension.
    Marginals are near-perfectly uniform over the strata, which reduces
    the variance of the inner-product estimators (eq. (14)) that drive
    basis selection — the A1(g)-adjacent sampling ablation uses this to
    ask whether a smarter plan buys accuracy at equal K. *)

val gaussian_points : Prng.t -> k:int -> n:int -> Linalg.Vec.t array
(** [gaussian_points g ~k ~n] is [k] points in [n] dimensions whose
    marginals are stratified standard normal (the uniform stratum
    sample is pushed through the normal quantile).
    @raise Invalid_argument on non-positive [k] or [n]. *)

val normal_quantile : float -> float
(** Acklam's rational approximation of the standard-normal quantile
    Φ⁻¹(p) for [p] in (0, 1), relative error below 1.2e-9 — the
    transform {!gaussian_points} applies. {!Stat.Distribution.quantile}
    polishes it with one Newton step. *)
