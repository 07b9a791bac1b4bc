(** The standard normal distribution (pdf / cdf / quantile) and
    Gaussian-model helpers.

    Once a response-surface model is fitted, performance distributions
    and parametric yield are evaluated analytically or by cheap model
    Monte Carlo (the use case motivating RSM in the paper's
    introduction, and the APEX line of work it cites as [8]). These are
    the numerical primitives for that. *)

val pdf : float -> float
(** Standard normal density φ(x). *)

val cdf : float -> float
(** Standard normal distribution function Φ(x), via a Chebyshev-fit
    [erfc]; relative error below 1.2e-7. *)

val quantile : float -> float
(** Inverse of {!cdf}: Acklam's rational approximation
    ({!Randkit.Lhs.normal_quantile}) with one Newton polish step;
    relative error < 1e-9.
    @raise Invalid_argument outside (0, 1). *)

val gaussian_yield : mean:float -> sigma:float -> lower:float -> upper:float -> float
(** P(lower ≤ X ≤ upper) for X ~ N(mean, sigma²). Use
    [neg_infinity]/[infinity] for one-sided specs. *)

val sigma_to_yield : float -> float
(** [sigma_to_yield k] = P(|Z| ≤ k): the two-sided "k-sigma" yield
    (e.g. 3 → 99.73%). *)
