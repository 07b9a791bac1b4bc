(** Goodness-of-fit: Kolmogorov–Smirnov distances.

    The tests' check that a sampler's output matches its distribution,
    more sharply than a binned χ². *)

val ks_two_sample : float array -> float array -> float
(** Two-sample KS statistic: the sup-distance between the empirical
    CDFs. In [[0, 1]]; 0 for identical samples.
    @raise Invalid_argument on empty input. *)

val ks_normal : mean:float -> sigma:float -> float array -> float
(** One-sample KS distance to N(mean, sigma²).
    @raise Invalid_argument when [sigma <= 0] or the data is empty. *)

val ks_critical : alpha:float -> n1:int -> n2:int -> float
(** Asymptotic two-sample critical value
    [c(α)·√((n₁+n₂)/(n₁·n₂))] with [c(α) = √(−ln(α/2)/2)] — reject
    equality when the statistic exceeds it.
    @raise Invalid_argument when [alpha] outside (0, 1). *)
