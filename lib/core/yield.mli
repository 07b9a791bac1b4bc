(** Parametric-yield specs and the closed-form estimator.

    The downstream use of RSM the paper's introduction motivates: once
    [f(ΔY)] is an analytic model, performance distributions and yield
    come from cheap model evaluations instead of transistor-level
    simulation. This module holds the acceptance window ({!spec},
    {!passes}) and {!gaussian}, exact for {e linear} models — a linear
    combination of standard normals is N(α₀, Σα²).

    Model Monte Carlo, for any model (e.g. quadratic), is
    [Serve.Stream]: [estimate] scores streamed draws through the
    compiled instruction tape against a {!spec} (yield with a binomial
    standard error, pass count, moments), and [values] returns the raw
    model samples for histograms and quantiles. See SERVING.md. *)

type spec = { lower : float; upper : float }
(** Acceptance window; use [neg_infinity]/[infinity] for one-sided
    specs. *)

val spec_both : lower:float -> upper:float -> spec

val spec_min : float -> spec
(** Lower-bounded spec ("gain ≥ 60 dB"). *)

val spec_max : float -> spec
(** Upper-bounded spec ("delay ≤ 1 ns"). *)

val gaussian : Model.t -> Polybasis.Basis.t -> spec -> float
(** Closed-form yield assuming the model is linear in the factors.
    @raise Invalid_argument if the model contains any term of degree
    ≥ 2 (the Gaussian assumption would be wrong — use model Monte
    Carlo, [Serve.Stream.estimate]). *)

val passes : spec -> float -> bool
