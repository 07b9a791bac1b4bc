(** Worst-case corner extraction from fitted models.

    Classical worst-case analysis (the paper's reference [6]) asks: at a
    given process "radius" (k-sigma ball in the independent factor
    space), what is the worst value a performance can take, and at which
    corner? For a {e linear} Hermite model [f = α₀ + Σ αᵢ·Δyᵢ] the
    answer is closed-form: the extremum over [‖ΔY‖₂ ≤ k] lies at
    [ΔY = ±k·α/‖α‖] with value [α₀ ± k·‖α‖].

    The extracted corner is an actual factor vector — it can be handed
    back to the simulator substrate for verification, which is exactly
    how corner files are used in a real flow. *)

type extremum = { value : float; corner : Linalg.Vec.t }

val linear_worst :
  Model.t -> Polybasis.Basis.t -> sigma:float -> maximize:bool -> extremum
(** Closed-form extremum of a linear model over the [sigma]-radius ball.
    @raise Invalid_argument when the model has terms of degree ≥ 2 or
    [sigma < 0]. *)
