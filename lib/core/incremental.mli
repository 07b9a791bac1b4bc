(** Adaptive sample allocation: grow the training set until the
    cross-validated model stops improving.

    The paper fixes the training-set size per experiment; in practice a
    designer wants the {e smallest} simulation budget that reaches
    stable accuracy, because every extra sample is a Spectre run. This
    driver doubles the training set, refits with cross-validated
    sparsity, and stops at the first round whose relative improvement
    of the CV error falls below a tolerance — an automated version of
    reading Fig. 4's flattening curves. *)

type round = {
  samples : int;  (** training-set size this round *)
  cv_error : float;  (** cross-validated error at the chosen λ *)
  lambda : int;
  model : Model.t;
}

type result = {
  rounds : round array;  (** one entry per refit, increasing sample count *)
  final : Model.t;
  converged : bool;  (** false when [max_samples] was exhausted first *)
}

val run :
  ?initial:int -> ?tol:float -> ?max_lambda:int -> ?folds:int ->
  max_samples:int ->
  sample:(int -> Linalg.Mat.t * Linalg.Vec.t) ->
  Randkit.Prng.t -> result
(** [run ~max_samples ~sample rng] drives the loop. [sample k] must
    return the design matrix and responses of the {e first} [k]
    training points (prefixes of one growing sample stream, so earlier
    simulations are reused — the caller typically wraps
    [Mat.select_rows] over a lazily-extended dataset).

    Each round doubles the training set, capped at [max_samples].
    Defaults: [initial = 50], [tol = 0.05] (5% relative improvement),
    [max_lambda = 100], [folds = 4].
    @raise Invalid_argument on a non-positive [initial], a negative
    [tol], or [initial > max_samples]. *)
