(** FISTA — fast iterative shrinkage-thresholding (Beck & Teboulle 2009)
    — a third route to the lasso, kept as a test oracle.

    Minimizes [½‖G·α − F‖₂² + reg·‖α‖₁] by accelerated proximal
    gradient: gradient steps of size [1/L] (L the largest eigenvalue of
    [GᵀG], estimated by power iteration) followed by soft-thresholding,
    with Nesterov momentum. Converges at O(1/k²) versus coordinate
    descent's problem-dependent rate; because both solve the same
    strictly convex-in-the-fit program, their solutions must agree —
    which the test suite checks, giving three mutually-verifying lasso
    implementations (lasso-LARS, CD, FISTA). *)

val lipschitz : ?iters:int -> Linalg.Mat.t -> float
(** Largest eigenvalue of [GᵀG] by power iteration ([iters] default 50)
    — the gradient Lipschitz constant. *)

val fit :
  ?max_iters:int -> ?tol:float -> Linalg.Mat.t -> Linalg.Vec.t ->
  reg:float -> Rsm.Model.t
(** [fit g f ~reg] runs until the relative change of the objective
    falls below [tol] (default 1e-10) or [max_iters] (default 2000).
    @raise Invalid_argument when [reg < 0]. *)

val objective : Linalg.Mat.t -> Linalg.Vec.t -> reg:float -> Rsm.Model.t -> float
(** The lasso objective value of a model — for convergence checks. *)
