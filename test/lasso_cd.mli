(** Lasso by cyclic coordinate descent — a test oracle.

    Minimizes [½‖G·α − F‖₂² + λ_reg·‖α‖₁] by soft-thresholding one
    coordinate at a time. This is the "modern" route to the same L1
    relaxation that LAR traces path-wise; having both lets the tests
    check that the two agree at matched penalties (they solve the same
    convex program). *)

val fit :
  ?max_sweeps:int -> ?tol:float -> Linalg.Mat.t -> Linalg.Vec.t ->
  reg:float -> Rsm.Model.t
(** [fit g f ~reg] iterates full coordinate sweeps until the largest
    coefficient change in a sweep falls below [tol] (default 1e-8
    relative to the largest coefficient) or [max_sweeps] (default 1000).
    @raise Invalid_argument when [reg < 0]. *)

val max_reg : Linalg.Mat.t -> Linalg.Vec.t -> float
(** Smallest penalty for which the solution is identically zero:
    [max_j |G_jᵀ·F|]. Grids are usually geometric fractions of this. *)

val path :
  ?max_sweeps:int -> ?tol:float -> Linalg.Mat.t -> Linalg.Vec.t ->
  regs:float array -> Rsm.Model.t array
(** Warm-started solutions along a penalty grid (descending order is
    fastest, but any order is accepted). *)
