(** Triangular system solvers.

    Conventions: matrices are square [Mat.t]; "lower" solvers read only the
    lower triangle (including diagonal), "upper" solvers only the upper
    triangle. A zero (or near-zero) pivot raises [Singular]. *)

exception Singular of int
(** [Singular i] signals a (near-)zero diagonal pivot at row [i]. *)

val eps_pivot : float
(** [1e-300]: a pivot with [|d| < eps_pivot] raises [Singular]. Shared
    with the blocked solves in {!Cholesky.quad_forms}. *)

val solve_lower : Mat.t -> Vec.t -> Vec.t
(** [solve_lower l b] solves [L·x = b] by forward substitution. *)

val solve_upper : Mat.t -> Vec.t -> Vec.t
(** [solve_upper u b] solves [U·x = b] by back substitution. *)

val solve_lower_transposed : Mat.t -> Vec.t -> Vec.t
(** [solve_lower_transposed l b] solves [Lᵀ·x = b] reading the lower
    triangle of [l] only (back substitution on the implicit transpose). *)

val solve_lower_sub : Mat.t -> int -> Vec.t -> Vec.t
(** [solve_lower_sub l k b] solves the leading [k×k] system [L₍ₖ₎·x = b]
    where [b] has length [k]. Used by the incremental Cholesky in OMP and
    LARS, where the factor grows one row per iteration inside a
    pre-allocated matrix. *)

val solve_lower_transposed_sub : Mat.t -> int -> Vec.t -> Vec.t
(** [solve_lower_transposed_sub l k b] solves [L₍ₖ₎ᵀ·x = b] on the leading
    [k×k] block. *)
