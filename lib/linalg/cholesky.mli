(** Cholesky factorization of symmetric positive-definite matrices, plus the
    incremental "growing factor" used by the greedy regression solvers.

    [factor a] computes the lower-triangular [L] with [A = L·Lᵀ]. The
    incremental API maintains [L] for the Gram matrix of a column set that
    grows one column per OMP/LARS iteration: appending a column costs
    O(k²) instead of refactorizing at O(k³). *)

exception Not_positive_definite of int
(** Raised (with the offending pivot row) when the matrix is not
    numerically positive definite. *)

val factor : Mat.t -> Mat.t
(** [factor a] is the lower Cholesky factor of the SPD matrix [a].
    Only the lower triangle of [a] is read.
    @raise Not_positive_definite if a pivot is not strictly positive. *)

val solve : Mat.t -> Vec.t -> Vec.t
(** [solve l b] solves [L·Lᵀ·x = b] given a precomputed factor [l]. *)

val spd_solve : Mat.t -> Vec.t -> Vec.t
(** [spd_solve a b] factors [a] and solves [a·x = b]. *)

val quad_forms : Mat.t -> Vec.t array -> float array
(** [quad_forms l zs] is the quadratic form [zᵀ·(L·Lᵀ)⁻¹·z] of every
    [z] in [zs], each bit for bit equal to [Vec.dot z (solve l z)]. It
    solves a block of right-hand sides per pass over [l], reading the
    back substitution from a transposed copy, so both passes stream
    contiguous rows instead of walking a column of [l] per element.
    @raise Tri.Singular at the pivot [solve] would stop at.
    @raise Invalid_argument if [l] is not square or a [z] has the wrong
    length. *)

val log_det : Mat.t -> float
(** [log_det l] is [log det(L·Lᵀ) = 2·Σ log lᵢᵢ] for a factor [l]. *)

(** Growing Cholesky factor for an expanding SPD Gram matrix. *)
module Grow : sig
  type t

  val create : int -> t
  (** [create cap] allocates a factor able to grow to size [cap]. *)

  val size : t -> int
  (** Current dimension [k]. *)

  val append : t -> Vec.t -> float -> unit
  (** [append g v d] extends the factored matrix from [k×k] to
      [(k+1)×(k+1)] where [v] (length [k]) is the new off-diagonal block
      of the underlying SPD matrix and [d] its new diagonal entry.
      @raise Not_positive_definite if the extended matrix is not SPD.
      @raise Invalid_argument when capacity is exceeded. *)

  val solve : t -> Vec.t -> Vec.t
  (** [solve g b] solves [A·x = b] for the current [k×k] factored matrix. *)

  val remove_last : t -> unit
  (** [remove_last g] shrinks the factor by one (drops the most recently
      appended column) — O(1); used for backtracking in cross-validation
      sweeps and for the lasso drop step in LARS. *)

  val downdate_row : t -> Vec.t -> unit
  (** [downdate_row g x] down-dates the factored matrix from [A] to
      [A − x·xᵀ] in place at O(k²) — the Gram-matrix effect of removing
      one sample row whose per-column entries are [x] (length [k]).
      Removing [d] rows this way costs O(d·k²) instead of the
      O(K·k² + k³) of refactorizing from the surviving rows, which is
      what lets screening run after a warm start at large K.
      @raise Not_positive_definite when the down-dated matrix is no
      longer SPD (e.g. too few rows remain); the factor is then
      partially modified and must be discarded.
      @raise Invalid_argument on a length mismatch. *)

  val factor_copy : t -> Mat.t
  (** Current [k×k] lower factor, as a fresh matrix (for tests). *)
end
