(** Basis sets: ordered collections of orthonormal Hermite terms.

    A basis fixes the dictionary [{g_m}] of eq. (1): the candidate
    functions from which the sparse solvers select. Standard
    constructions cover the paper's two model classes — linear
    ([1 + N] functions) and quadratic ([1 + 2N + N(N−1)/2] functions,
    i.e. constant, linear, squares, and pairwise cross terms; this is
    the "N-dimensional quadratic coefficient matrix" counted as
    [N(N+1)/2 + N + 1] coefficients in the paper, e.g. 20 301 for
    N = 200). *)

type t = private { dim : int; terms : Term.t array }

val create : int -> Term.t array -> t
(** [create dim terms] validates that every term fits in [dim]
    variables; terms keep the given order (the solvers report selected
    indices into it). *)

val size : t -> int
(** Number of basis functions [M]. *)

val dim : t -> int
(** Number of independent factors [N]. *)

val term : t -> int -> Term.t

val constant_linear : int -> t
(** [constant_linear n]: [1, Δy₀, …, Δy_{n−1}] — [n + 1] functions. *)

val linear_only : int -> t
(** [linear_only n]: the [n] linear terms without the constant (for
    centered responses). *)

val quadratic : int -> t
(** [quadratic n]: constant, linear, squares, and cross terms, graded
    order — [1 + 2n + n(n−1)/2] functions. *)

val quadratic_subset : dim:int -> int array -> t
(** [quadratic_subset ~dim vars] is the quadratic basis over the listed
    variable subset only, embedded in a [dim]-dimensional factor space.
    This is the paper's Section V-A.2 construction: quadratic modeling
    over the 200 most important parameters of a 630-dimensional space.
    @raise Invalid_argument on duplicate or out-of-range variables. *)

val total_degree : int -> int -> t
(** [total_degree n d]: all terms of total degree ≤ [d] over [n]
    variables, graded-lexicographic order. Sizes grow as C(n+d, d);
    intended for small [n]. *)

val embed : t -> int array -> dim:int -> t
(** [embed b vars ~dim] re-targets a basis built over local variables
    [0 … Basis.dim b − 1] onto the global factors [vars] inside a
    [dim]-dimensional space (local variable [i] becomes [vars.(i)]).
    Composing [total_degree s d] with [embed] gives degree-[d] models
    over an important-parameter subset — the cubic extension of the
    paper's Section V-A.2 flow.
    @raise Invalid_argument on length mismatch, duplicates or
    out-of-range targets. *)

val max_degree : t -> int
(** Largest total degree among the terms. *)

val eval_point : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [eval_point b dy] is the design-matrix row
    [| g₀(dy); …; g_{M−1}(dy) |]. Hermite values are computed once per
    variable per degree, then shared across terms. *)

val quadratic_size : int -> int
(** [quadratic_size n] = [1 + 2n + n(n−1)/2], without building it. *)

val fill_tables : t -> float array array -> Linalg.Vec.t -> unit
(** [fill_tables b tbl dy] fills [tbl] with the Hermite values of the
    point [dy] by the three-term recurrence. *)

val pp : Format.formatter -> t -> unit
