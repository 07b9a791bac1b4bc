(** Orthogonal matching pursuit — Algorithm 1 of the paper.

    Given the underdetermined system [G·α = F], OMP iteratively selects
    the basis vector most correlated with the current residual
    (eq. (18)), re-solves the least-squares coefficients of {e all}
    selected vectors (Step 6, eq. (22)), and recomputes the residual
    (Step 7). Unselected coefficients are exactly zero (Step 9).

    The re-fit is done incrementally: the Cholesky factor of the
    selected-column Gram matrix grows by one row per iteration
    ([Linalg.Cholesky.Grow]), so iteration [p] costs
    O(K·M) for the correlation scan plus O(K·p + p²) for the re-fit —
    the correlation scan dominates, exactly as in the paper's complexity
    discussion.

    The solver consumes a {!Polybasis.Design.Provider} ([_p] variants),
    so it runs unchanged against a materialized matrix or the
    matrix-free Hermite-table generator — bitwise-identical paths either
    way. Active-set columns (cross products, re-fit residuals) are
    materialized once into a per-fit column cache: O(K·λ) extra memory,
    never O(K·M). *)

type step = {
  index : int;  (** basis selected at this iteration *)
  correlation : float;  (** |ξ| that won the selection *)
  residual_norm : float;  (** ‖Res‖₂ after the re-fit *)
  model : Model.t;  (** model after this iteration *)
}

(** OMP's engine for the shared greedy driver ({!Greedy.ENGINE}): each
    {!Engine.advance} grows the Gram factor and re-fits every selected
    coefficient. {!path_p} and the fused lockstep CV driver in {!Select}
    both drive it. *)
module Engine : sig
  include Greedy.ENGINE with type step = step

  val create :
    ?tol:float ->
    ?on_singular:[ `Stop | `Fallback ] ->
    Polybasis.Design.Provider.t ->
    Linalg.Vec.t ->
    max_lambda:int ->
    t
  (** Same validation and defaults as {!path_p}. *)
end

val path_p :
  ?tol:float ->
  ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?log:Serialize.Checkpoint.log ->
  ?shards:Shard_sweep.plan ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  max_lambda:int ->
  step array
(** [path_p src f ~max_lambda] runs up to [max_lambda] iterations and
    returns one step record per iteration. It is {!Greedy.path_p}
    driving {!Engine} — one driver for OMP and {!Star}, whose contract
    covers [log] (solver tag ["omp"]; a resume's replayed leading step
    has [correlation = 0]), [pool] and the [shards] plan. Stops
    early when the largest residual correlation falls below [tol]
    (default [1e-12]) relative to the initial one, or when the residual
    is numerically zero.

    [on_singular] decides what happens when the next selected column is
    linearly dependent on the active set (the incremental Gram factor
    raises {!Linalg.Cholesky.Not_positive_definite}): [`Stop] (default,
    the historical behavior) ends the path; [`Fallback] accepts the
    column and routes every further re-fit through the {!Refit}
    degradation ladder (Cholesky → QR → ridge jitter), recording the
    rung that fired in the step models' {!Model.notes}. Clean paths are
    bitwise unaffected by the choice.
    @raise Invalid_argument when [max_lambda] exceeds [min(K, M)] or is
    not positive, and as {!Greedy.path_p}. *)

val fit_p :
  ?tol:float ->
  ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?log:Serialize.Checkpoint.log ->
  ?shards:Shard_sweep.plan ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  lambda:int ->
  Model.t
(** [fit_p src f ~lambda] is the model after [lambda] iterations (fewer
    if the path stopped early; the last available model is returned). *)

val fit :
  ?tol:float -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] -> Linalg.Mat.t -> Linalg.Vec.t ->
  lambda:int -> Model.t
(** [fit g f ~lambda] is {!fit_p} over [Provider.dense g]. *)
