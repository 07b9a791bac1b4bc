(** STAR — statistical regression (Li & Liu, DAC 2008; reference [1] of
    the paper).

    STAR shares OMP's selection criterion — pick the basis vector whose
    inner product with the residual is largest — but {e skips the
    least-squares re-fit}: the coefficient of the newly selected basis
    function is set directly to the inner-product estimate
    [ξ_s = (1/K)·G_sᵀ·Res] of eq. (18) (a plain matching pursuit).
    Previously assigned coefficients are never revisited. The paper's
    Section V attributes OMP's 1.5–5× accuracy edge precisely to this
    difference, which the A1 ablation bench isolates.

    Consumes a {!Polybasis.Design.Provider} ([_p] variants): dense and
    matrix-free runs are bitwise identical. Selected columns are cached
    (K floats each) for the coefficient estimate and residual update. *)

type step = {
  index : int;
  coefficient : float;  (** the inner-product estimate used as α_s *)
  residual_norm : float;
  model : Model.t;
}

(** STAR's engine for the shared greedy driver ({!Greedy.ENGINE}): each
    {!Engine.advance} takes the matching-pursuit coefficient from the
    current residual. *)
module Engine : sig
  include Greedy.ENGINE with type step = step

  val create :
    ?tol:float ->
    Polybasis.Design.Provider.t ->
    Linalg.Vec.t ->
    max_lambda:int ->
    t
  (** Same validation and defaults as {!path_p}. *)
end

val path_p :
  ?tol:float ->
  ?pool:Parallel.Pool.t ->
  ?log:Serialize.Checkpoint.log ->
  ?shards:Shard_sweep.plan ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  max_lambda:int ->
  step array
(** {!Greedy.path_p} driving {!Engine} — the driver {!Omp.path_p} runs
    too, with the same contract and solver tag ["star"]: one record per
    iteration, early stop on vanishing correlation, the walk log
    ({!Serialize.Checkpoint.t}) storing the selection order (a resume
    replays the matching-pursuit coefficient and residual updates from
    the provider and checks the replay's digests), and bitwise
    identical results for every domain count, provider form and shard
    count. [max_lambda] may not exceed [M] (there is no LS system to
    keep over-determined, so [K] is not a bound). *)

val fit_p :
  ?tol:float ->
  ?pool:Parallel.Pool.t ->
  ?log:Serialize.Checkpoint.log ->
  ?shards:Shard_sweep.plan ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  lambda:int ->
  Model.t
(** The model after the last path step. *)

val fit :
  ?tol:float -> ?pool:Parallel.Pool.t -> Linalg.Mat.t -> Linalg.Vec.t ->
  lambda:int -> Model.t
(** {!fit_p} over [Provider.dense g]. *)
