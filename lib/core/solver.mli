(** Unified solver front-end: the four techniques compared throughout
    the paper's Section V, plus lasso as LAR's modification, behind one
    dispatch type. The benches, examples and CLI all go through this
    module so that every experiment treats the methods symmetrically. *)

type method_ =
  | Ls  (** least-squares fitting [21] — needs K ≥ M *)
  | Star  (** statistical regression, DAC 2008 [1] *)
  | Lar  (** least angle regression, DAC 2009 [2] *)
  | Lasso  (** LARS with the lasso modification (extension) *)
  | Omp  (** orthogonal matching pursuit (the TCAD paper's method) *)

val all : method_ list
(** The paper's four, in table order: [Ls; Star; Lar; Omp]. *)

val methods : method_ list
(** Every method {!of_name} parses: {!all}, then [Lasso]. The CLI
    derives its [--method] doc and [rsm info]'s list from it. *)

val name : method_ -> string
(** The display name: ["LS"], ["STAR"], ["LAR"], ["LASSO"], ["OMP"]. *)

val cli_name : method_ -> string
(** The lowercase name the CLI documents: ["ls"], ["star"], ["lar"],
    ["lasso"], ["omp"]. *)

val of_name : string -> method_ option
(** Case-insensitive parse of {!cli_name}, plus the aliases
    ["least-squares"] and ["lars"]; [None] for anything else. *)

val needs_overdetermined : method_ -> bool
(** True only for [Ls]. *)

val path_method : method_ -> bool
(** True for the greedy path methods ([Star], [Lar], [Lasso], [Omp]):
    the ones with a λ path to cross-validate, checkpoint and fuse. *)

(** {2 Engine values}

    The path methods take the same engine values as the solvers they
    dispatch to, and [Ls] ignores them:
    - [shards], the shard plan ({!type:Shard_sweep.plan}): the selection
      sweeps run column-sharded, bitwise identical to the unsharded run
      at every shard count, and the plan counts worker recoveries;
    - [log], the walk log of a fixed-λ fit
      ({!type:Serialize.Checkpoint.log}, see {!Greedy.path_p} and
      {!Lars.path_p});
    - [store], the CV cell store of a cross-validated fit
      ({!type:Select.store}): a run interrupted in one CV driver — say a
      streamed fit — resumes bitwise in the other, as a dense fit.

    [on_singular] selects the degenerate-Gram policy for the OMP and
    LAR/LASSO fits (see {!Omp.path_p} and {!Lars.path_p}); [`Fallback]
    routes singular active-set re-fits through the {!Refit} ladder
    instead of stopping, recording the rung in {!Model.notes}; it is
    ignored by [Ls]. *)

val fit_p :
  ?lambda:int -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?log:Serialize.Checkpoint.log -> ?shards:Shard_sweep.plan ->
  Polybasis.Design.Provider.t -> Linalg.Vec.t -> method_ -> Model.t
(** [fit_p src f m] with a fixed sparsity budget [lambda] (ignored by
    [Ls]; OMP caps it at [min(K, M)]): {!Omp.fit_p}, {!Star.fit_p} or
    {!Lars.fit_p} for the path methods, which run matrix-free on a
    streamed provider; [Ls] materializes the matrix. Default [lambda]
    is [min(K, M)/2] — prefer {!fit_cv_p} in real use.
    @raise Invalid_argument when [Ls] is asked to fit an
    underdetermined system. *)

type selected = {
  model : Model.t;
  lambda : (int * int) option;
      (** a path method's cross-validated choice [Some (λ, cap)], [cap]
          being its λ grid's last value — the CV curve's length,
          [min(max_lambda, M)] and, for OMP and LAR, the smallest
          fold's training rows; [λ = cap] means the choice sat at the
          cap. [None] for the other methods. *)
}

val select_multi_p :
  ?folds:int -> ?max_lambda:int -> ?on_singular:[ `Stop | `Fallback ] ->
  ?shards:Shard_sweep.plan -> ?store:Select.store ->
  Randkit.Prng.t ->
  Polybasis.Design.Provider.t -> Linalg.Vec.t array -> method_ ->
  selected array
(** [select_multi_p rng src fs m] fits one cross-validated model per
    response in [fs] over the shared design, in order, with each
    output's cross-validated λ and its grid's cap: sparsity chosen per
    Section IV-C for the path methods, plain LS for [Ls] (λ is
    meaningless there). Default [max_lambda] is [min(K/2, M, 200)].

    A path method runs one grid of outputs×folds cells
    ({!Select.omp_multi_p}, {!Select.star_multi_p},
    {!Select.lars_multi_p}) on the driver {!Select.fused_driver} picks
    for the provider's form and [shards], fully matrix-free on
    a streamed provider and bitwise matching the dense run.
    [Ls] materializes the matrix (free when the provider is dense),
    fits each output on it and draws nothing from [rng]. Either way
    output [r]'s model is bitwise the {!fit_cv_p} model for [fs.(r)]
    from the same generator state, at every domain count and in both
    provider forms, and [rng] ends where that one {!fit_cv_p} call
    leaves it.
    @raise Invalid_argument when [fs] is empty, before any fitting. *)

val fit_cv_p :
  ?folds:int -> ?max_lambda:int -> ?on_singular:[ `Stop | `Fallback ] ->
  ?shards:Shard_sweep.plan -> ?store:Select.store ->
  Randkit.Prng.t ->
  Polybasis.Design.Provider.t -> Linalg.Vec.t -> method_ -> Model.t
(** The model of {!select_multi_p} at R = 1. *)

val fit_cv :
  ?folds:int -> ?max_lambda:int -> Randkit.Prng.t -> Linalg.Mat.t ->
  Linalg.Vec.t -> method_ -> Model.t
(** {!fit_cv_p} over [Provider.dense g]. *)
