(** Unified solver front-end: the four techniques compared throughout
    the paper's Section V, behind one dispatch type. The benches,
    examples and CLI all go through this module so that every experiment
    treats the methods symmetrically. *)

type method_ =
  | Ls  (** least-squares fitting [21] — needs K ≥ M *)
  | Star  (** statistical regression, DAC 2008 [1] *)
  | Lar  (** least angle regression, DAC 2009 [2] *)
  | Lasso  (** LARS with the lasso modification (extension) *)
  | Omp  (** orthogonal matching pursuit (the TCAD paper's method) *)
  | Stomp  (** stagewise OMP (extension) *)
  | Cosamp  (** CoSaMP with support pruning (extension) *)

val all : method_ list
(** The paper's four, in table order: [Ls; Star; Lar; Omp]. *)

val name : method_ -> string

val of_name : string -> method_ option
(** Case-insensitive parse of [name]; ["lar"], ["lars"], ["lasso"],
    ["stomp"] and ["cosamp"] are all understood. *)

val needs_overdetermined : method_ -> bool
(** True only for [Ls]. *)

val path_method : method_ -> bool
(** True for the greedy path methods ([Star], [Lar], [Lasso], [Omp]):
    the ones with a λ path to cross-validate, checkpoint and fuse. *)

val check_sweep : method_ -> Corr_sweep.sweep -> (unit, string) result
(** [check_sweep m sweep] is {!Corr_sweep.lar_only}: [Error] for an
    [Incremental] sweep with any method but [Lar] and [Lasso], whose
    walk is the only one the Gram cache speeds up. {!fit_cv_p} and
    {!fit_multi_p} raise [Invalid_argument] on that [Error] before any
    fold work; [Robust.Pipeline.config] returns it typed. *)

val fit :
  ?lambda:int -> Linalg.Mat.t -> Linalg.Vec.t -> method_ -> Model.t
(** [fit g f m] with a fixed sparsity budget [lambda] (ignored by [Ls]).
    Default [lambda] is [min(K, M)/2] — prefer {!fit_cv} in real use.
    @raise Invalid_argument when [Ls] is asked to fit an
    underdetermined system. *)

val fit_cv :
  ?folds:int -> ?max_lambda:int -> Randkit.Prng.t -> Linalg.Mat.t ->
  Linalg.Vec.t -> method_ -> Model.t
(** Cross-validated fit: sparsity chosen per Section IV-C for the path
    methods; plain LS for [Ls] (λ is meaningless there). Default
    [max_lambda] is [min(K/2, M, 200)]. *)

val fit_cv_p :
  ?folds:int -> ?max_lambda:int -> ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?cv_checkpoint:string -> ?cv_resume:bool -> ?notes:string array ->
  Randkit.Prng.t ->
  Polybasis.Design.Provider.t -> Linalg.Vec.t -> method_ -> Model.t
(** {!fit_cv} over a design provider. The greedy path methods (STAR,
    LAR, LASSO, OMP) run fully matrix-free on a streamed provider,
    bitwise matching the dense run; [Ls], [Stomp] and [Cosamp]
    materialize the matrix (free when the provider is dense).

    [on_singular] selects the degenerate-Gram policy for the OMP and
    LAR/LASSO fits (see {!Omp.path_p} and {!Lars.path_p}); [`Fallback]
    routes singular active-set re-fits through the {!Refit} ladder
    instead of stopping, recording the rung in {!Model.notes}. Ignored
    by the other methods.

    [sweep] selects the correlation engine (default
    {!Corr_sweep.Exact}) of the LAR/LASSO walk, forwarded to
    {!Select.lars_p}; the CV fold driver follows {!Select.fused_driver}.
    Every other method sweeps exactly and raises [Invalid_argument] on
    an [Incremental] sweep ({!check_sweep}).

    [shards]/[shard_mode]/[recovered] route the path methods' selection
    sweeps through the column-sharded engine ({!Shard_sweep}, see
    {!Select.omp_p}): selections stay bitwise identical to the
    unsharded run at every shard count. Ignored by
    [Ls]/[Stomp]/[Cosamp].

    [cv_checkpoint]/[cv_resume] enable per-fold CV checkpointing for the
    path methods (STAR, LAR, LASSO, OMP) — see {!Select.omp_p}.
    Ignored by [Ls]/[Stomp]/[Cosamp], which have no λ sweep to
    checkpoint.

    [notes] are provenance lines appended to the fitted model's
    {!Model.notes} (deduplicated by {!Model.add_note}) — how the
    pipeline records a quorum-degraded delivery on the artifact itself,
    so the note survives serialization and serving. *)

val fit_multi_p :
  ?folds:int -> ?max_lambda:int -> ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?cv_checkpoint:string -> ?cv_resume:bool -> ?notes:string array array ->
  Randkit.Prng.t ->
  Polybasis.Design.Provider.t -> Linalg.Vec.t array -> method_ ->
  Model.t array
(** [fit_multi_p rng src fs m] fits one model per response in [fs] over
    the shared design — the multi-output extension of {!fit_cv_p}, one
    model per output in order.

    A path method runs one grid of outputs×folds cells
    ({!Select.omp_multi_p}, {!Select.star_multi_p},
    {!Select.lars_multi_p}) on the driver {!Select.fused_driver} picks
    for the provider's form, [sweep] and [shards] — the rule
    single-output CV follows. Non-path methods ([Ls]/[Stomp]/[Cosamp]) fit output at
    a time: output 0 on [rng], the others on {!Randkit.Prng.copy}s of
    it taken first. Either way output [r]'s model is bitwise the
    {!fit_cv_p} model for [fs.(r)] from the same generator state, at
    every domain count and in both provider forms, and [rng] ends where
    that one {!fit_cv_p} call leaves it.

    [cv_checkpoint = base] checkpoints cell [(r, q)] at
    {!Serialize.Checkpoint.Cell.file}[ base ~outputs r q] in either
    driver, so a run interrupted in one driver — say a streamed fit —
    resumes bitwise in the other, as a dense fit.

    [notes] supplies one provenance-note array per output.
    @raise Invalid_argument when {!check_sweep} rejects [sweep], [fs]
    is empty or [notes] disagrees in length, before any fitting. *)
