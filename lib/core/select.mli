(** Cross-validated choice of the sparsity level λ (Section IV-C).

    For each fold, the solver's whole path (λ = 1 … max_lambda) is fit
    on the training groups and scored on the held-out group, giving the
    per-run error {e function} ε_q(λ); the averaged curve ε(λ) is
    minimized over λ and the winning λ is refit on the full data — the
    exact procedure of Fig. 2 and the surrounding text.

    The [_p] variants consume a {!Polybasis.Design.Provider}, so the
    whole CV loop runs matrix-free: fold providers are row-subset
    rebuilds (no K×M gather), held-out scoring streams only the support
    columns. Dense and matrix-free runs select the same λ and model,
    bit for bit.

    {2 Parallelism and determinism}

    The Q fold fits are independent and run fold-parallel over [?pool]
    (default: {!Parallel.Pool.default}); the underlying solvers also
    parallelize their own Gᵀ·r correlation sweeps over the same pool.
    Each fold receives its own PRNG stream, split from the master
    generator {e in fold order before any fold runs}
    ({!Randkit.Prng.split_n}), and the fold curves are averaged in fold
    order after all folds complete. The selected λ, the curve and the
    refit model are therefore bitwise identical to a sequential run for
    a fixed seed, at {e every} domain count. *)

type rule =
  | Min_error  (** λ at the minimum of ε(λ) — the paper's choice *)
  | One_se
      (** the smallest λ whose ε(λ) is within one fold-to-fold standard
          error of the minimum — the classic parsimony-biased variant
          (Hastie et al. §7.10); picks visibly sparser models when the
          CV curve has a flat valley *)

type result = {
  model : Model.t;  (** refit on all data at the chosen λ *)
  lambda : int;  (** chosen sparsity level (1-based) *)
  curve : float array;  (** ε(λ) for λ = 1 … max_lambda *)
}

val fused_driver :
  streamed:bool -> sweep:Corr_sweep.sweep -> shards:int -> bool
(** The one CV-driver rule. A path selector runs the {e fused lockstep}
    driver exactly when the provider is streamed, [sweep] is [Exact]
    and [shards <= 1]; otherwise it fits fold at a time (single output)
    or output at a time ({!Solver.fit_multi_p}). The fused driver
    advances every fold solver in lockstep and serves each round from
    one multi-residual sweep, so streamed column generation is paid
    once per round instead of once per fold; a dense provider has no
    generation to share. The incremental engine, which only {!lars_p}
    accepts, keeps per-walk state no shared sweep can serve, and the
    sharded engine owns each solver run's sweep. Both drivers give
    bitwise-identical curves, λ and models, so the rule only decides
    speed and no caller overrides it. *)

val omp_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t -> result
(** Default [folds = 4] (the paper's Fig. 2 setting) and
    [rule = Min_error]; every selector raises [Invalid_argument] on
    [folds < 2] before any other work. [on_singular] is forwarded to
    {!Omp.path_p} for every fold fit and the final refit.
    [checkpoint]/[resume] as in {!generic_p}.

    [sweep] (default [Exact]) must be [Exact]: OMP sweeps exactly, and
    [Incremental] raises [Invalid_argument] before any fold work
    ({!Corr_sweep.lar_only}). [shards]/[shard_mode]/[recovered] (see
    {!Omp.path_p}) are forwarded to every fold fit and the final refit;
    the selected λ, curve and model stay bitwise identical to the
    unsharded run. The fold driver is {!fused_driver}'s: on a streamed
    provider with the unsharded sweep, every round computes all live
    folds' selections with one {!Corr_sweep.argmax_abs_multi} sweep.

    Every selector also raises [Invalid_argument "Select: response
    length mismatch"] before drawing its fold plan when the response
    length differs from [Provider.rows]. *)

val star_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t -> result
(** [shards]/[shard_mode]/[recovered] and the fold driver as in
    {!omp_p}. *)

val lars_p :
  ?folds:int -> ?rule:rule -> ?mode:Lars.mode -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:int -> ?shard_mode:Shard_sweep.mode -> ?recovered:int ref ->
  ?checkpoint:string -> ?resume:bool ->
  Randkit.Prng.t -> max_lambda:int -> Polybasis.Design.Provider.t ->
  Linalg.Vec.t -> result
(** Every fold fit and the final refit is the λ-driven walk
    {!Lars.lambda_path_p} (a [Lar] walk ends one step past [max_lambda]
    bases, a [Lasso] walk at {!Lars.step_budget}), read through
    {!Lars.lambda_models}; [on_singular] is forwarded to it.
    [checkpoint]/[resume] as in {!generic_p}. [sweep] (default [Exact])
    is forwarded to every fold fit and the final refit; [Incremental]
    is the Gram-cached LAR engine ({!Lars.path_p}), within 1e-10 of
    exact, and runs the per-fold driver. [shards]/[shard_mode]/
    [recovered] and the fold driver as in {!omp_p}: the fused fold
    driver runs each fold's walk on a
    {!Lars.Engine} created with the same λ budget and serves both of its
    per-step sweeps from one {!Corr_sweep.gram_tr_multi} pass per
    lockstep round. *)

val generic_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int ->
  path_models:
    (rng:Randkit.Prng.t -> Polybasis.Design.Provider.t -> Linalg.Vec.t ->
     max_lambda:int -> Model.t array) ->
  Polybasis.Design.Provider.t -> Linalg.Vec.t -> result
(** The underlying driver: [path_models] maps a training design/response
    to the per-λ models (an array shorter than [max_lambda] is padded by
    repeating its last model — an early-stopped path keeps its final
    error for larger λ). Exposed for user-supplied solvers.

    [path_models] may be called concurrently from several domains (one
    per fold) and must not share mutable state across calls; the [rng]
    it receives is the fold's own deterministic stream (the final refit
    gets one more dedicated stream), so stochastic solvers stay
    reproducible under fold-parallel execution.

    With [checkpoint = base], every finished fold writes a
    {!Serialize.Checkpoint.Cv} file at [base.fold<q>] (atomic rename).
    With [resume = true] (requires [checkpoint]), matching fold files
    are loaded back and their fits skipped, so a killed sweep resumes at
    the first unfinished fold; per-fold PRNG streams are split before
    any fold runs either way, and loaded curves round-trip at full
    precision, so the selected λ, curve and refit model are bitwise
    identical to an uninterrupted run at every domain count. A fold file
    whose shape or fold-plan digest disagrees with the sweep (different
    seed, data size, fold count or λ grid) raises [Invalid_argument]
    rather than polluting the average.
    @raise Invalid_argument if a fold produces an empty path. *)

(** {2 Multi-output selection}

    R performance metrics of one circuit share the design matrix; the
    [_multi_p] drivers share everything else too: one fold plan, one
    fused lockstep grid of R×Q fold solvers whose greedy steps are all
    served by a single multi-residual sweep per round (each streamed
    column generated {e once} per step for every output and fold), and
    R per-output refits. Output [r]'s result — λ, curve, model — is
    bitwise identical to the corresponding single-output [_p] call on
    [fs.(r)] with a {!Randkit.Prng.copy} of the same generator.
    {!Solver.fit_multi_p} calls them exactly when {!fused_driver}
    holds, and runs per-output single-output fits otherwise. *)

val omp_multi_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t array ->
  result array
(** Fused multi-output OMP selection, one {!result} per response in
    order. Exact sweep, unsharded, on any provider.

    [checkpoint]/[resume]: with [checkpoint = base], the grid writes a
    {!Serialize.Checkpoint.Multi} manifest at [base.multi] and each
    finished (output, fold) cell as an ordinary Cv fold file at
    [base.out<r>.fold<q>]; with [resume], matching cell files are
    loaded and their fits skipped — bitwise identical to an
    uninterrupted run. A manifest or cell file disagreeing with the
    grid shape or fold plan raises [Invalid_argument]. The per-output
    bases are exactly the per-output checkpoint paths the non-fused
    driver uses, so a run interrupted in one mode can resume in the
    other. *)

val star_multi_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t array ->
  result array
(** As {!omp_multi_p} for STAR. *)

val lars_multi_p :
  ?folds:int -> ?rule:rule -> ?mode:Lars.mode -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?checkpoint:string -> ?resume:bool -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t array ->
  result array
(** As {!omp_multi_p} for the LAR/lasso walk: every fold×output walk
    runs on a {!Lars.Engine}, and each lockstep round serves all live
    walks' sweeps — correlation and step-length phases mixed freely —
    from one {!Corr_sweep.gram_tr_multi} pass. *)

val omp :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] -> Randkit.Prng.t ->
  max_lambda:int -> Linalg.Mat.t -> Linalg.Vec.t -> result
(** {!omp_p} over [Provider.dense g]. *)

val star :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t -> Randkit.Prng.t ->
  max_lambda:int -> Linalg.Mat.t -> Linalg.Vec.t -> result

val lars :
  ?folds:int -> ?rule:rule -> ?mode:Lars.mode -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  Randkit.Prng.t -> max_lambda:int -> Linalg.Mat.t -> Linalg.Vec.t -> result

val generic :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t -> Randkit.Prng.t ->
  max_lambda:int ->
  path_models:
    (rng:Randkit.Prng.t -> Linalg.Mat.t -> Linalg.Vec.t -> max_lambda:int ->
     Model.t array) ->
  Linalg.Mat.t -> Linalg.Vec.t -> result
(** {!generic_p} over [Provider.dense g]; [path_models] receives each
    fold's materialized training matrix (free for a dense provider). *)
