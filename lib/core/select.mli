(** Cross-validated choice of the sparsity level λ (Section IV-C).

    For each fold, the solver's whole path (λ = 1 … max_lambda) is fit
    on the training groups and scored on the held-out group, giving the
    per-run error {e function} ε_q(λ); the averaged curve ε(λ) is
    minimized over λ and the winning λ is refit on the full data — the
    exact procedure of Fig. 2 and the surrounding text.

    One selector serves one response ([_p]) or R responses over one
    design ([_multi_p]): one fold plan, one grid of R×Q (output, fold)
    cells, R refits. It runs on a {!Polybasis.Design.Provider}, so on a
    streamed provider the whole CV loop is matrix-free: a fold's
    [Provider.select_rows] subset rebuilds the Hermite tables over the
    fold's rows (a dense provider gathers a copy of them instead), and
    held-out scoring streams only the support columns. Dense and matrix-free runs select the same λ
    and model, bit for bit.

    {2 Parallelism and determinism}

    The grid's cells are independent and run in parallel over [?pool]
    (default: {!Parallel.Pool.default}); the underlying solvers also
    parallelize their own Gᵀ·r correlation sweeps over the same pool.
    The fold plan, the Q fold streams ({!Randkit.Prng.split_n}, in fold
    order, before any cell runs) and one refit stream are drawn from
    the caller's generator once, whatever R is; each cell fits on a
    copy of its fold's stream and each refit on a copy of the refit
    stream, and the fold curves are averaged in fold order after all
    cells complete. The selected λ, the curve and the refit model are
    therefore bitwise identical to a sequential run for a fixed seed,
    at {e every} domain count, and output [r] of a [_multi_p] call is
    bitwise the [_p] call on [fs.(r)] from the same generator state;
    both leave the caller's generator in the same state. *)

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

(** {2 Engine values}

    Every path selector takes the same two values besides its
    algorithm labels: the shard plan [?shards] ({!type:Shard_sweep.plan},
    forwarded to every fold fit and the refit — the selected λ, curve
    and model stay bitwise identical to the unsharded run, and the plan
    counts worker recoveries) and the CV cell store [?store]. *)

type store = private {
  base : string;  (** cell files are {!Serialize.Checkpoint.Cell.file}[ base] *)
  resume : bool;  (** load matching cell files before fitting *)
}
(** Where a CV grid keeps its finished cells. With a store, every
    finished (output, fold) cell writes a {!Serialize.Checkpoint.Cell}
    file at {!Serialize.Checkpoint.Cell.file}[ base ~outputs r q] —
    [base.out<r>.fold<q>], or [base.fold<q>] when R = 1 — in either
    driver (atomic rename). With [resume], matching cell files are
    loaded back and their fits skipped, so a killed grid refits only
    its unfinished cells. Fold streams are split before any cell runs
    either way, and loaded curves round-trip at full precision, so the
    selected λ, curve and refit model are bitwise identical to an
    uninterrupted run at every domain count, and a grid killed under
    one driver resumes under the other. Every cell carries the grid's
    shape: a cell file whose cell, grid shape or fold-plan digest
    disagrees with the grid (different seed, data size, fold count,
    output count or λ grid) raises [Invalid_argument] rather than
    polluting the average. *)

val store :
  ?resume:bool -> string option -> (store option, string) Stdlib.result
(** [store ~resume base] is the store at [base] ([None] without one).
    [Error "resume requires a checkpoint path"] for [resume] without a
    [base]. *)

val fused_driver :
  streamed:bool -> sweep:Corr_sweep.sweep -> shards:int -> bool
(** The one CV-driver rule. A path selector runs its grid on the
    {e fused lockstep} driver exactly when the provider is streamed,
    [sweep] is [Exact] and [shards <= 1]; otherwise it runs the
    {e per-job} driver, which fits each (output, fold) cell's path on
    its own training rows, cells in parallel. The fused driver advances
    every cell's solver in lockstep and serves each round from one
    multi-residual sweep, so streamed column generation is paid once
    per round instead of once per cell; a dense provider has no
    generation to share. The incremental engine, which only {!lars_p}
    and {!lars_multi_p} accept, keeps per-walk state no shared sweep
    can serve, and the sharded engine owns each solver run's sweep.

    The fused driver also walks each output's refit in the lockstep:
    one all-rows walk per output runs beside the grid's cells to the
    λ cap, so each round's one pass serves it too, and the refit at
    the chosen λ is read from the prefix the λ-capped walk would have
    taken — OMP and STAR stop after min(λ, steps) steps; a LAR or
    lasso walk is cut to {!Lars.step_budget}[ λ] steps and read through
    {!Lars.lambda_models}[ ~max_lambda:λ]. A refit walk that fails past
    the chosen λ (a lasso drop's Gram rebuild under [`Stop]) is
    dropped and the chosen λ walked on its own. The per-job driver,
    and a resume with every cell cached, walk the refit after the
    curve is known.

    Both drivers give bitwise-identical curves, λ and models, so the
    rule only decides speed and no caller overrides it. *)

val omp_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:Shard_sweep.plan -> ?store:store -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t -> result
(** Default [folds = 4] (the paper's Fig. 2 setting) and
    [rule = Min_error]; every selector raises [Invalid_argument] on
    [folds < 2] before any other work. [on_singular] is forwarded to
    {!Omp.path_p} for every fold fit and the final refit. A fold path
    shorter than [max_lambda] (an early stop) is padded by repeating
    its last model, so it keeps its final error for larger λ.

    [sweep] (default [Exact]) must be [Exact]: OMP sweeps exactly, and
    [Incremental] raises [Invalid_argument] before any fold work
    ({!Corr_sweep.lar_only}). The fold driver is {!fused_driver}'s: on
    a streamed provider with the unsharded sweep, every round computes
    all live folds' selections with one {!Corr_sweep.argmax_abs_multi}
    sweep.
    @raise Invalid_argument if a fold produces an empty path.

    Every selector also raises [Invalid_argument "Select: response
    length mismatch"] before drawing its fold plan when the response
    length differs from [Provider.rows]. *)

val star_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?shards:Shard_sweep.plan -> ?store:store -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t -> result
(** The fold driver as in {!omp_p}. *)

val lars_p :
  ?folds:int -> ?rule:rule -> ?mode:Lars.mode -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:Shard_sweep.plan -> ?store:store ->
  Randkit.Prng.t -> max_lambda:int -> Polybasis.Design.Provider.t ->
  Linalg.Vec.t -> result
(** Every fold fit and the final refit is the λ-driven walk
    {!Lars.lambda_path_p} (a [Lar] walk ends one step past [max_lambda]
    bases, a [Lasso] walk at {!Lars.step_budget}), read through
    {!Lars.lambda_models}; [on_singular] is forwarded to it. [sweep]
    (default [Exact]) is forwarded to every fold fit and the final
    refit; [Incremental] is the Gram-cached LAR engine
    ({!Lars.path_p}), within 1e-10 of exact, and runs the per-job
    driver. The fold driver as in {!omp_p}: the fused fold driver runs
    each fold's walk, and the refit walk, on a
    {!Lars.Engine} created with the same λ budget and serves its
    per-step sweeps from one {!Corr_sweep.gram_tr_multi} pass per
    lockstep round, except a step length whose {!Lars.Engine.screen}
    holds: that walk answers it from the screened columns of its own
    provider ({!Lars.Engine.supply_screened}), with the same bits. *)

(** {2 Multi-output selection}

    R performance metrics of one circuit share the design matrix; the
    [_multi_p] selectors share everything else too: one fold plan, one
    grid of R×Q (output, fold) cells run by {!fused_driver}'s driver —
    on a streamed provider one lockstep grid whose steps are all served
    by a single multi-residual sweep per round, each streamed column
    generated {e once} per step for every output and fold — and R
    per-output refits. They take the labels of the matching [_p]
    selector, with the same meaning. Output [r]'s result — λ,
    curve, model — is bitwise identical to the corresponding [_p] call
    on [fs.(r)] with a {!Randkit.Prng.copy} of the same generator, and
    the caller's generator ends where that one call leaves it. *)

val omp_multi_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:Shard_sweep.plan -> ?store:store -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t array ->
  result array
(** Multi-output {!omp_p}, one {!result} per response in order.
    {!omp_p} is this selector at R = 1. *)

val star_multi_p :
  ?folds:int -> ?rule:rule -> ?pool:Parallel.Pool.t ->
  ?shards:Shard_sweep.plan -> ?store:store -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t array ->
  result array
(** As {!omp_multi_p} for STAR. *)

val lars_multi_p :
  ?folds:int -> ?rule:rule -> ?mode:Lars.mode -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:Shard_sweep.plan -> ?store:store -> Randkit.Prng.t ->
  max_lambda:int -> Polybasis.Design.Provider.t -> Linalg.Vec.t array ->
  result array
(** As {!omp_multi_p} for the LAR/lasso walk of {!lars_p}: on the fused
    driver every (output, fold) walk runs on a {!Lars.Engine}, and each
    lockstep round serves all live walks' sweeps — correlation and
    step-length phases mixed freely — from one
    {!Corr_sweep.gram_tr_multi} pass. *)

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
