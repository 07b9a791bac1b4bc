(** Least angle regression (Efron, Hastie, Johnstone & Tibshirani 2004)
    — the algorithm of the target DAC 2009 paper ("LAR", reference [2]),
    which relaxes the L0 constraint of eq. (11) to an L1 constraint and
    traces the resulting regularization path.

    Geometry: at each step the coefficient vector moves along the
    {e equiangular} direction of the active basis vectors — the
    direction making equal angles with all of them — exactly until some
    inactive vector becomes as correlated with the residual as the
    active ones, which is then added. With the lasso modification, an
    active coefficient that would cross zero is instead dropped at the
    crossing and the direction recomputed, making the path coincide
    with the lasso solution path.

    Columns are normalized to unit Euclidean norm internally (Hermite
    basis columns have norm ≈ √K already; normalization removes the
    sampling fluctuation) and coefficients are reported in the original
    column scale.

    Consumes a {!Polybasis.Design.Provider} ([_p] variants): the two
    per-step sweeps stream columns on demand, active columns are cached
    (K floats each) for Gram updates and the equiangular direction —
    dense and matrix-free runs are bitwise identical.

    There is one walk, {!Engine}. Each step asks two questions that
    cost an O(K·M) sweep — which column enters (the correlation pick)
    and how far to go (the minimum step-length candidate) — and every
    entry point differs only in who answers them: {!path_p} answers
    from an exact, incremental or column-sharded sweep, the fused CV
    drivers in {!Select} from one {!Corr_sweep.gram_tr_multi} pass
    shared by many walks. Both answers reduce through the scan kernels
    {!Shard_sweep.lars_scan} and {!Shard_sweep.gamma_scan}, so every
    driver walks the same steps bit for bit; checkpoint replay feeds
    the recorded entries and step lengths through the walk's own
    direction, advance and drop arithmetic. The two exact unsharded
    drivers answer the step length from a screen instead whenever it
    holds ({!Engine.screen}): only the columns that can set the step
    get their image computed, and the committed step is the full
    scan's bit for bit. *)

type mode = Lar | Lasso

type step = {
  added : int option;  (** basis entering the active set this step *)
  dropped : int option;  (** basis leaving (lasso mode only) *)
  max_corr : float;  (** C: common absolute correlation of the active set *)
  model : Model.t;  (** coefficients after the step (LARS shrinkage) *)
}

val path_p :
  ?mode:mode ->
  ?tol:float ->
  ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?log:Serialize.Checkpoint.log ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:Shard_sweep.plan ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  max_steps:int ->
  step array
(** [path_p src f ~max_steps] traces up to [max_steps] path steps
    (default mode [Lar]) by driving the {!Engine} walk: it answers the
    walk's two requests from the sweep engine chosen below and applies
    each step's side effects to it (Gram-cache builds, shard masks,
    incremental retreats and refreshes), plus the event log and
    checkpoint emission. Stops early when the maximal correlation falls
    below [tol] relative to its initial value (default [1e-10]), when
    the active set saturates at [min(K, M)], or at the final
    unrestricted LS point of the active set. [path_p] has no λ budget:
    it walks all [max_steps] steps in either mode. The λ-driven entry
    points — {!lambda_path_p}, {!fit_p} and {!Engine.create} — also stop
    a [Lar] walk one step past its λ budget; their steps are a prefix of
    this walk's.

    [on_singular] governs degenerate Gram factors. With [`Stop] (the
    default, the historical behavior) a linearly dependent entering
    column is simply not added this step, and a non-SPD rebuild after a
    lasso drop raises. With [`Fallback] a dependent entering column is
    {e banned} — excluded from C, the enter scan and the γ scan from
    then on — and the iteration is recorded as a {e zero-length step}
    (no coefficient movement), so the next iteration hands the step to
    the true entrant; advancing past a ban instead would overshoot the
    correlation tie and leave the active set non-equicorrelated. A
    non-SPD rebuild after a lasso drop ends the path at the last
    consistent model. Both events are recorded in the step models'
    {!Model.notes}. Clean paths are bitwise unaffected by the choice.

    The two O(K·M) sweeps of every step — the correlations [Gᵀ·res] and
    the step-length inner products [Gᵀ·u] against the equiangular
    direction — run column-parallel over [pool] (default:
    {!Parallel.Pool.default}); entering/leaving variables, step lengths
    and coefficients are bitwise identical to the sequential dense
    sweeps for every domain count and either provider form (each dot
    product is accumulated whole). With the exact unsharded sweep, a
    step whose {!Engine.screen} holds computes [Gᵀ·u] only for the
    columns that can set its length, sequentially, and commits the
    same step length.

    Checkpointing: [log.save] receives the walk log
    ({!Serialize.Checkpoint.t}, solver tag ["lar"] or ["lasso"]) every
    [log.every] completed steps, and (whatever the cadence, including
    [0]) once more when the path ends, so a finished run always leaves
    its full log — the emission rule {!Greedy.path_p} shares.
    [log.resume] replays a log's events against the provider before any
    live step: recorded gammas
    replace the two O(K·M) sweeps, so replay costs O(steps·active·K)
    and reproduces every step record — models, notes, order —
    bit-for-bit at any domain count. Resuming with a different dataset,
    [mode] or [on_singular] policy than the log was written under
    raises [Invalid_argument]: {!Serialize.Checkpoint.verify} compares
    the replayed walk's log with the loaded one (active, banned and
    sign sets, notes, fit-vector and coefficient digests).

    [sweep] selects the correlation engine (default
    {!Corr_sweep.Exact}). [Incremental] is where the Gram cache pays on
    this solver: of the two O(K·M) sweeps per step, the correlation
    sweep becomes an O(M) read of the delta-maintained vector and the
    [Gᵀ·u] sweep becomes an O(p·M) combination of cached Gram columns —
    only entering columns still cost one O(K·M) cache build. Exact
    refreshes run on the [refresh] cadence of movement steps and at
    every checkpoint emission, so a resumed incremental run (whose
    replay rebuilds the cache and re-sweeps at the checkpoint) stays
    bitwise equal to an uninterrupted incremental run in every step's
    state — entries, drops, coefficients, models. The one exception is
    the diagnostic [max_corr] of {e replayed} steps: replay recomputes
    it with exact per-column dots, while the interrupted run read it
    from the delta-maintained vector, so the two may differ by ~1 ulp
    between refresh points (the live continuation past the checkpoint
    is bitwise, [max_corr] included). Against [Exact] the mode is
    ≤1e-10-validated, not bitwise — hence opt-in.

    A [shards] plan of more than one shard ({!type:Shard_sweep.plan}) routes
    both per-step sweeps through the column-sharded engine
    ({!Shard_sweep}): each shard owns a contiguous column window (and,
    incremental mode, its own Gram slab), local scans merge through
    exact left-biased reductions, and the path — entries, bans, drops,
    step lengths, models — is bitwise identical to the unsharded walk
    at every shard count, in both provider forms and both sweep modes.
    The plan's mode picks in-image shards ([Domains]) or re-exec'd
    worker processes ([Procs]), whose per-worker memory is O(K·M/S) and
    which survive worker death by replaying the engine's command log —
    also bitwise; the plan counts the recoveries. *)

val step_budget : int -> int
(** [step_budget max_lambda] = [min (2·max_lambda + 8) (4·max_lambda)]
    is the step budget of a λ-driven walk: lasso drops and bans make a
    path longer than its support size.
    @raise Invalid_argument if [max_lambda <= 0]. *)

val lambda_path_p :
  ?mode:mode ->
  ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:Shard_sweep.plan ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  max_lambda:int ->
  step array
(** [lambda_path_p src f ~max_lambda] is the walk a λ grid of
    [1 … max_lambda] reads: {!path_p} with [~max_steps:(step_budget
    max_lambda)], except that a [Lar] walk is done as soon as its last
    recorded step's model has more than [max_lambda] non-zeros. A LAR
    step adds at most one basis and never removes one, so no later step
    could give a model the grid reads, and the steps returned are a
    prefix of {!path_p}'s whose {!lambda_models} are bitwise the same.
    A [Lasso] walk keeps the whole step budget: a drop can bring the
    support back to at most [max_lambda]. Options as in {!path_p}.
    @raise Invalid_argument if [max_lambda <= 0]. *)

val lambda_models :
  Polybasis.Design.Provider.t -> max_lambda:int -> step array ->
  Model.t array
(** [lambda_models src ~max_lambda steps] indexes a walk's models by
    support size, as cross-validation reads them: entry [λ−1] is the
    last step model with at most λ non-zeros (the empty model before
    the first such step); [[||]] for an empty walk. *)

val fit_p :
  ?mode:mode ->
  ?tol:float ->
  ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
  ?log:Serialize.Checkpoint.log ->
  ?sweep:Corr_sweep.sweep ->
  ?shards:Shard_sweep.plan ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  lambda:int ->
  Model.t
(** [fit_p src f ~lambda] is the last path model with at most [lambda]
    active coefficients — λ plays the same sparsity-budget role as in
    Algorithm 1. The step budget starts at [2·lambda + 8] and doubles
    (up to 8×) while the budget truncates the path before any model fits
    the sparsity bound; if even then no step qualifies, the returned
    empty model carries a [Model.notes] entry saying so rather than
    being silently zero. As in {!lambda_path_p}, a [Lar] walk stops one
    step past [lambda] bases and a [Lasso] walk keeps its step budget;
    the result is bitwise the uncapped walk's.

    [log] behaves as in {!path_p}, so a [Lar] fit's terminal checkpoint
    ends one step past [lambda] bases; its event log is a prefix of the
    uncapped walk's. [log.resume] accepts any
    checkpoint of the same problem, including one written by an
    uncapped walk that ran past the budget: the replay restores it
    whole and the walk is already done. *)

(** The LAR walk — the only implementation of the step, which
    {!path_p}, checkpoint replay and the fused lockstep drivers all
    drive.

    The walk needs two [Gᵀ·v] sweeps per movement step (correlations
    against the residual, then step lengths against the equiangular
    direction). The engine suspends at each: {!Engine.request} names
    the K-vector whose sweep is needed next, {!Engine.supply} feeds the
    M-length [Gᵀ·v] back, reduces it with the same scan kernels
    {!path_p} uses, and advances the walk. Driven with exact sweeps —
    in particular the per-entry results of {!Corr_sweep.gram_tr_multi},
    which are bitwise equal to independent per-fold sweeps — the
    recorded steps are bit-for-bit those of {!path_p} with the exact
    sweep. Requests from distinct engines are mutually independent, so
    a fused driver may batch a mix of correlation- and direction-phase
    requests into one multi sweep. *)
module Engine : sig
  type t

  val create :
    ?mode:mode ->
    ?tol:float ->
    ?pool:Parallel.Pool.t ->
    ?on_singular:[ `Stop | `Fallback ] ->
    Polybasis.Design.Provider.t ->
    Linalg.Vec.t ->
    max_lambda:int ->
    t
  (** [create src f ~max_lambda] starts the walk {!lambda_path_p}
      drives: step budget [step_budget max_lambda] and, in [Lar] mode,
      done one step past [max_lambda] bases; a [Lasso] walk keeps the
      whole step budget. Same validation and defaults as {!path_p};
      [pool] is used only for the one-time column-norms sweep.
      @raise Invalid_argument if [max_lambda <= 0]. *)

  val finished : t -> bool
  (** True once the walk stopped, exhausted its step budget or — [Lar]
      mode only — recorded a step whose model has more than
      [max_lambda] non-zeros. *)

  val request : t -> Linalg.Vec.t
  (** The K-vector whose [Gᵀ·v] sweep the engine needs next: the
      current residual (correlation phase) or the equiangular direction
      (step-length phase).
      @raise Invalid_argument once {!finished}. *)

  val supply : t -> Linalg.Vec.t -> unit
  (** [supply t g] feeds the M-length sweep of the last {!request}ed
      vector and advances the walk to its next suspension point.
      @raise Invalid_argument on a length mismatch or once {!finished};
      propagates {!Linalg.Cholesky.Not_positive_definite} after a lasso
      drop under [~on_singular:`Stop], as {!path_p} does. *)

  val screen : t -> int array option
  (** The step-length screen of the pending direction (Efron et al.,
      eq. 2.13), run once per step on the first call: [Some kept] lists,
      ascending, the inactive, non-banned columns whose candidates can
      set γ, and {!supply_screened} may answer from their exact images;
      [None] in the correlation phase, once {!finished}, or when the
      screen keeps more than a fixed share of the columns and the full
      sweep must answer.

      Columns are unit norm, so |a_j| ≤ ‖u‖, and a positive candidate
      of column j is at least gap_j/(A + ‖u‖) with gap_j = C − |c_j|.
      The exact candidates of the 8 columns nearest the tie give
      thr = min(C/A, their minimum) ≥ the committed γ; column j is
      skipped only when gap_j·(1 − 1e-9)/(A + ‖u‖·(1 + 1e-9)) >
      thr·(1 + 1e-9) with gap_j > 0. The margins exceed the rounding of
      the dots, norms and quotients (a few K·ε) for any K below 10⁶,
      and a NaN anywhere keeps the column. *)

  val supply_screened : t -> unit
  (** [supply_screened t] answers the pending step-length request from
      the {!screen}ed columns: their exact images, from the engine's
      own provider ({!Polybasis.Design.Provider.col_dots}, bitwise the
      full sweep's slots), reduced by {!Shard_sweep.gamma_scan_at}. A
      skipped column cannot set γ, so the committed γ, the step record
      and the event are bitwise those of {!supply} with the full
      sweep, and the walk advances as {!supply} advances it.
      @raise Invalid_argument unless {!screen} holds; propagates
      {!Linalg.Cholesky.Not_positive_definite} as {!supply} does. *)

  val steps : t -> step array
  (** Steps recorded so far, oldest first. *)
end

val path :
  ?mode:mode -> ?tol:float -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] -> Linalg.Mat.t ->
  Linalg.Vec.t -> max_steps:int -> step array
(** {!path_p} over [Provider.dense g]. *)

val fit :
  ?mode:mode -> ?tol:float -> ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] -> Linalg.Mat.t ->
  Linalg.Vec.t -> lambda:int -> Model.t
(** {!fit_p} over [Provider.dense g]. *)
