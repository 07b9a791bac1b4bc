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
    with the lasso solution path; the dropped column, still at the
    correlation tie, may not enter at the very next step (Efron et al.,
    Section 3.1), on every driver and after a resume.

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
    from the provider's column kernels or a shard fleet's, which are
    the same bits ({!type:Shard_sweep.kernels}), the fused CV drivers in
    {!Select} from one {!Polybasis.Design.Provider.gram_tr_multi} pass
    shared by many walks. The engine reduces every answer through its
    own scans, so every driver walks the same steps bit for bit;
    checkpoint replay feeds the recorded entries and step lengths
    through the walk's own direction, advance and drop arithmetic.
    Every driver answers the step length from the engine's screen
    ({!Engine.screen}) whenever it holds: only the columns that can set
    the step get their image computed, and the committed step is the
    full scan's bit for bit. The engine also carries a bound on every
    column's correlation from step to step (Efron et al.: for unit
    columns, |c_j(r) − c_j(r_e)| ≤ ‖r − r_e‖), so every walk — sharded
    or not — and each fused lane compute exact correlations only for
    the columns that could enter or set C. *)

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
  ?shards:Shard_sweep.plan ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  max_steps:int ->
  step array
(** [path_p src f ~max_steps] traces up to [max_steps] path steps
    (default mode [Lar]) by driving the {!Engine} walk: it answers the
    walk's two requests from the engine's screens where they hold and
    from the full sweep elsewhere — the provider's, or the shard
    fleet's chosen below — plus the event log and checkpoint
    emission. Stops early when the maximal correlation falls
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
    product is accumulated whole). Sharded or not, a step whose carried
    bounds hold ({!Engine.screen}) computes [Gᵀ·res] only for the
    columns that could enter or set C, and a step whose step-length
    screen holds computes [Gᵀ·u] only for the columns that can set its
    length; both commit the full sweep's answer.

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

    A [shards] plan of more than one shard ({!type:Shard_sweep.plan})
    has a shard fleet ({!Shard_sweep}) answer the walk's full sweeps
    and column dots, each shard over its own contiguous column window.
    The walk is the unsharded one — the same engine, screens and
    carried bounds — and its answers are the unsharded kernels' bits,
    so the path — entries, bans, drops, step lengths, models — is
    bitwise identical to the unsharded walk at every shard count and
    in both provider forms. The plan's mode picks in-image shards
    ([Domains]) or re-exec'd worker processes ([Procs]), whose
    per-worker memory is O(K·M/S) and which survive worker death by
    being respawned and asked their query again — also bitwise; the
    plan counts the recoveries. *)

val step_budget : int -> int
(** [step_budget max_lambda] = [min (2·max_lambda + 8) (4·max_lambda)]
    is the step budget of a λ-driven walk: lasso drops and bans make a
    path longer than its support size.
    @raise Invalid_argument if [max_lambda <= 0]. *)

val lambda_path_p :
  ?mode:mode ->
  ?pool:Parallel.Pool.t ->
  ?on_singular:[ `Stop | `Fallback ] ->
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
    {!path_p} uses, and advances the walk; where {!Engine.screen}
    holds, {!Engine.supply_screened} answers from the engine's own
    provider instead. Driven with exact sweeps — in particular the
    per-entry results of {!Polybasis.Design.Provider.gram_tr_multi},
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
      [pool] serves the one-time column-norms sweep and the column
      subsets the engine's own screens compute.
      @raise Invalid_argument if [max_lambda <= 0]. *)

  val finished : t -> bool
  (** True once the walk stopped, exhausted its step budget or — [Lar]
      mode only — recorded a step whose model has more than
      [max_lambda] non-zeros. *)

  val request : t -> Linalg.Vec.t
  (** The K-vector whose [Gᵀ·v] sweep the engine needs next: the
      current residual (correlation phase) or the equiangular direction
      (step-length phase) — or the residual again, in the step-length
      phase, when the step-length screen fell back while some
      correlations were only bounded: that sweep makes them exact, and
      the screen runs again before the direction is asked for.
      @raise Invalid_argument once {!finished}. *)

  val supply : t -> Linalg.Vec.t -> unit
  (** [supply t g] feeds the M-length sweep of the last {!request}ed
      vector and advances the walk to its next suspension point.
      @raise Invalid_argument on a length mismatch or once {!finished};
      propagates {!Linalg.Cholesky.Not_positive_definite} after a lasso
      drop under [~on_singular:`Stop], as {!path_p} does. *)

  val screen : t -> int array option
  (** The screen of the pending request, decided once per phase on the
      first call. [Some kept] lists, ascending, the columns whose exact
      values {!supply_screened} computes to answer it; [None] means the
      full sweep must answer ({!supply}), and once {!finished}.

      Correlation phase — carried bounds (Efron et al.: for unit
      columns, |c_j(r) − c_j(r_e)| ≤ ‖r − r_e‖). The engine keeps, per
      column, |c_j| at the last step that computed it exactly and the
      residual path length Σ γ·‖u‖ walked by then; their sum with the
      path walked since bounds |c_j| now. The active set's exact
      correlations give C, and [kept] is the active set plus every
      inactive, non-banned column whose bound is not below
      C·(1 − 1e-8) − 1e-14 — every column that could enter or set C.
      [None] on the first step, after a replay or resume (no bounds
      yet), and when [kept] exceeds half the columns: the full sweep
      then resets every bound.

      Step-length phase — the step-length screen over the whole
      dictionary (Efron et al., eq. 2.13; {!gamma_screen}). Columns are unit norm, so
      |a_j| ≤ ‖u‖, and a positive candidate of column j is at least
      gap_j/(A + ‖u‖) with gap_j = C − |c_j|, or C − bound_j where the
      step only bounded c_j. The exact candidates of the 8 columns
      nearest the tie give thr = min(C/A, their minimum) ≥ the committed
      γ; column j is skipped only when gap_j·(1 − 1e-9)/(A + ‖u‖·(1 +
      1e-9)) > thr·(1 + 1e-9) with gap_j > 0. [kept] lists the inactive,
      non-banned columns whose images the screen computed — with their
      exact correlations; [None] when the screen keeps more than a
      quarter of the columns ({!request} then names the residual first
      if some correlations were only bounded, the direction once all
      are exact). A column whose image a step computed restarts its
      carried bound from |c_j − γ·a_j|, the correlation it moves to.
      The margins exceed the rounding of the dots, norms and quotients
      (a few K·ε) for any K below 10⁶, and a NaN anywhere keeps the
      column. *)

  val supply_screened : t -> unit
  (** [supply_screened t] answers the pending request from its
      {!screen}: the kept columns' exact values, from the engine's own
      provider ({!Polybasis.Design.Provider.col_dots}, bitwise the full
      sweep's slots), reduced by the selection scan or
      {!gamma_scan_at}. A skipped column can neither enter,
      set C nor set γ, so the pick, the committed γ, the step record
      and the event are bitwise those of {!supply} with the full sweep,
      and the walk advances as {!supply} advances it.
      @raise Invalid_argument unless {!screen} holds; propagates
      {!Linalg.Cholesky.Not_positive_definite} as {!supply} does. *)

  type dots = {
    full : int;
        (** columns of the full correlation sweeps: a correlation
            phase's, and the re-sweep a fallen-back step-length screen
            asks for *)
    carried : int;
        (** exact correlations of carried steps: the active set, the
            columns whose bound reached C, and screened survivors whose
            correlation was only bounded *)
    screened : int;  (** images of step-length screens that held *)
    fallback : int;
        (** columns of the step-length full sweeps, the images and
            correlations of the screens that fell back to them, and the
            correlations refreshed for a step-length sweep supplied
            without asking {!screen} *)
  }

  val dots : t -> dots
  (** Column dot products this engine's walk has computed so far, by
      kind — M per full sweep. *)

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

(** {2 The step-length screen's kernels}

    The two pieces of {!Engine.screen}'s step-length phase that stand
    alone. *)

val gamma_scan_at :
  norms:Linalg.Vec.t ->
  c:Linalg.Vec.t ->
  cc:float ->
  a_a:float ->
  int array ->
  Linalg.Vec.t ->
  float
(** [gamma_scan_at ~norms ~c ~cc ~a_a idx gu_at] is the minimum LAR
    step-length candidate over the listed columns ([infinity] when
    none), given C = [cc], A = [a_a], the normalized correlations [c]
    and [gu_at.(t)], the raw image (Gᵀu)_j of column [j = idx.(t)]
    ({!Polybasis.Design.Provider.col_dots}). Column j's candidates are
    (C − c_j)/(A − a_j) and (C + c_j)/(A + a_j) with a_j =
    [gu_at.(t) /. norms.(j)], and only those above 1e-12 count; over a
    set that holds every column able to set the step, the minimum is
    bitwise the full scan's. The caller lists inactive, non-banned
    columns.
    @raise Invalid_argument when [idx] and [gu_at] differ in length. *)

val gamma_screen :
  active:bool array ->
  banned:bool array ->
  hi:Linalg.Vec.t ->
  cc:float ->
  a_a:float ->
  u_norm:float ->
  thr:float ->
  top:int array ->
  limit:int ->
  int array option
(** [gamma_screen ~active ~banned ~hi ~cc ~a_a ~u_norm ~thr ~top ~limit]
    is the LAR step-length screen (Efron et al., eq. 2.13): the
    inactive, non-banned columns outside [top], ascending, whose
    candidates may be at most [thr], or [None] once more than [limit]
    of them survive. [hi.(j)] is |c_j| or an upper bound on it. Given
    C = [cc], A = [a_a] and ‖u‖ = [u_norm], a column is ruled out only
    when gap = C − hi.(j) > 0 and gap·(1 − 1e-9)/(A + ‖u‖·(1 + 1e-9)) >
    thr·(1 + 1e-9): unit columns have |a_j| ≤ ‖u‖, so each of its
    positive candidates exceeds [thr] — the margins cover the rounding
    of the dots, norms and quotients, a few K·ε for K below 10⁶. A NaN
    anywhere keeps the column. With [thr] at least the committed step,
    the minimum of {!gamma_scan_at} over the survivors and [top] is the
    full scan's against C/A, bit for bit. *)
