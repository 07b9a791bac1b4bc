(** Column-sharded dictionary sweep engine.

    Partitions the dictionary's columns into contiguous shards; each
    shard owns a {!Polybasis.Design.Provider.window} of the design
    source and its own column norms and skip masks.  The per-step
    O(K·M) sweeps of LAR/OMP/STAR then decompose into shard-local
    scans whose results merge through fixed-shape, left-biased tree
    reductions — bitwise identical to the sequential full-dictionary
    scan at {e any} shard count, because every local kernel runs the
    exact per-column float sequence of the full kernel and every
    combine (max, min, lowest-index argmax) is exact.  A LAR step
    length is screened inside each shard ({!screen_gamma}) exactly as
    the unsharded walk screens the whole dictionary.

    Two execution modes:

    - {!Domains}: shards live in the calling image, driven in shard
      order.  Cheap; memory is the same as the unsharded fit.
    - {!Procs}: each shard is this same executable re-exec'd
      ([fork]+[exec] immediately, safe under OCaml 5 domains) with
      [RSM_SHARD_WORKER=1], talking Marshal over its stdin/stdout.
      Each worker's peak memory is its own window — O(K·N·(order+1))
      floats for a streamed window, K·M/S for a dense one — which is
      what lets an M = 10⁶ fit clear a single-image memory ceiling.
      The parent keeps a replay log of every mask-changing command; a
      worker that dies (crash, OOM kill) is respawned, replays the log
      and the current step's selection, and rejoins the fleet bitwise
      — fits survive shard loss with identical output.

    Host executables that use [Procs] mode {b must} call
    {!worker_entry_if_requested} before anything else in [main]. *)

type mode = Domains | Procs

val mode_to_string : mode -> string

(** {2 The shard plan}

    How one fit shards its sweeps, and how many worker recoveries its
    fleets have survived. Every solver entry point takes the plan as
    [?shards]; without one (or with one shard) the sweeps run
    unsharded. Results are bitwise identical to the unsharded run at
    every shard count, in both modes. *)

type plan = private {
  shards : int;  (** column shards; 1 = unsharded *)
  mode : mode;
  recovered : int Atomic.t;
      (** worker respawn+replay recoveries summed over every fleet run
          under this plan ({!with_fleet} adds each fleet's count as it
          shuts down, atomically, since the per-job CV driver runs
          sharded cells on several domains at once), so a driver reports
          survived crashes without touching model notes *)
  peak_rss : float array Atomic.t;
      (** per-shard VmHWM in kB ({!peak_rss_kb}) of the last fleet that
          finished its work under this plan, read as it finished — the
          footprint of a fleet that fitted; [[||]] before any *)
}

val plan : ?mode:string -> int -> (plan, string) result
(** [plan ~mode shards] is the plan of [shards] column shards in [mode]
    (["domain"], the default, or ["process"]; ["domains"] and ["procs"]
    are accepted too), with no recoveries yet. [Error] names the
    rejected value: ["shards must be at least 1 (got 0)"] or
    ["shard-mode must be domain or process (got \"x\")"]. *)

(** Merged result of a LARS selection scan: C over non-banned columns,
    the entering candidate (inactive, non-banned and not the barred
    column; lowest global index on ties), its
    normalized correlation value, and the correlation values at every
    active column (shard-ascending, hence global-ascending, order). *)
type pick = {
  big_c : float;
  enter : int;
  enter_abs : float;
  enter_val : float;
  act_c : (int * float) array;
}

val lars_scan :
  ?bar:int ->
  norms:Linalg.Vec.t ->
  active:bool array ->
  banned:bool array ->
  jlo:int ->
  Linalg.Vec.t ->
  Linalg.Vec.t * pick
(** [lars_scan ~norms ~active ~banned ~jlo gtr] is the LAR selection
    scan over a column window starting at global index [jlo]: the
    normalized correlations [gtr.(j) /. norms.(j)] and their {!pick} —
    {!lars_scan_at} over every column of the window. Shards run it over
    their window, the unsharded walks over the dictionary on every step
    that sweeps it whole. [bar] (a global index, default none) cannot
    enter but counts towards C: the column a lasso step just dropped
    (Efron et al., Section 3.1).
    @raise Invalid_argument when [gtr] and [norms] differ in length. *)

val lars_scan_at :
  ?bar:int ->
  norms:Linalg.Vec.t ->
  active:bool array ->
  banned:bool array ->
  jlo:int ->
  c:Linalg.Vec.t ->
  int array ->
  Linalg.Vec.t ->
  pick
(** [lars_scan_at ~norms ~active ~banned ~jlo ~c idx gtr_at] is the
    selection scan over the listed columns only: [idx] holds ascending
    window indices, [gtr_at.(t)] the raw correlation of column
    [idx.(t)] ({!Polybasis.Design.Provider.col_dots}). It writes their
    normalized correlations into [c] and picks among them with the
    arithmetic of {!lars_scan}, so when [idx] holds every active column
    and every column whose |c_j| can reach the active ones', its C, its
    entrant — whenever that entrant can enter — and its active values
    are the full scan's, bit for bit. [bar] as in {!lars_scan}.
    @raise Invalid_argument when [idx] and [gtr_at] differ in length. *)

val gamma_scan :
  norms:Linalg.Vec.t ->
  active:bool array ->
  banned:bool array ->
  c:Linalg.Vec.t ->
  cc:float ->
  a_a:float ->
  Linalg.Vec.t ->
  float
(** [gamma_scan ~norms ~active ~banned ~c ~cc ~a_a gu] is the minimum
    LAR step-length candidate over the window's inactive, non-banned
    columns ([infinity] when none), given the raw direction image [gu]
    and the [c] of the same step's {!lars_scan}. Folding it against C/A
    is bitwise the sequential running-minimum scan. *)

val gamma_scan_at :
  norms:Linalg.Vec.t ->
  c:Linalg.Vec.t ->
  cc:float ->
  a_a:float ->
  int array ->
  Linalg.Vec.t ->
  float
(** [gamma_scan_at ~norms ~c ~cc ~a_a idx gu_at] is {!gamma_scan}'s
    minimum over the listed columns only, with [gu_at.(t)] the raw
    image of column [idx.(t)] ({!Polybasis.Design.Provider.col_dots}):
    each column's candidates come from the same float operations, so
    the minimum over a set that holds every column able to set the
    step is bitwise the full scan's. The caller lists inactive,
    non-banned columns.
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
    of them survive. [hi.(j)] is |c_j| — the normalized correlation of
    the step's {!lars_scan} — or an upper bound on it. Given C = [cc],
    A = [a_a] and ‖u‖ = [u_norm], a column is ruled out only when
    gap = C − hi.(j) > 0 and gap·(1 − 1e-9)/(A + ‖u‖·(1 + 1e-9)) >
    thr·(1 + 1e-9): unit columns have |a_j| ≤ ‖u‖, so each of its
    positive candidates exceeds [thr] — the margins cover the rounding
    of the dots, norms and quotients, a few K·ε for K below 10⁶. A NaN
    anywhere keeps the column. With [thr] at least the committed step,
    the minimum of {!gamma_scan_at} over the survivors and [top] is the
    full scan's against C/A, bit for bit. *)

(** The outcome of one window's step-length screen. *)
type screen =
  | Sweep
      (** more than a quarter of the window survived: sweep it *)
  | Kept of { kept : int array; images : Linalg.Vec.t; gamma : float }
      (** the screen held: [kept] (window indices, ascending) are the
          columns whose images were computed, [images] their raw images
          (Gᵀu)_j in the same order, [gamma] the minimum of their
          candidates *)

val screen_gamma :
  ?pool:Parallel.Pool.t ->
  Polybasis.Design.Provider.t ->
  norms:Linalg.Vec.t ->
  active:bool array ->
  banned:bool array ->
  c:Linalg.Vec.t ->
  hi:Linalg.Vec.t ->
  refresh:(int array -> unit) ->
  cc:float ->
  a_a:float ->
  Linalg.Vec.t ->
  screen
(** [screen_gamma win ~norms ~active ~banned ~c ~hi ~refresh ~cc ~a_a u]
    is the LAR step-length screen over the column window [win] (the
    whole dictionary, or one shard's window). [hi.(j)] bounds the
    step's |c_j| from above — |c_j| itself where the step computed it —
    and [refresh idx] makes [c] exact at the listed columns (shards,
    whose [c] is exact everywhere, pass [ignore]). The 8 inactive,
    non-banned columns of largest [hi] get exact candidates
    ({!Polybasis.Design.Provider.col_dots} over [pool],
    {!gamma_scan_at}), thr = min(C/A, their minimum), {!gamma_screen}
    rules out the columns that cannot reach thr, and the survivors get
    their exact [c] and images to complete the minimum — or [Sweep]
    when more than a quarter of the window survives. A [Kept] minimum
    equals the window's {!gamma_scan} minimum whenever that is at most
    C/A, and exceeds C/A otherwise, so folded against C/A — over one
    window or the merged shard minima — it commits the full scan's step
    bit for bit. Every LAR driver screens through this function:
    {!Lars.Engine.screen} over the dictionary, each shard of
    {!lars_gamma} over its window.
    @raise Invalid_argument when [c] or [hi] and [norms] differ in
    length. *)

type t

val create : ?pool:Parallel.Pool.t -> plan -> Polybasis.Design.Provider.t -> t
(** [create plan src] partitions [src]'s columns into
    [min plan.shards (cols src)] contiguous shards in [plan.mode].
    [pool] is used by in-image shards; process workers run
    single-domain pools of their own. *)

val shutdown : t -> unit
(** Quit and reap process workers; no-op for in-image shards.  Prefer
    {!with_fleet}, which never leaks processes. *)

val with_fleet :
  ?pool:Parallel.Pool.t ->
  ?shards:plan ->
  Polybasis.Design.Provider.t ->
  (t option -> 'a) ->
  'a
(** [with_fleet ~shards src f] is [f None] without a plan or
    with a one-shard plan, else [f (Some e)] for a fresh {!create}d
    engine that is shut down however [f] exits, its worker recoveries
    added to the plan's count first — the fleet lifecycle of every
    sharded solver run. *)

val raw_norms : t -> Linalg.Vec.t
(** Column norms gathered from the shards, without the [<= 0 → 1]
    fixup — bitwise [Provider.column_norms] of the full source. *)

val activate : t -> int -> unit
(** [activate t j] marks global column [j] active: it leaves the
    entering scans. *)

val deactivate : t -> int -> unit
(** Lasso drop: [j] re-enters the entering scans. *)

val ban : t -> int -> unit
(** Exclude [j] from every later scan (dependent-column fallback). *)

val select : t -> r:Linalg.Vec.t -> int * float
(** OMP/STAR selection: argmax of |⟨g_j, r⟩| over non-active,
    non-banned columns, from an exact sweep of [r] on every shard.
    Ties keep the lowest global index; [(-1, 0.)] when nothing is
    eligible. *)

val lars_select : ?bar:int -> t -> r:Linalg.Vec.t -> pick
(** LARS step-2 scan (see {!pick}), with [bar] as in {!lars_scan}; each
    shard retains its normalized correlation slice for the same step's
    {!lars_gamma}. *)

val lars_gamma : t -> cc:float -> a_a:float -> Linalg.Vec.t -> float
(** [lars_gamma t ~cc ~a_a u] is the minimum of the shards'
    {!screen_gamma} answers for the direction [u] (a shard whose screen
    keeps too many columns sweeps its window) — [infinity] when no
    column is eligible. The caller folds it against the saturation
    step C/A and the lasso drop scan, which makes it bitwise the
    unsharded step. *)

val peak_rss_kb : t -> float array
(** Per-shard VmHWM from /proc/self/status, in kB (process mode; the
    parent's own value per shard in domain mode).  0 where
    unavailable. *)

val worker_entry_if_requested : unit -> unit
(** When RSM_SHARD_WORKER=1 is set, runs the worker protocol loop on
    stdin/stdout and exits — never returns.  Otherwise does nothing.
    Call it as the first statement of any [main] that may drive
    process shards.

    The RSM_SHARD_FAULT environment variable (format ["<shard>:<n>"])
    makes that worker SIGKILL itself on its [n]-th selection query —
    the deterministic crash hook behind the recovery tests and the CI
    kill smoke.  Parents strip it when respawning, so the replacement
    survives. *)
