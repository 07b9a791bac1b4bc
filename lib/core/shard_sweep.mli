(** Column-sharded dictionary sweep engine.

    Partitions the dictionary's columns into contiguous shards; each
    shard owns a {!Polybasis.Design.Provider.window} of the design
    source, its own column norms and skip masks, and (incremental
    mode) its own Gram-cache slab keyed by global column index.  The
    per-step O(K·M) sweeps of LAR/OMP/STAR then decompose into
    shard-local scans whose results merge through fixed-shape,
    left-biased tree reductions — bitwise identical to the sequential
    full-dictionary scan at {e any} shard count, because every local
    kernel runs the exact per-column float sequence of the full kernel
    and every combine (max, min, lowest-index argmax) is exact.

    Two execution modes:

    - {!Domains}: shards live in the calling image, driven in shard
      order.  Cheap; memory is the same as the unsharded fit.
    - {!Procs}: each shard is this same executable re-exec'd
      ([fork]+[exec] immediately, safe under OCaml 5 domains) with
      [RSM_SHARD_WORKER=1], talking Marshal over its stdin/stdout.
      Each worker's peak memory is its own window plus its slab —
      O(K·N·(order+1) + p·M/S) floats — which is what lets an M = 10⁶
      fit clear a single-image memory ceiling.  The parent keeps a
      replay log of every state-changing command; a worker that dies
      (crash, OOM kill) is respawned, replays the log, and rejoins the
      fleet bitwise — fits survive shard loss with identical output.

    Host executables that use [Procs] mode {b must} call
    {!worker_entry_if_requested} before anything else in [main]. *)

type mode = Domains | Procs

val mode_of_string : string -> mode option
(** ["domain"]/["domains"] and ["process"]/["procs"]. *)

val mode_to_string : mode -> string

(** A step direction shipped to the shards for the LARS γ-scan and
    commit: the K-vector u itself (exact sweep mode), or the active-set
    weights w with u = Σ wₚ·g_{jₚ} (incremental mode, resolved against
    each shard's Gram slab at O(p·M/S)). *)
type dir = Dense of Linalg.Vec.t | Weights of (int * float) array

(** Merged result of a LARS selection scan: C over non-banned columns,
    the entering candidate (lowest global index on ties), its
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
  norms:Linalg.Vec.t ->
  active:bool array ->
  banned:bool array ->
  jlo:int ->
  Linalg.Vec.t ->
  Linalg.Vec.t * pick
(** [lars_scan ~norms ~active ~banned ~jlo gtr] is the LAR selection
    scan over a column window starting at global index [jlo]: the
    normalized correlations [gtr.(j) /. norms.(j)] and their {!pick}.
    Every LAR walk runs this one kernel — unsharded walks over the
    whole dictionary ([jlo = 0]), shards over their window.
    @raise Invalid_argument when [gtr] and [norms] differ in length. *)

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

type t

val create :
  ?pool:Parallel.Pool.t ->
  mode:mode ->
  shards:int ->
  sweep:Corr_sweep.sweep ->
  Polybasis.Design.Provider.t ->
  r0:Linalg.Vec.t ->
  t
(** [create ~mode ~shards ~sweep src ~r0] partitions [src]'s columns
    into [min shards (cols src)] contiguous shards and initializes
    every shard against the starting residual [r0] (incremental mode
    runs each window's initial exact sweep).  [pool] is used by
    in-image shards; process workers run single-domain pools of their
    own.  @raise Invalid_argument on [shards < 1] or a residual length
    mismatch. *)

val shutdown : t -> unit
(** Quit and reap process workers; no-op for in-image shards.  Wrap
    fits in [Fun.protect] so abandoned fleets never leak processes. *)

val shards : t -> int
(** Actual shard count after clamping to the column count. *)

val recovered : t -> int
(** Number of worker respawn+replay recoveries performed so far. *)

val raw_norms : t -> Linalg.Vec.t
(** Column norms gathered from the shards, without the [<= 0 → 1]
    fixup — bitwise [Provider.column_norms] of the full source. *)

val activate : t -> int -> Linalg.Vec.t -> unit
(** [activate t j col] marks global column [j] active (it leaves the
    entering scans) and, in incremental mode, has {e every} shard
    build its slab slice v_j = Gᵀ_win·[col] — the O(K·M) build,
    sharded, that later delta updates amortize. *)

val deactivate : t -> int -> unit
(** Lasso drop: [j] re-enters the entering scans.  Slab slices are
    retained (re-entry is free). *)

val ban : t -> int -> unit
(** Exclude [j] from every later scan (dependent-column fallback). *)

val apply_deltas : t -> (int * float) array -> unit
(** Incremental OMP/STAR update: c ← c − Σ Δβ_j·v_j on every shard's
    slice.  No-op in exact mode. *)

val refresh : t -> Linalg.Vec.t -> unit
(** Exact re-sweep of the given residual on every shard (the
    checkpoint-aligned refresh).  No-op in exact mode. *)

val select : t -> r:Linalg.Vec.t -> int * float
(** OMP/STAR selection: argmax of |⟨g_j, r⟩| over non-active,
    non-banned columns ([r] is ignored by incremental shards, which
    scan their maintained vectors).  Ties keep the lowest global
    index; [(-1, 0.)] when nothing is eligible. *)

val lars_select : t -> r:Linalg.Vec.t -> pick
(** LARS step-2 scan (see {!pick}); each shard retains its normalized
    correlation slice for the same step's {!lars_gamma}. *)

val lars_gamma : t -> cc:float -> a_a:float -> dir -> float
(** Minimum γ candidate over all shards ([infinity] when none); the
    caller folds it against the saturation step C/A and the lasso drop
    scan.  Shards retain the direction image Gᵀ·u for {!commit}. *)

val commit : t -> gamma:float -> dir:dir -> refresh:Linalg.Vec.t option -> unit
(** Advance every shard's maintained correlations by the committed
    step: c ← c − γ·(Gᵀu), then an optional exact refresh (the
    parent mirrors the non-sharded cadence).  The direction travels
    with the (logged) command so a respawned worker recomputes the
    identical Gᵀu slice from its replayed slab.  No-op in exact
    mode. *)

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
