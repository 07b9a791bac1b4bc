(** The greedy correlation step shared by the sparse solvers.

    Every iteration of OMP (Algorithm 1, Step 3), STAR and LAR scans the
    inner products of the current residual with all [M] dictionary
    columns — the [Gᵀ·r] sweep that dominates the paper's fitting-cost
    analysis at O(K·M) per iteration. The sweep consumes a
    {!Polybasis.Design.Provider}, so the same solver code runs against a
    materialized matrix or the matrix-free Hermite-table generator:

    - each chunk owns a contiguous column block; dense providers walk
      the row-major matrix row-by-row (the cache-friendly order),
      streamed providers take four columns per pass, each with its own
      accumulator, fusing column generation into the four dot
      products — no atomics, no shared accumulation either way;
    - each column's dot product is accumulated over rows in ascending
      order exactly as the sequential [Mat.col_dot], so every entry of
      the result is {e bitwise identical} to the sequential dense sweep
      for every domain count and either provider form;
    - the argmax combine keeps the strictly larger magnitude and, on
      exact ties, the lower column index — the same winner a sequential
      first-strictly-greater scan selects.

    Two cost levers beyond the exact sweep:

    - {b Incremental mode} ({!sweep} = [Incremental], LAR/lasso only):
      cache [v_j = Gᵀ·g_j] once when column j enters the active set;
      the LAR step's second sweep [Gᵀ·u] becomes the O(p·M)
      combination of cached columns and its correlations move by
      [c' = c − γ·Gᵀ·u] (Efron et al. 2004, §"computations"). One
      O(K·M) sweep saved per step, one paid per entering column.
      Numerically different from the exact sweep (float drift, bounded
      by the [refresh] cadence of exact re-sweeps), hence opt-in —
      solvers default to [Exact]. OMP and STAR run one sweep per step,
      which the entering column's Gram build would cost again, so they
      always sweep exactly ({!lar_only}).
    - {b Fused multi-residual sweeps} ({!gram_tr_multi} /
      {!argmax_abs_multi}): scatter the L residuals (Q fold residuals
      and one all-rows refit residual per output in fused CV) into a
      K×L lane matrix, +0 outside each residual's rows, and form each
      block of two columns' products once for every lane; each
      (column, lane) dot adds all K rows in ascending order from +0,
      and a +0 row adds nothing to it — bitwise identical to L
      independent sweeps. This is how fused CV pays streamed column
      generation once per round instead of once per fold and again
      for the refit.

    Passing no [?pool] uses {!Parallel.Pool.default}. *)

type sweep =
  | Exact  (** full O(K·M) sweep every step — bitwise reference mode *)
  | Incremental of { refresh : int }
      (** Gram-cached correlation updates for the LAR/lasso walk
          ({!lar_only}), with an exact full-sweep refresh
          every [refresh] movement steps ([0] = never refresh on
          cadence; an exact refresh still happens at every checkpoint
          emission so resumed runs stay bitwise equal to uninterrupted
          ones). *)

val default_refresh : int
(** Default refresh cadence (16 steps) for incremental mode. *)

val incremental : ?refresh:int -> unit -> sweep
(** [incremental ()] is [Incremental { refresh = default_refresh }]. *)

val sweep_of_string : string -> sweep option
(** Parses ["exact"] / ["incremental"] (default cadence). *)

val sweep_to_string : sweep -> string

val lar_only : lar:bool -> sweep -> (unit, string) result
(** [lar_only ~lar sweep] is [Error msg] when [sweep] is [Incremental]
    and the solver is not the LAR/lasso walk ([lar = false]), [Ok ()]
    otherwise — the one rule behind {!Select.omp_p},
    {!Solver.fit_cv_p}, {!Solver.fit_multi_p} and
    [Robust.Pipeline.config]. *)

val gram_tr :
  ?pool:Parallel.Pool.t ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  Linalg.Vec.t
(** [gram_tr src r] is the length-[M] vector [Gᵀ·r]. Bitwise identical
    to [Array.init m (fun j -> Mat.col_dot g j r)] on the dense form for
    every domain count.
    @raise Invalid_argument on a length mismatch. *)

val argmax_abs :
  ?pool:Parallel.Pool.t ->
  skip:bool array ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  int * float
(** [argmax_abs ~skip src r] is [(j*, |⟨G_{j*}, r⟩|)] over the columns
    with [skip.(j) = false] — the eq. (18) selection (the paper's 1/K
    factor is a monotone scaling and is left to the caller). Returns
    [(-1, 0.)] when every column is skipped or all correlations are
    zero. Deterministic for every domain count (see above).
    @raise Invalid_argument when [skip] is not of length [M] or [r] not
    of length [K]. *)

val gram_tr_multi :
  ?pool:Parallel.Pool.t ->
  Polybasis.Design.Provider.t ->
  rows:int array array ->
  Linalg.Vec.t array ->
  Linalg.Vec.t array
(** Re-export of {!Polybasis.Design.Provider.gram_tr_multi}: per-row-set
    [Gᵀ·r] with each column generated once — bitwise identical to the
    independent sweeps over each row set. *)

val argmax_abs_multi :
  ?pool:Parallel.Pool.t ->
  skips:bool array array ->
  Polybasis.Design.Provider.t ->
  rows:int array array ->
  Linalg.Vec.t array ->
  (int * float) array
(** Re-export of {!Polybasis.Design.Provider.argmax_abs_multi}: the
    fused selection kernel of the lockstep CV driver in {!Select}. *)

(** The Gram-cached incremental correlation state.

    Maintains the LAR walk's correlation vector [c = Gᵀ·r] across steps
    via cached Gram columns. Cost model per step: the direction image
    [Gᵀ·u] is the O(p·M) {!combination} instead of an O(K·M) sweep and
    {!retreat} moves [c] at O(M), so the step runs no sweep at all;
    each {e entering} column pays one O(K·M) sweep for its Gram column
    ({!ensure_gram}), and every refresh one more. Memory: O(M) per
    cached active column, O(M·p) total.

    Not bitwise: each update introduces rounding the exact sweep does
    not; the [refresh] cadence (plus a forced refresh at every
    checkpoint emission) bounds the drift, and the test suite validates
    ≤1e-10 relative agreement of the resulting models. *)
module Inc : sig
  type t

  val create :
    ?pool:Parallel.Pool.t ->
    refresh:int ->
    Polybasis.Design.Provider.t ->
    Linalg.Vec.t ->
    t
  (** [create ~refresh src r] performs one exact sweep of [r] and
      starts the maintained state. [refresh = 0] disables cadence-based
      refreshes. @raise Invalid_argument on negative [refresh]. *)

  val correlations : t -> Linalg.Vec.t
  (** The maintained [c] — a live buffer, mutated by the update calls;
      copy before storing. *)

  val ensure_gram : t -> int -> Linalg.Vec.t -> unit
  (** [ensure_gram t j col] caches [v_j = Gᵀ·col] (one O(K·M) sweep) if
      column [j] has no cached Gram column yet. [col] must be the
      materialized column [j] — the solvers pass their active-set cache
      entry, so no extra column generation happens. *)

  val combination : t -> (int * float) array -> Linalg.Vec.t
  (** [combination t terms] is [Σ w_j·v_j] for [(j, w_j)] pairs — the
      cached image [Gᵀ·u] of a direction [u = Σ w_j·g_j], O(p·M). Every
      listed column must have been {!ensure_gram}'d.
      @raise Invalid_argument otherwise. *)

  val retreat : t -> float -> Linalg.Vec.t -> unit
  (** [retreat t γ a] applies [c ← c − γ·a] for a precomputed direction
      image [a] (e.g. the {!combination} result), O(M). *)

  val note_step : t -> unit
  (** Count one completed movement step toward the refresh cadence. *)

  val due : t -> bool
  (** Whether the cadence calls for an exact refresh now. *)

  val refresh : t -> Linalg.Vec.t -> unit
  (** [refresh t r] replaces [c] by an exact sweep of [r] and resets
      the cadence counter. Solvers call this on cadence {e and} at
      every checkpoint emission, so a resumed run (which starts from an
      exact sweep at the checkpoint) stays bitwise equal to the
      uninterrupted run. *)
end
