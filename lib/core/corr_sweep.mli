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

    {b Fused multi-residual sweeps} ({!gram_tr_multi} /
    {!argmax_abs_multi}) scatter the L residuals (Q fold residuals and
    one all-rows refit residual per output in fused CV) into a K×L lane
    matrix, +0 outside each residual's rows, and form each block of two
    columns' products once for every lane; each (column, lane) dot adds
    all K rows in ascending order from +0, and a +0 row adds nothing to
    it — bitwise identical to L independent sweeps. This is how fused
    CV pays streamed column generation once per round instead of once
    per fold and again for the refit.

    Passing no [?pool] uses {!Parallel.Pool.default}. *)

type sweep =
  | Exact  (** full O(K·M) sweep every step — the only sweep *)
(** The correlation engine of a path solver, of which there is one. A
    Gram-cached incremental engine was retired once the LAR step-length
    screen ran in every driver, sharded fits included. The type and
    {!Select.omp_p}/{!Select.lars_p}'s [?sweep] stay because the
    end-to-end benchmark passes the [Robust.Pipeline.config] field
    [sweep] to those two selectors. *)

val sweep_to_string : sweep -> string
(** ["exact"]. *)

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
