(** Design-matrix assembly.

    Builds the matrix [G] of eq. (6)–(8): [G(k, m) = g_m(ΔY^{(k)})] for
    [K] sample rows and [M] basis functions. For the paper's large cases
    the dense matrix is the dominant memory cost (e.g. 1000 × 21 311 ≈
    170 MB), so two forms exist: the materialized [Mat.t] built here,
    and the matrix-free {!Provider} that streams column blocks on demand
    from per-sample Hermite tables (peak memory [O(K)] scratch per
    domain plus [O(K·N·(order+1))] tables, independent of [M]). *)

val matrix : ?pool:Parallel.Pool.t -> Basis.t -> Linalg.Mat.t -> Linalg.Mat.t
(** [matrix b samples] for [samples] of shape [K×N] is the [K×M] design
    matrix, built as {!matrix_rows} builds it.
    @raise Invalid_argument when [N ≠ Basis.dim b]. *)

val matrix_rows :
  ?pool:Parallel.Pool.t -> Basis.t -> Linalg.Vec.t array -> Linalg.Mat.t
(** Same, from an array of sample vectors. The entries come from the
    {!Provider}'s own generator: the sample-innermost Hermite tables
    are built once, every term is compiled to table offsets, and each
    column is generated straight into its row-major slots. Columns are
    chunked over [pool] (default: the shared {!Parallel.Pool.default}
    pool), each chunk owning whole columns, so the result is bitwise
    identical for every domain count. Row [i] equals {!row}[ b
    samples.(i)] bit for bit. Non-finite points are accepted: their
    NaN or infinite entries land where {!row} puts them.
    @raise Invalid_argument when a sample's length is not
    [Basis.dim b]. *)

val row : Basis.t -> Linalg.Vec.t -> Linalg.Vec.t
(** [row b dy] is one design row (alias of [Basis.eval_point]): the
    per-point evaluation through [Basis.fill_tables] and
    [Term.eval_tables], kept independent of the table generator behind
    {!matrix_rows} and {!Provider} as their reference. *)

val column_norms : ?pool:Parallel.Pool.t -> Linalg.Mat.t -> Linalg.Vec.t
(** Euclidean norm of every column — used by LAR's normalization and to
    sanity-check conditioning of the sampled dictionary. Columns are
    chunked over [pool]; each column's sum of squares accumulates over
    rows in ascending order, so the result is bitwise identical to the
    sequential loop for every domain count. *)

(** A design-matrix source the solvers consume without knowing whether
    the matrix is materialized.

    [Dense] wraps an existing [Mat.t]. [Streamed] generates any column
    on demand from cached 1-D Hermite value tables — [K·N·(order+1)]
    floats built once per fit by the same three-term recurrence as
    {!Basis.fill_tables}, laid out sample-innermost so per-column sweeps
    read contiguous memory. Every term is pre-compiled to absolute
    table offsets, so the correlation sweep's inner loop is pure float
    loads and multiplies.

    {b Bitwise contract}: every design entry, streamed or in the dense
    matrix of {!matrix_rows} (which is built by the same generator),
    equals the entry of {!row} on that sample bit for bit (same
    recurrence, same product order as [Term.eval_tables]), and every
    kernel below accumulates whole columns over rows in ascending
    order. The one-residual streamed sweep takes four columns per pass
    and the multi-residual lane kernel two columns against up to five
    residuals; each dot keeps its own accumulator adding its rows in
    ascending order from +0. The dense kernel takes four visited rows
    per pass and adds their products to each output slot in ascending
    row order between one load and one store of the slot. So the
    blocking interleaves independent dots, or groups a dot's additions
    without reordering them, and changes no bit. Dense and streamed
    providers therefore yield bitwise-identical sweeps, norms, dots —
    and hence identical solver paths — at every domain count. *)
module Provider : sig
  type t

  val dense : Linalg.Mat.t -> t
  (** Wrap a materialized design matrix; all kernels delegate to the
      existing dense implementations. *)

  val streamed : Basis.t -> Linalg.Vec.t array -> t
  (** [streamed b samples] is the matrix-free provider for the design
      matrix {!matrix_rows}[ b samples], built without materializing
      it. Every design entry must be finite: the multi-residual sweeps
      add [x·(+0)] for each row outside a residual's row set, which
      leaves a sum unchanged only for a finite [x].
      @raise Invalid_argument on sample-dimension mismatch, naming the
      first non-finite Hermite table entry (sample, variable, degree),
      or naming a column whose factors' largest table magnitudes
      multiply to a non-finite bound. *)

  val rows : t -> int
  (** Sample count [K]. *)

  val cols : t -> int
  (** Basis-function count [M]. *)

  val is_streamed : t -> bool

  val to_dense : ?pool:Parallel.Pool.t -> t -> Linalg.Mat.t
  (** The full [K×M] matrix. Free for [Dense]; for [Streamed],
      materializes it from the provider's own tables exactly as
      {!matrix_rows} does — only call this on paths that genuinely
      need the dense form. *)

  val select_rows : t -> int array -> t
  (** Row-subset provider (the CV folds). [Dense] gathers rows;
      [Streamed] rebuilds the Hermite tables over the sample subset —
      bitwise identical to gathering rows of the materialized matrix —
      through {!streamed}, with its checks. *)

  val window : t -> jlo:int -> jhi:int -> t
  (** [window p ~jlo ~jhi] is the column-range view [jlo, jhi) of [p],
      reindexed to local columns [0 … jhi−jlo−1] — the per-shard unit
      of the sharded sweep engine. [Streamed] windows share the
      parent's Hermite value table (K·N·(order+1) floats, independent
      of M) and slice the compiled terms, so S windows cost O(M)
      pointer copies total; [Dense] copies the column block. Window
      column [j] is generated by exactly the float sequence of parent
      column [jlo + j], so every kernel on the window is bitwise equal
      to the corresponding slice of the full-provider kernel.
      @raise Invalid_argument on an empty or out-of-bounds range. *)

  val spec : t -> [ `Dense of Linalg.Mat.t | `Streamed of Basis.t * Linalg.Vec.t array ]
  (** The construction recipe — basis and samples for [Streamed], the
      matrix for [Dense]. Process-sharded fitting ships a term slice of
      the recipe to each worker, which rebuilds its window from scratch
      (bitwise-identical Hermite recurrences) in its own address
      space. *)

  val column : t -> int -> Linalg.Vec.t
  (** [column p j] is a fresh copy of column [j]. *)

  val column_into : t -> int -> Linalg.Vec.t -> unit
  (** [column_into p j buf] writes column [j] into the caller's reusable
      [K]-length buffer — from a dense provider's column-major image
      once {!col_dots} has built it. *)

  val columns : t -> int array -> Linalg.Mat.t
  (** [columns p idx] materializes the listed columns as a small
      [K×|idx|] matrix (the active-set cache of the matrix-free
      solvers). *)

  val col_dot : t -> int -> Linalg.Vec.t -> float
  (** [col_dot p j x] is [⟨column j, x⟩], rows ascending — bitwise
      [Mat.col_dot] on the dense form. *)

  val col_col_dot : t -> int -> int -> float
  (** [⟨column i, column j⟩] — bitwise [Mat.col_col_dot] on the dense
      form. *)

  val column_norms : ?pool:Parallel.Pool.t -> t -> Linalg.Vec.t
  (** Euclidean norm of every column; bitwise equal to
      {!column_norms} of the dense form at every domain count. *)

  (** {2 The correlation sweep}

      Every iteration of OMP (Algorithm 1, Step 3), STAR and LAR scans
      the inner products of the current residual with all [M] columns:
      the [Gᵀ·r] sweep that dominates the paper's fitting-cost analysis
      at O(K·M) per iteration. The kernels below chunk the columns over
      [pool] ({!Parallel.Pool.default} when none is passed): each chunk
      owns a contiguous column block and writes only its own slots, with
      no atomics and no shared accumulation, so every slot is bitwise
      the sequential [Mat.col_dot] for every domain count and either
      provider form. An argmax combine keeps the strictly larger
      magnitude and, on exact ties, the lower column index — the winner
      a sequential first-strictly-greater scan selects. *)

  val gram_tr : ?pool:Parallel.Pool.t -> t -> Linalg.Vec.t -> Linalg.Vec.t
  (** [gram_tr p r] is the full correlation sweep [Gᵀ·r] (OMP step 3 /
      LAR step 2), column-chunked over [pool]. Streamed providers sweep
      four columns per pass, fusing generation into the four dot
      products so quadratic columns are never stored; dense providers
      stream the row-major matrix four rows per pass, loading and
      storing each output slot once per four rows. Bitwise identical
      dense vs streamed at every domain count. *)

  val col_dots :
    ?pool:Parallel.Pool.t -> t -> int array -> Linalg.Vec.t -> Linalg.Vec.t -> unit
  (** [col_dots p idx r out] sets [out.(t)] to slot [idx.(t)] of
      {!gram_tr}[ p r], bit for bit, for every [t]: the sweep restricted
      to a column subset (LAR's carried correlations and screened step
      lengths). Each slot is one column's whole dot, adding its rows in
      ascending order from +0; slots are chunked over [pool], which
      changes no bit. A dense provider reads a column-major image of its
      matrix, four columns per pass, so a subset's dots touch only its
      own columns' memory; the image (K·M floats, as much again as the
      matrix) is built on the first call and kept, and every build
      writes the same entries, so the results do not depend on which
      domain built it. The full sweeps keep reading the row-major
      matrix. Streamed providers generate each listed column and add
      its products in its own accumulator. [idx] may repeat or be empty.
      @raise Invalid_argument on a length mismatch or an out-of-bounds
      column. *)

  val argmax_abs :
    ?pool:Parallel.Pool.t -> skip:bool array -> t -> Linalg.Vec.t -> int * float
  (** [argmax_abs ~skip p r] is [(j*, |⟨g_{j*}, r⟩|)] over columns with
      [skip.(j) = false], or [(-1, 0.)] when all are skipped. Ties keep
      the lowest column index (strict [>] scan; earlier chunk wins the
      combine), matching a sequential left-to-right scan. *)

  val gram_tr_multi :
    ?pool:Parallel.Pool.t ->
    t ->
    rows:int array array ->
    Linalg.Vec.t array ->
    Linalg.Vec.t array
  (** [gram_tr_multi p ~rows rs] is the fused multi-residual sweep: for
      each residual [q], the correlation vector
      [gram_tr (select_rows p rows.(q)) rs.(q)] without copying the
      rows. A streamed provider scatters the L residuals once per call
      into a row-major K×L lane matrix — lane [q] holds [rs.(q)] at
      the rows [rows.(q)] and +0 at every other row — and runs one
      lane kernel: for each block of two columns it forms every row's
      products once, inline from the Hermite tables ([Many] terms and
      the odd tail column through scratch), and adds them into up to
      five lanes per pass, so matrix-free CV pays column generation
      once per round for every fold and refit walk. A lane dot visits
      all K rows in ascending order from +0; a row outside its set adds
      [x·(+0) = ±0], which leaves a sum that started at +0 unchanged
      for a finite [x] ({!streamed} guarantees it). A dense provider
      runs the row-streaming sweep of {!gram_tr} once per residual,
      over its rows only, four consecutive rows of the set per pass. The result is bitwise identical to the L
      independent sweeps at every domain count. Row sets must be
      strictly ascending (what {!Stat.Crossval.fold_indices}
      produces); a set may hold every row.
      @raise Invalid_argument on empty input, count/length mismatches,
      or non-ascending/out-of-range rows. *)

  val argmax_abs_multi :
    ?pool:Parallel.Pool.t ->
    skips:bool array array ->
    t ->
    rows:int array array ->
    Linalg.Vec.t array ->
    (int * float) array
  (** [argmax_abs_multi ~skips p ~rows rs] is per-residual
      {!argmax_abs}[ ~skip:skips.(q) (select_rows p rows.(q)) rs.(q)]
      with the same lane kernel and the same bitwise guarantee as
      {!gram_tr_multi} (strict [>], earlier chunk wins ties). This is
      the selection kernel of the fused lockstep CV driver in
      [Rsm.Select]. *)

  (** Per-fit cache of materialized active-set columns. The greedy
      solvers touch a few hundred columns out of up to ~10⁵; caching
      them (K floats each) keeps the active-set work (cross products,
      re-fit residuals, direction updates) dense-speed without the full
      matrix. Not thread-safe — one cache per solver invocation. *)
  module Cache : sig
    type provider := t

    type t

    val create : provider -> t

    val column : t -> int -> Linalg.Vec.t
    (** Materialize-once copy of column [j]; later calls return the same
        array. Treat it as read-only. *)

    val col_dot : t -> int -> Linalg.Vec.t -> float
    (** [Vec.dot] of the cached column against [x] — bitwise
        {!Provider.col_dot}. *)

    val col_col_dot : t -> int -> int -> float
    (** [Vec.dot] of two cached columns — bitwise
        {!Provider.col_col_dot}. *)
  end
end
