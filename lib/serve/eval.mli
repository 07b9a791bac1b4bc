(** Compiled sparse-model evaluators: flat instruction tapes.

    The paper's end product is not the fit — it is a sparse model that
    gets {e evaluated} millions of times for parametric-yield estimation
    and corner sweeps. [Rsm.Model.predict_point] walks the support
    term-by-term and re-runs the 1-D Hermite recurrence for every factor
    of every term: a variable shared by ten terms pays for its
    polynomial values ten times per point, plus a bounds check and a
    closure call per term. This module compiles a fitted model once into
    a flat {e instruction tape} that removes all of that from the inner
    loop:

    - {b per-variable max-degree tables}: compilation scans the support
      and records, for each variable the model actually touches, the
      largest Hermite degree any term needs. Per point, the three-term
      recurrence runs {e once per touched variable} (to exactly that
      degree) into one flat value buffer — terms then share the values.
    - {b absolute-offset factor tape}: every term is three flat arrays —
      a coefficient, a factor range, and pre-resolved offsets into the
      value buffer. Evaluation is pure float loads and multiplies; no
      [Term.t] traversal, no bounds checks, no allocation.
    - {b batch-of-points layout}: {!eval_batch} processes points in
      fixed blocks with the Hermite values of a whole block laid out
      point-contiguous per (variable, degree) slot, so the per-factor
      inner loop streams cache-line-adjacent floats. Blocks chunk over a
      {!Parallel.Pool.t}.

    {2 Determinism contract}

    Compiled evaluation is {b bitwise equal} to
    [Rsm.Model.predict_point] for every model, basis and point: the tape
    preserves the support order, the factor order within each term, and
    the Hermite recurrence arithmetic exactly ({!Polybasis.Hermite.eval_all_into}
    is the same recurrence [predict_point] runs through [Term.eval]).
    {!eval_batch} assigns disjoint output indices to pool chunks, so it
    is bitwise identical to the sequential loop at every domain count.
    See SERVING.md for the full contract. *)

type t
(** A compiled evaluator tape. Immutable after compilation except for an
    internal scalar scratch buffer — {!eval_point} is therefore {e not}
    thread-safe; concurrent evaluators must use {!eval_with} with their
    own {!scratch}, which is what {!eval_batch} does internally. *)

val compile : Rsm.Model.t -> Polybasis.Basis.t -> t
(** [compile model basis] builds the tape: one pass over the support to
    collect per-variable max degrees, one to resolve factor offsets.
    O(nnz · factors) time, O(touched variables + tape length) space —
    independent of the dictionary size [M].
    @raise Invalid_argument when [Basis.size basis] disagrees with the
    model's [basis_size]. *)

val basis_size : t -> int
(** Dictionary size [M] the model was fitted against. *)

val dim : t -> int
(** Factor-space dimension [N]; the length every evaluated point must
    have. *)

val nnz : t -> int
(** Number of support terms on the tape. *)

val tape_length : t -> int
(** Total factor-instruction count (sum of factors over all terms) —
    the work per point after table fill. *)

val vars_touched : t -> int
(** Number of distinct variables the support touches — the number of
    Hermite recurrences run per point. *)

val touched_vars : t -> int array
(** The distinct variables the support touches, ascending — exactly
    the coordinates {!eval_with} reads from an evaluated point
    (returned as a fresh copy). Support-projected sampling
    ({!Stream} with the counter sampler) draws only these. *)

val max_degree : t -> int
(** Largest Hermite degree on the tape (0 for constant-only or empty
    models). *)

type scratch
(** Per-evaluator working memory for the scalar path: the flat Hermite
    value buffer. One per concurrent consumer. *)

val make_scratch : t -> scratch

val eval_with : t -> scratch -> Linalg.Vec.t -> float
(** [eval_with t s dy] evaluates the model at [dy] through the tape,
    using [s] as working memory — bitwise equal to
    [Rsm.Model.predict_point model basis dy].
    @raise Invalid_argument when [dy] has length ≠ {!dim}. *)

val eval_into : t -> scratch -> Linalg.Vec.t -> float array -> int -> unit
(** [eval_into t s dy out i] sets [out.(i)] to {!eval_with}[ t s dy],
    bitwise, without boxing the value on its way out — the streamed
    yield loops read it from the slot.
    @raise Invalid_argument as {!eval_with}, or when [i] is outside
    [out]. *)

val eval_point : t -> Linalg.Vec.t -> float
(** {!eval_with} on the tape's internal scratch. Convenient and
    allocation-free, but not thread-safe — never call it from pool
    chunks. *)

val evaluator : t -> Linalg.Vec.t -> float
(** [evaluator t] is [eval_point t] as a closure, shaped to drop into
    [Rsm.Yield.monte_carlo ~eval] as the compiled fast path. The closure
    shares the tape's internal scratch: single-threaded use only. *)

val eval_batch :
  ?pool:Parallel.Pool.t -> ?block:int -> t -> Linalg.Vec.t array -> Linalg.Vec.t
(** [eval_batch t pts] evaluates every point, blocked [block] points at
    a time (default {!default_block}) through the point-contiguous
    batch layout, chunked over [pool] (default: sequential in the
    caller). Each chunk owns its block buffers and writes a disjoint
    slice of the result, so the output is bitwise equal to
    [Array.map (eval_point t) pts] for every [pool], [block] and domain
    count.
    @raise Invalid_argument on a point of length ≠ {!dim} or
    non-positive [block]. *)

val default_block : int
(** Points per block in {!eval_batch} (256 — a few KB of block buffers
    even for high-degree tapes). *)
