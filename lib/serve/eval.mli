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
      The recurrence's constants √k are a table computed at compile
      time.
    - {b absolute-offset factor tape}: every term is three flat arrays —
      a coefficient, a factor range, and pre-resolved offsets into the
      value buffer. Evaluation is pure float loads and multiplies; no
      [Term.t] traversal, no bounds checks, no allocation.
    - {b four points per pass}: {!eval_points} fills four points'
      value buffers, then runs every term as four independent product
      chains into four accumulators, so four term sums advance as
      independent add chains. {!eval_batch} runs it over
      {!Parallel.Pool.t} chunks and [Serve.Stream] over its draws.

    {2 Determinism contract}

    Compiled evaluation is {b bitwise equal} to
    [Rsm.Model.predict_point] for every model, basis and point: the tape
    preserves the support order, the factor order within each term, and
    the Hermite recurrence arithmetic exactly ({!Polybasis.Hermite.eval_all_into}
    is the same recurrence [predict_point] runs through [Term.eval]).
    The four-point kernel keeps each point's operations in that order,
    and {!eval_batch} assigns disjoint output indices to pool chunks, so
    every output is bitwise the scalar one at every point count and
    domain count.
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
(** Per-evaluator working memory: four flat Hermite value buffers, one
    per point of a pass (the scalar path uses the first). One per
    concurrent consumer. *)

val make_scratch : t -> scratch

val eval_with : t -> scratch -> Linalg.Vec.t -> float
(** [eval_with t s dy] evaluates the model at [dy] through the tape,
    using [s] as working memory — bitwise equal to
    [Rsm.Model.predict_point model basis dy].
    @raise Invalid_argument when [dy] has length ≠ {!dim}. *)

val eval_points :
  t -> scratch -> Linalg.Vec.t array -> lo:int -> n:int -> float array ->
  at:int -> unit
(** [eval_points t s pts ~lo ~n out ~at] sets [out.(at + i)] to
    {!eval_with}[ t s pts.(lo + i)], bitwise, for [0 ≤ i < n]: four
    points per pass, the [n mod 4] tail through {!eval_with}. Values go
    into [out] unboxed.
    @raise Invalid_argument as {!eval_with}, or when an index falls
    outside [pts] or [out]. *)

val eval_point : t -> Linalg.Vec.t -> float
(** {!eval_with} on the tape's internal scratch. Convenient and
    allocation-free, but not thread-safe — never call it from pool
    chunks. *)

val eval_batch : ?pool:Parallel.Pool.t -> t -> Linalg.Vec.t array -> Linalg.Vec.t
(** [eval_batch t pts] evaluates every point through {!eval_points},
    chunked over [pool] (default: sequential in the caller). Each chunk
    owns its scratch and writes a disjoint slice of the result, so the
    output is bitwise equal to [Array.map (eval_point t) pts] for every
    [pool] and domain count, wherever the chunk edges fall.
    @raise Invalid_argument on a point of length ≠ {!dim}. *)

(** {2 Loading a served model} *)

type loaded = {
  digest : int64;  (** content digest of the model file's bytes *)
  model : Rsm.Model.t;  (** parsed model, with its {!Rsm.Model.notes} *)
  tape : t;  (** compiled evaluator *)
}

val load : ?expect:int64 -> Polybasis.Basis.t -> string -> (loaded, string) result
(** [load basis path] reads the model file at [path], digests its bytes
    ({!Rsm.Serialize.digest_string}, FNV-1a 64), parses them and
    compiles the model over [basis]. With [~expect:d], a file whose
    digest is not [d] is rejected before any parse (digest-mismatch
    rejection): a swapped or corrupted file is refused instead of
    silently compiled and served. IO failures, parse failures and a
    model whose [basis_size] disagrees with [basis] are all reported as
    [Error]. *)
