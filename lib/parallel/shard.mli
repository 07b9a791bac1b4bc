(** Contiguous column-shard plans and deterministic result merging.

    The sharded sweep engine partitions a dictionary of [n] columns
    into contiguous ranges, lets every shard scan its own range with
    the ordinary sequential kernels, and merges the per-shard results
    with a {e fixed-shape} tree reduction. Because the tree shape is a
    pure function of the shard count and every combine used by the
    engine is exact, associative and left-biased (max, min, argmax
    with strict-greater tie-breaking), the merged result is bitwise
    identical to one sequential scan over [0, n) — for {e every} shard
    count. *)

type range = { lo : int; hi : int }
(** A half-open column range [lo, hi). *)

val width : range -> int

val ranges : n:int -> shards:int -> range array
(** [ranges ~n ~shards] partitions [0, n) into at most [shards]
    contiguous ranges using the pool chunker's boundary formula
    (shard [c] owns [c·n/s, (c+1)·n/s)); the count is clamped to [n]
    so no range is empty (except the single range of [n = 0]). The
    concatenation of the ranges in order is exactly [0, n).
    @raise Invalid_argument on negative [n] or non-positive [shards]. *)

val tree_reduce : ('a -> 'a -> 'a) -> 'a array -> 'a
(** [tree_reduce f parts] combines [parts] with a balanced binary tree
    whose shape depends only on [Array.length parts]: adjacent pairs
    first, order preserved between levels, odd tails passed through.
    For associative [f] that keeps its left argument on ties this
    equals [Array.fold_left f parts.(0) (rest)] — the sequential merge.
    @raise Invalid_argument on an empty array. *)

val merge_argmax : (int * float) array -> int * float
(** [merge_argmax parts] is the {!tree_reduce} of the sweep's selection
    merge — keep the strictly larger magnitude, and on an exact tie the
    left candidate, the column a sequential first-strictly-greater scan
    picks: the global [(argmax, |corr|)] from per-shard local winners,
    bitwise equal to the sequential scan when the shards cover [0, n)
    in ascending order. *)
