(** Counter-mode (random-access) pseudo-random bits.

    The sequential generators in {!Prng} produce stream position [k]
    only after producing positions [0 … k−1]; a Monte-Carlo point's
    draws therefore depend on every draw before it, and skipping a
    coordinate shifts all later bits. This module removes the order
    dependence: each 64-bit output is a {e pure function} of
    [(key, point, coord, draw)], obtained by bijectively mixing the
    address into the key with the SplitMix64 finalizer (the
    Philox/Threefry idea of counter-mode generation, in its cheap
    splittable form).

    {2 Random-access determinism contract}

    - [bits64 (at key p) ~coord ~draw] depends on nothing but the four
      address components — not on which draws were made before, not on
      batch boundaries, not on how many other coordinates were drawn.
    - Hence: evaluating points in any order, partitioned into any
      batches, drawing any {e subset} of coordinates, reproduces the
      bits of a full in-order pass on the addresses it visits. This is
      what makes support-projected sampling ({!Serve.Stream} with
      [~project:true]) bitwise equal to a full-vector draw.
    - [draw] indexes the rejection substream of one coordinate: a
      rejection sampler (e.g. {!Ziggurat.normal_at}) consumes addresses
      [draw = 0, 1, 2, …] until acceptance, so each coordinate owns an
      unbounded substream and no address is ever reused.

    Keys derived from different seeds, and per-point keys of different
    points, are decorrelated by the finalizer's avalanche; the mixing
    constants are fixed — the same [(key, point, coord, draw)] yields
    the same bits in every build and at every domain count. *)

type t
(** A stream key — the immutable identity of one logical random
    stream. *)

val create : int -> t
(** [create seed] derives a key from an integer seed. Distinct from
    (and decorrelated with) [Prng.create seed]'s output stream. *)

val of_prng : Prng.t -> t
(** [of_prng g] draws one 64-bit word from [g] as the key, advancing
    [g] by exactly one output. Use this to nest a counter stream inside
    an existing seeded workflow: the key — and therefore every counter
    draw — is a deterministic function of [g]'s position. *)

val key : t -> int64
(** The raw 64-bit key (for logging/reproducing a run). *)

type point
(** A per-point key: the stream key with the point index mixed in, one
    finalizer round already applied. Hoist it with {!at} once per
    point, then address coordinates. *)

val at : t -> int -> point
(** [at t point_index] is the per-point key of Monte-Carlo point
    [point_index] (global index, not batch-relative). *)

val bits64 : point -> coord:int -> draw:int -> int64
(** [bits64 pk ~coord ~draw] is the 64-bit word at address
    [(key, point, coord, draw)] — a pure function of its arguments. *)

val float : point -> coord:int -> draw:int -> float
(** Top 53 bits of {!bits64} as a float in [0, 1) (same resolution as
    [Prng.float]). *)

val draw0_into : t -> point:int -> ?vars:int array -> int -> Bytes.t -> unit
(** [draw0_into key ~point ?vars n words] writes, for every [s] in
    [[0, n)], the word [bits64 (at key point) ~coord ~draw:0] at byte
    offset [8·s] of [words] (native byte order), where [coord] is
    [vars.(s)], or [s] itself without [?vars]. These are the first
    words of each coordinate's rejection substream — what a sampler
    that accepts on its first word (e.g. {!Ziggurat.fill_at}) needs —
    computed in one pass without boxing the point key or a word.
    @raise Invalid_argument if [n < 0], [words] is shorter than [8·n]
    bytes, or [vars] has fewer than [n] entries. *)
