(** Ziggurat standard-normal sampling (Marsaglia & Tsang, 256 layers).

    The serving hot path draws hundreds of normals per Monte-Carlo
    point; Marsaglia polar ({!Gaussian}) pays ~4 uniforms plus a
    [log]/[sqrt] pair per accepted pair. The ziggurat spends one 64-bit
    word and one compare on the vast majority of draws — layer, sign
    and mantissa are carved from non-overlapping bits of a single word
    — falling back to the wedge test and the exact exponential-
    rejection tail only on the rare boundary cases, so the distribution
    is exactly N(0, 1), not an approximation. The sign goes on by a
    multiply with ±1, exact and without a branch on the random sign
    bit, which would mispredict on half of all draws.

    Two front-ends share the tables:

    - {!sample}/{!fill}/{!vector} consume a sequential {!Prng.t}
      (the [Gaussian.fill]-shaped API). Stream consumption differs from
      the polar sampler's, so switching samplers changes result bits —
      by design, the sampler choice is part of the recorded seed
      metadata.
    - {!normal_at} consumes a {!Counter.point}: the accepted variate is
      a pure function of [(key, point, coord)], with rejections walking
      the coordinate's private [draw] substream. This is the
      random-access form; {!fill_at} draws a point's coordinates with
      it in bulk for support-projected streaming ({!Serve.Stream}):
      drawing a subset of coordinates reproduces the full draw's bits on
      that subset. *)

val sample : Prng.t -> float
(** One N(0, 1) draw from a sequential generator. *)

val fill : Prng.t -> float array -> unit
(** [fill g out] overwrites [out] with iid N(0, 1) draws — same shape
    as [Gaussian.fill], different (ziggurat) stream consumption. *)

val vector : Prng.t -> int -> float array
(** [vector g n] is [n] iid N(0, 1) draws. *)

val normal_at : Counter.point -> coord:int -> float
(** [normal_at pk ~coord] is the N(0, 1) value of coordinate [coord] at
    the point keyed by [pk] — a pure function of
    [(key, point, coord)]. *)

val fill_at :
  Counter.t -> point:int -> ?vars:int array -> words:Bytes.t -> float array ->
  unit
(** [fill_at key ~point ?vars ~words dy] sets
    [dy.(c) <- normal_at (Counter.at key point) ~coord:c] for every
    coordinate [c] of [vars] (default: every index of [dy]), bitwise.
    The point key is formed inside {!Counter.draw0_into}, and the
    coordinates' first words are drawn in one pass into [words]
    (caller-owned scratch of at least 8 bytes per coordinate, reusable
    across calls) and decoded without allocation whenever the first
    word accepts; the rare rejection builds the point key and re-runs
    {!normal_at}. Entries
    of [dy] outside [vars] are left untouched. This is the one counter
    fill behind streamed and single-generator ziggurat Monte Carlo.
    @raise Invalid_argument if [words] is too short or a coordinate of
    [vars] is outside [dy]. *)

val tail_start : float
(** The base-strip boundary r ≈ 3.654: draws beyond it come from the
    exact exponential-rejection tail (exposed for the GOF tests). *)
