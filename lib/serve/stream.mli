(** Streaming Monte-Carlo yield estimation over compiled tapes.

    The serving workload the paper motivates: once the response surface
    is analytic, parametric yield comes from 10⁷–10⁸ cheap model
    evaluations instead of transistor-level simulation. This module is
    the library's one model Monte-Carlo driver — [rsm yield] runs it on
    a freshly fitted model and on a served one alike. It pulls that
    point stream through the domain pool in fixed-size
    batches without ever materializing the point set: each pool chunk
    owns four reusable point buffers and one evaluator scratch, and
    evaluates the points four at a time ({!Eval.eval_points}), so peak
    memory is O(dim · lanes) however many samples flow.

    {2 Samplers}

    [?sampler] selects how the standard-normal points are drawn:

    - [Polar] (default): the historical sequential sampler. Batch [b]
      draws from child [b] of the caller's generator (children now
      derived on demand, not materialized — same bits as the original
      [Prng.split_n] scheme).
    - [Ziggurat]: the counter-mode engine. One key is drawn from the
      caller's generator ({!Randkit.Counter.of_prng}); every coordinate
      of every point is then a pure function of
      [(key, global point index, coordinate)]
      ({!Randkit.Ziggurat.normal_at}).

    [?project] (counter sampler only; default on with it) draws only
    the coordinates the tape actually reads ({!Eval.touched_vars})
    instead of all [dim] — the sparsity dividend of the paper's
    selection step applied to sampling. Because the counter addresses
    each coordinate independently, the projected estimate is {b bitwise
    equal} to the full-vector draw; the only change is that draw work
    scales with the support, not the ambient dimension.

    {2 Determinism contract}

    Per-batch partials (pass counts, value sums) are always combined
    sequentially in batch-index order after the parallel phase, so both
    samplers are {b bitwise identical at every domain count}:

    - [Polar] estimates depend only on [(seed, samples, batch)].
      Changing [batch] re-partitions the stream and is {e expected} to
      change the draws (record the batch size next to the seed).
    - [Ziggurat] draws depend only on [(seed, samples)] — the batch
      grid carries no randomness, so the value stream ({!values}),
      [yield], [std_error] and [pass] are additionally invariant to the
      batch size and to projection. The [mean]/[std] moments fold
      per-batch partial sums in batch order; for a {e fixed} batch they
      too are bitwise stable (and identical projected vs full), but
      changing the batch size regroups that floating-point summation
      and may move their last ulp.

    The two samplers consume different streams and agree statistically,
    never bitwise. The evaluator itself is bitwise equal to
    term-by-term [Rsm.Model.predict_point] (see {!Eval}). *)

type estimate = {
  yield : float;  (** pass fraction against the spec window *)
  std_error : float;  (** binomial standard error √(y(1−y)/n) *)
  pass : int;  (** samples inside the spec window *)
  samples : int;
  mean : float;  (** mean of the model values *)
  std : float;  (** population standard deviation of the model values *)
  batches : int;
  batch : int;  (** batch size the stream was partitioned by *)
}

val default_batch : int
(** 8192 samples per batch: large enough to amortize per-batch setup,
    small enough that 10⁸ samples spread over thousands of pool
    tasks. *)

val estimate :
  ?pool:Parallel.Pool.t ->
  ?batch:int ->
  ?sampler:Randkit.Gaussian.sampler ->
  ?project:bool ->
  samples:int ->
  Eval.t ->
  Randkit.Prng.t ->
  Rsm.Yield.spec ->
  estimate
(** [estimate ~samples tape rng spec] streams [samples] standard-normal
    factor draws through the compiled tape and scores them against
    [spec]. Batches run over [pool] (default: sequential); the result
    is bitwise identical for every domain count. [?sampler] and
    [?project] as described above.
    @raise Invalid_argument when [samples ≤ 0], [batch ≤ 0], or
    [~project:true] is combined with the polar sampler. *)

val values :
  ?pool:Parallel.Pool.t ->
  ?batch:int ->
  ?sampler:Randkit.Gaussian.sampler ->
  ?project:bool ->
  samples:int ->
  Eval.t ->
  Randkit.Prng.t ->
  Linalg.Vec.t
(** [values ~samples tape rng] is the raw model-value stream (for
    histograms, moments and quantiles), materialized: the draws
    {!estimate} scores, from the same arguments. Entry [b·batch + s] is draw [s] of
    batch [b] (polar) or the value at global point [b·batch + s]
    (ziggurat), so the array is bitwise identical at every domain
    count.
    @raise Invalid_argument as in {!estimate}. *)
