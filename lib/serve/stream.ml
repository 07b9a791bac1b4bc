(* Streaming MC yield: fixed-size batches, per-batch partials combined
   sequentially in batch order. The batch grid — not the chunk grid —
   carries the random streams for the sequential polar sampler, so
   results are bitwise identical at every domain count. The
   counter-mode ziggurat sampler goes further: every draw is addressed
   by (key, global point index, coordinate), so its results are also
   invariant to the batch size, and projecting the draws onto the
   tape's touched variables changes no result bit. *)

type estimate = {
  yield : float;
  std_error : float;
  pass : int;
  samples : int;
  mean : float;
  std : float;
  batches : int;
  batch : int;
}

let default_batch = 8192

(* How a batch fills a point buffer. [Seq] consumes the batch's
   child generator in order; [Ctr] addresses each coordinate of global
   point [lo + s] directly, optionally restricted to the tape's
   touched variables (the untouched entries of [dy] stay 0 and are
   never read by the tape). *)
type filler =
  | Seq
  | Ctr of Randkit.Counter.t * int array option

(* The argument preamble of {!estimate} and {!values}, [name] being
   the caller's: check the sizes, resolve projection and derive the
   filler. Projection requires the counter-mode sampler: the
   sequential polar stream cannot skip a coordinate without shifting
   every later draw's bits. Default: project exactly when the sampler
   supports it (the projected estimate is bitwise equal to the full
   draw, so there is nothing to lose). The counter key is the one draw
   taken from [rng] before [over_batches] runs. *)
let prepare ~name ~samples ~batch ~sampler ~project t rng =
  if samples <= 0 then invalid_arg (name ^ ": samples must be positive");
  if batch <= 0 then invalid_arg (name ^ ": batch must be positive");
  match ((sampler : Randkit.Gaussian.sampler), project) with
  | Polar, (None | Some false) -> Seq
  | Polar, Some true ->
      invalid_arg
        (name ^ ": ~project:true requires the ziggurat (counter) sampler")
  | Ziggurat, Some false -> Ctr (Randkit.Counter.of_prng rng, None)
  | Ziggurat, (None | Some true) ->
      Ctr (Randkit.Counter.of_prng rng, Some (Eval.touched_vars t))

let draw_point filler brng dy words ~point =
  match filler with
  | Seq -> Randkit.Gaussian.fill brng dy
  | Ctr (key, vars) ->
      Randkit.Ziggurat.fill_at key ~point ?vars ~words dy

(* Draw every batch over the pool (or sequentially without one), four
   points at a time in draw order, evaluate each group of [m ≤ 4]
   together ({!Eval.eval_points}) and hand the values to [group b
   ~point ~m vals], where [point] is the group's first global sample
   index. The scratch, the four point buffers, the counter fill's
   [words] and [vals] are one set per chunk. Batch [b] always receives
   child [b] of the caller's generator.

   Children are derived on demand: materializing [Prng.split_n rng
   nbatches] up front costs O(batches) generator states — against the
   O(1)-memory streaming claim at 10⁸ samples. Instead each pool chunk
   replays the parent stream up to its first batch ([split] consumes
   exactly one parent output per child, so skipping [b0] outputs lands
   on child [b0]) and then splits sequentially — bit-identical children
   to [split_n], while the caller's generator advances exactly as
   before (one output per batch). *)
let over_batches ?pool ~batch ~samples ~filler t rng group =
  let nbatches = (samples + batch - 1) / batch in
  let root = Randkit.Prng.copy rng in
  for _ = 1 to nbatches do
    ignore (Randkit.Prng.bits64 rng)
  done;
  let chunk_body ~lo:b0 ~hi:b1 =
    let parent = Randkit.Prng.copy root in
    for _ = 1 to b0 do
      ignore (Randkit.Prng.bits64 parent)
    done;
    let scratch = Eval.make_scratch t in
    let dys = Array.init 4 (fun _ -> Array.make (Eval.dim t) 0.) in
    let words = Bytes.create (8 * Eval.dim t) in
    let vals = Array.make 4 0. in
    for b = b0 to b1 - 1 do
      let brng = Randkit.Prng.split parent in
      let hi = min ((b + 1) * batch) samples in
      let point = ref (b * batch) in
      while !point < hi do
        let m = min 4 (hi - !point) in
        for j = 0 to m - 1 do
          draw_point filler brng dys.(j) words ~point:(!point + j)
        done;
        Eval.eval_points t scratch dys ~lo:0 ~n:m vals ~at:0;
        group b ~point:!point ~m vals;
        point := !point + m
      done
    done
  in
  (match pool with
  | Some pool -> Parallel.Pool.parallel_for_chunks pool ~lo:0 ~hi:nbatches chunk_body
  | None -> chunk_body ~lo:0 ~hi:nbatches);
  nbatches

let estimate ?pool ?(batch = default_batch)
    ?(sampler = Randkit.Gaussian.Polar) ?project ~samples t rng spec =
  let filler =
    prepare ~name:"Serve.Stream.estimate" ~samples ~batch ~sampler ~project t
      rng
  in
  (* Per-batch partial accumulators, slotted by batch index so the
     final combine is sequential in batch order regardless of which
     domain produced which partial. *)
  let nbatches0 = (samples + batch - 1) / batch in
  let pass_of = Array.make nbatches0 0 in
  let sum_of = Array.make nbatches0 0. in
  let sumsq_of = Array.make nbatches0 0. in
  let nbatches =
    over_batches ?pool ~batch ~samples ~filler t rng (fun b ~point:_ ~m vals ->
        (* The spec test is [Rsm.Yield.passes] written out (a call
           across modules would box the value) and counted without a
           branch: where passing and failing draws are both common, a
           branch on the test mispredicts. A compare with NaN is false,
           so NaN fails, as in [passes]. *)
        let lower = spec.Rsm.Yield.lower and upper = spec.Rsm.Yield.upper in
        for j = 0 to m - 1 do
          let v = vals.(j) in
          let ok = Bool.to_int (v >= lower) land Bool.to_int (v <= upper) in
          pass_of.(b) <- pass_of.(b) + ok;
          sum_of.(b) <- sum_of.(b) +. v;
          sumsq_of.(b) <- sumsq_of.(b) +. (v *. v)
        done)
  in
  let pass = ref 0 and sum = ref 0. and sumsq = ref 0. in
  for b = 0 to nbatches - 1 do
    pass := !pass + pass_of.(b);
    sum := !sum +. sum_of.(b);
    sumsq := !sumsq +. sumsq_of.(b)
  done;
  let nf = float_of_int samples in
  let yield = float_of_int !pass /. nf in
  let mean = !sum /. nf in
  let std = sqrt (Float.max ((!sumsq /. nf) -. (mean *. mean)) 0.) in
  let std_error = sqrt (Float.max (yield *. (1. -. yield)) 0. /. nf) in
  {
    yield;
    std_error;
    pass = !pass;
    samples;
    mean;
    std;
    batches = nbatches;
    batch;
  }

let values ?pool ?(batch = default_batch)
    ?(sampler = Randkit.Gaussian.Polar) ?project ~samples t rng =
  let filler =
    prepare ~name:"Serve.Stream.values" ~samples ~batch ~sampler ~project t
      rng
  in
  let out = Array.make samples 0. in
  let (_ : int) =
    over_batches ?pool ~batch ~samples ~filler t rng (fun _ ~point ~m vals ->
        Array.blit vals 0 out point m)
  in
  out
