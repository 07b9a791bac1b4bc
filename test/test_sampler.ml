(* The counter-based sampling engine: random-access PRNG purity,
   ziggurat goodness of fit, and the support-projected streaming
   contract.

   The load-bearing claims are bitwise: a counter draw depends only on
   its (key, point, coord, draw) address — never on visit order — so a
   support-projected streamed yield equals the full-vector draw bit for
   bit at every batch size and domain count, and the refactored polar
   path reproduces the historical Prng.split_n stream exactly. *)

open Test_util

(* --- counter: position purity ---------------------------------------- *)

let addr_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* addrs =
      list_size (int_range 1 40)
        (triple (int_range 0 100_000) (int_range 0 500) (int_range 0 8))
    in
    let* shuffle_seed = int_range 1 1_000_000 in
    return (seed, addrs, shuffle_seed))

let arbitrary_addrs =
  QCheck.make addr_gen ~print:(fun (seed, addrs, sh) ->
      Printf.sprintf "seed=%d n=%d shuffle=%d" seed (List.length addrs) sh)

let counter_suite =
  [
    qtest ~count:200 "draws are position-pure (visit order irrelevant)"
      arbitrary_addrs (fun (seed, addrs, shuffle_seed) ->
        let key = Randkit.Counter.create seed in
        let draw (p, c, d) =
          Randkit.Counter.bits64 (Randkit.Counter.at key p) ~coord:c ~draw:d
        in
        let in_order = List.map draw addrs in
        let shuffled = Array.of_list addrs in
        Randkit.Prng.shuffle (Randkit.Prng.create shuffle_seed) shuffled;
        (* Visit the same addresses in a different order, interleaved
           with unrelated draws; then re-read in the original order. *)
        Array.iter
          (fun a ->
            ignore (draw a);
            ignore (draw (1_000_000, 999, 9)))
          shuffled;
        List.map draw addrs = in_order);
    case "of_prng consumes exactly one parent output" (fun () ->
        let g1 = Randkit.Prng.create 2026 in
        let g2 = Randkit.Prng.create 2026 in
        let key = Randkit.Counter.of_prng g1 in
        let expected = Randkit.Prng.bits64 g2 in
        check_bool "key is the parent's next word" true
          (Randkit.Counter.key key = expected);
        check_bool "parent streams re-align" true
          (Randkit.Prng.bits64 g1 = Randkit.Prng.bits64 g2));
    case "distinct seeds / points / coords decorrelate" (fun () ->
        let k1 = Randkit.Counter.create 1 in
        let k2 = Randkit.Counter.create 2 in
        let b k p c = Randkit.Counter.bits64 (Randkit.Counter.at k p) ~coord:c ~draw:0 in
        check_bool "seed" true (b k1 0 0 <> b k2 0 0);
        check_bool "point" true (b k1 0 0 <> b k1 1 0);
        check_bool "coord" true (b k1 0 0 <> b k1 0 1));
    qtest ~count:200 "float is in [0, 1)"
      QCheck.(triple (int_bound 10_000) (int_bound 500) small_nat)
      (fun (p, c, d) ->
        let key = Randkit.Counter.create 77 in
        let u = Randkit.Counter.float (Randkit.Counter.at key p) ~coord:c ~draw:d in
        u >= 0. && u < 1.);
  ]

(* --- ziggurat: goodness of fit --------------------------------------- *)

(* Fixed seeds keep these deterministic; the thresholds are ~3x the
   expected KS/moment noise at n = 20 000, so they would only trip on a
   real distributional defect. *)
let gof_check name xs =
  let n = Array.length xs in
  let ks = Gof.ks_normal ~mean:0. ~sigma:1. xs in
  check_bool (name ^ ": KS vs N(0,1) small") true (ks < 1.95 /. sqrt (float_of_int n));
  check_bool (name ^ ": mean near 0") true
    (abs_float (Stat.Descriptive.mean xs) < 0.03);
  check_bool (name ^ ": std near 1") true
    (abs_float (Stat.Descriptive.std xs -. 1.) < 0.03)

let ziggurat_suite =
  [
    case "sequential sampler passes KS + moment GOF" (fun () ->
        gof_check "seq" (Randkit.Ziggurat.vector (Randkit.Prng.create 31) 20_000));
    case "counter sampler passes KS + moment GOF" (fun () ->
        let key = Randkit.Counter.create 32 in
        gof_check "ctr"
          (Array.init 20_000 (fun s ->
               Randkit.Ziggurat.normal_at (Randkit.Counter.at key s) ~coord:5)));
    case "tail beyond r is exercised and exact" (fun () ->
        (* P(|X| > r) ≈ 2.6e-4: 100k draws yield ~26 tail values. *)
        let xs = Randkit.Ziggurat.vector (Randkit.Prng.create 33) 100_000 in
        let tail =
          Array.fold_left
            (fun acc x ->
              if abs_float x > Randkit.Ziggurat.tail_start then acc + 1 else acc)
            0 xs
        in
        check_bool "tail hit" true (tail > 5 && tail < 80);
        Array.iter
          (fun x -> check_bool "finite" true (Float.is_finite x))
          xs);
    case "fill consumes the same stream as repeated sample" (fun () ->
        let g1 = Randkit.Prng.create 34 in
        let g2 = Randkit.Prng.create 34 in
        let out = Array.make 257 0. in
        Randkit.Ziggurat.fill g1 out;
        let expected = Array.init 257 (fun _ -> Randkit.Ziggurat.sample g2) in
        check_bool "bitwise" true (out = expected));
    case "Gaussian.fill_with dispatches by sampler" (fun () ->
        let out_p = Array.make 64 0. and out_z = Array.make 64 0. in
        Randkit.Gaussian.fill_with Randkit.Gaussian.Polar
          (Randkit.Prng.create 35) out_p;
        Randkit.Gaussian.fill_with Randkit.Gaussian.Ziggurat
          (Randkit.Prng.create 35) out_z;
        let expected_p = Array.make 64 0. and expected_z = Array.make 64 0. in
        Randkit.Gaussian.fill (Randkit.Prng.create 35) expected_p;
        Randkit.Ziggurat.fill (Randkit.Prng.create 35) expected_z;
        check_bool "polar" true (out_p = expected_p);
        check_bool "ziggurat" true (out_z = expected_z);
        check_bool "different streams" true (out_p <> out_z));
  ]

(* --- streaming: projection and bit-compat ---------------------------- *)

(* A model over a 40-dim quadratic basis touching only a few variables,
   so projection has something to skip. *)
let fixture () =
  let basis = Polybasis.Basis.quadratic 40 in
  let m = Polybasis.Basis.size basis in
  let g = Randkit.Prng.create 99 in
  let support = Randkit.Sampling.subsample g (Array.init m Fun.id) 12 in
  Array.sort compare support;
  let coeffs = Array.map (fun _ -> Randkit.Gaussian.sample g) support in
  let model = Rsm.Model.make ~basis_size:m ~support ~coeffs in
  (model, basis, Serve.Eval.compile model basis)

let spec = Rsm.Yield.spec_both ~lower:(-1.5) ~upper:1.5

(* The historical over_batches scheme, verbatim: materialized split_n
   children, sequential polar fill. The refactored on-demand derivation
   must reproduce it bit for bit. *)
let reference_polar_estimate ~batch ~samples tape rng spec =
  let nbatches = (samples + batch - 1) / batch in
  let rngs = Randkit.Prng.split_n rng nbatches in
  let scratch = Serve.Eval.make_scratch tape in
  let dy = Array.make (Serve.Eval.dim tape) 0. in
  let pass = ref 0 and sum = ref 0. and sumsq = ref 0. in
  for b = 0 to nbatches - 1 do
    let n = min batch (samples - (b * batch)) in
    (* per-batch partials, folded in batch order — the historical
       combine structure *)
    let bpass = ref 0 and bsum = ref 0. and bsumsq = ref 0. in
    for _ = 1 to n do
      Randkit.Gaussian.fill rngs.(b) dy;
      let v = Serve.Eval.eval_with tape scratch dy in
      if Rsm.Yield.passes spec v then incr bpass;
      bsum := !bsum +. v;
      bsumsq := !bsumsq +. (v *. v)
    done;
    pass := !pass + !bpass;
    sum := !sum +. !bsum;
    sumsq := !sumsq +. !bsumsq
  done;
  (!pass, !sum, !sumsq)

let stream_suite =
  [
    case "polar path bitwise reproduces the split_n stream" (fun () ->
        let _, _, tape = fixture () in
        let rng = Randkit.Prng.create 123 in
        let rng_ref = Randkit.Prng.create 123 in
        let e = Serve.Stream.estimate ~batch:100 ~samples:1234 tape rng spec in
        let pass, sum, sumsq =
          reference_polar_estimate ~batch:100 ~samples:1234 tape rng_ref spec
        in
        check_int "pass" pass e.Serve.Stream.pass;
        let nf = 1234. in
        check_bool "mean bitwise" true (e.Serve.Stream.mean = sum /. nf);
        let mean = sum /. nf in
        check_bool "std bitwise" true
          (e.Serve.Stream.std
          = sqrt (Float.max ((sumsq /. nf) -. (mean *. mean)) 0.));
        (* The caller's generator must advance exactly as split_n did:
           one output per batch. *)
        check_bool "caller rng position preserved" true
          (Randkit.Prng.bits64 rng = Randkit.Prng.bits64 rng_ref));
    qtest ~count:40 "projected == full draw (bitwise), any batch, 1/2 domains"
      QCheck.(pair (int_range 1 1_000_000) (int_range 16 300))
      (fun (seed, batch) ->
        let _, _, tape = fixture () in
        let samples = 700 in
        let est ?pool ~project batch =
          Serve.Stream.estimate ?pool ~batch
            ~sampler:Randkit.Gaussian.Ziggurat ~project ~samples tape
            (Randkit.Prng.create seed) spec
        in
        let full = est ~project:false batch in
        let projected = est ~project:true batch in
        let projected_other_batch = est ~project:true (batch + 13) in
        let pooled =
          Parallel.Pool.with_pool ~domains:2 (fun pool ->
              est ~pool ~project:true batch)
        in
        (* For a fixed batch, every statistic matches bitwise; across
           batch sizes the draws (hence yield/pass/se) still match,
           while mean/std regroup the per-batch partial sums. *)
        let stats e =
          Serve.Stream.(e.yield, e.std_error, e.pass, e.mean, e.std)
        in
        let invariant e = Serve.Stream.(e.yield, e.std_error, e.pass) in
        stats full = stats projected
        && stats projected = stats pooled
        && invariant projected = invariant projected_other_batch);
    case "projected == full (bitwise) at 1/2/4 domains" (fun () ->
        let _, _, tape = fixture () in
        let run domains project =
          Parallel.Pool.with_pool ~domains (fun pool ->
              Serve.Stream.estimate ~pool ~samples:20_000
                ~sampler:Randkit.Gaussian.Ziggurat ~project tape
                (Randkit.Prng.create 7) spec)
        in
        let base = run 1 true in
        List.iter
          (fun domains ->
            check_bool "projected invariant" true (run domains true = base);
            check_bool "full == projected" true (run domains false = base))
          [ 1; 2; 4 ]);
    case "values: projected == full (bitwise)" (fun () ->
        let _, _, tape = fixture () in
        let vals project =
          Serve.Stream.values ~samples:3_000 ~batch:256
            ~sampler:Randkit.Gaussian.Ziggurat ~project tape
            (Randkit.Prng.create 11)
        in
        check_bool "bitwise" true (vals true = vals false));
    case "Yield ziggurat == Stream ziggurat (bitwise cross-path)" (fun () ->
        let model, basis, tape = fixture () in
        let e =
          Serve.Stream.estimate ~samples:5_000
            ~sampler:Randkit.Gaussian.Ziggurat tape (Randkit.Prng.create 55)
            spec
        in
        let y, se =
          Rsm.Yield.monte_carlo ~samples:5_000
            ~eval:(Serve.Eval.evaluator tape)
            ~sampler:Randkit.Gaussian.Ziggurat
            ~touched:(Serve.Eval.touched_vars tape) model basis
            (Randkit.Prng.create 55) spec
        in
        check_bool "yield bitwise" true (y = e.Serve.Stream.yield);
        check_bool "se bitwise" true (se = e.Serve.Stream.std_error));
    case "Yield: ~touched == full draw, polar default unchanged" (fun () ->
        let model, basis, tape = fixture () in
        let mc ?touched () =
          Rsm.Yield.monte_carlo_values ~samples:2_000
            ~sampler:Randkit.Gaussian.Ziggurat ?touched model basis
            (Randkit.Prng.create 5)
        in
        check_bool "projected values bitwise" true
          (mc ~touched:(Serve.Eval.touched_vars tape) () = mc ());
        (* The polar path must keep the historical stream: one
           Gaussian.vector per sample. *)
        let n = Polybasis.Basis.dim basis in
        let g = Randkit.Prng.create 6 in
        let expected =
          Array.init 50 (fun _ ->
              Rsm.Model.predict_point model basis (Randkit.Gaussian.vector g n))
        in
        let got =
          Rsm.Yield.monte_carlo_values ~samples:50 model basis
            (Randkit.Prng.create 6)
        in
        check_bool "polar bitwise" true (got = expected));
    case "projection without the counter sampler is rejected" (fun () ->
        let model, basis, tape = fixture () in
        check_raises_invalid "stream" (fun () ->
            Serve.Stream.estimate ~samples:100 ~project:true tape
              (Randkit.Prng.create 1) spec);
        check_raises_invalid "yield" (fun () ->
            Rsm.Yield.monte_carlo_values ~samples:100 ~touched:[| 0 |] model
              basis (Randkit.Prng.create 1)));
    case "Pipeline.serve_yield bridges fit to streamed estimate" (fun () ->
        let amp = Circuit.Opamp.build ~n_parasitics:10 () in
        let sim = Circuit.Opamp.simulator amp Circuit.Opamp.Offset in
        let basis = Polybasis.Basis.constant_linear (Circuit.Opamp.dim amp) in
        let cfg =
          match Robust.Pipeline.config ~samples:120 ~folds:3 ~max_lambda:6 () with
          | Ok cfg -> cfg
          | Error e -> Alcotest.failf "config: %s" (Robust.Error.to_string e)
        in
        match Robust.Pipeline.fit cfg sim basis (Randkit.Prng.create 17) with
        | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
        | Ok outcome -> (
            let wide = Rsm.Yield.spec_both ~lower:(-50.) ~upper:50. in
            (match
               Robust.Pipeline.serve_yield ~samples:4_000
                 ~sampler:Randkit.Gaussian.Ziggurat outcome basis
                 (Randkit.Prng.create 3) wide
             with
            | Error e -> Alcotest.failf "serve_yield: %s" (Robust.Error.to_string e)
            | Ok e ->
                check_int "all samples scored" 4_000 e.Serve.Stream.samples;
                check_bool "yield in range" true
                  (e.Serve.Stream.yield >= 0. && e.Serve.Stream.yield <= 1.));
            match
              Robust.Pipeline.serve_yield ~project:true outcome basis
                (Randkit.Prng.create 3) wide
            with
            | Error (Robust.Error.Config _) -> ()
            | Ok _ | Error _ ->
                Alcotest.fail "project without ziggurat must be Config error"));
  ]

(* --- allocation ---------------------------------------------------- *)

(* The sampling hot loops, held to the words they allocate in the dev
   build. Each bound sits well below what the boxed forms cost: a
   per-coordinate [normal_at] loop returns every word and every value
   boxed (~9 words a coordinate), and a tuple-returning polar pair
   drawn from a boxed-record generator ~66 words a pair. *)
let alloc_suite =
  [
    case "fill_at over 12 coordinates: no allocation on the fast path"
      (fun () ->
        let key = Randkit.Counter.create 41 in
        let vars = Some [| 0; 3; 5; 8; 13; 17; 21; 26; 30; 33; 36; 39 |] in
        let words = Bytes.create (8 * 12) and dy = Array.make 40 0. in
        (* 1 200 draws, about a dozen of which take the wedge or tail
           restart and box a few words there. *)
        check_minor_words "fill_at, 100 points x 12 coordinates" ~bound:400.
          (fun () ->
            for point = 0 to 99 do
              Randkit.Ziggurat.fill_at key ~point ?vars ~words dy
            done));
    case "Gaussian.fill over 316: only the uniforms are boxed" (fun () ->
        let g = Randkit.Prng.create 42 and buf = Array.make 316 0. in
        (* 158 pairs at ~1.27 attempts each, two boxed uniforms of 2
           words per attempt: ~800 words. *)
        check_minor_words "Gaussian.fill 316" ~bound:1_200. (fun () ->
            Randkit.Gaussian.fill g buf));
    case "projected Stream.estimate: a few words per sample" (fun () ->
        let _, _, tape = fixture () in
        let samples = 2_000 in
        (* 3.1 words per sample: only the ziggurat's wedge and tail
           restarts box (their point key, words and value); the point
           key and the tape value of the fast path stay unboxed. *)
        check_minor_words "projected estimate, 2000 samples"
          ~bound:(4. *. float_of_int samples) (fun () ->
            ignore
              (Serve.Stream.estimate ~samples ~sampler:Randkit.Gaussian.Ziggurat
                 tape (Randkit.Prng.create 43) spec)));
  ]

let suite =
  ("sampler", counter_suite @ ziggurat_suite @ stream_suite @ alloc_suite)
