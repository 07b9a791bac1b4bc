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
    case "Yield ziggurat == Stream ziggurat (bitwise, recorded bits)"
      (fun () ->
        (* The bits the single-generator ziggurat yield (one point at a
           time, projected onto the touched variables) gave on this
           fixture before the stream became the only Monte-Carlo
           driver. The stream derives the same counter key and
           addresses the same global point indices, so every batch size,
           domain count and projection must reproduce them. *)
        let _, _, tape = fixture () in
        let run ?pool ?batch ~project () =
          Serve.Stream.estimate ?pool ?batch ~samples:5_000
            ~sampler:Randkit.Gaussian.Ziggurat ~project tape
            (Randkit.Prng.create 55) spec
        in
        let bits = Int64.bits_of_float in
        List.iter
          (fun (what, e) ->
            check_bool (what ^ ": yield bits") true
              (bits e.Serve.Stream.yield = bits 0x1.8ef34d6a161e5p-2);
            check_bool (what ^ ": se bits") true
              (bits e.Serve.Stream.std_error = bits 0x1.c3f8de26036fep-8);
            check_int (what ^ ": pass") 1948 e.Serve.Stream.pass)
          [
            ("projected", run ~project:true ());
            ("full", run ~project:false ());
            ( "batch 7, 2 domains",
              Parallel.Pool.with_pool ~domains:2 (fun pool ->
                  run ~pool ~batch:7 ~project:true ()) );
          ]);
    case "values scored by the spec == estimate, both samplers" (fun () ->
        (* [values] and [estimate] share one argument preamble and one
           batch driver, so scoring the value stream against the spec
           must give the estimate's pass count and yield. *)
        let _, _, tape = fixture () in
        List.iter
          (fun sampler ->
            let what = Randkit.Gaussian.sampler_name sampler in
            let e =
              Serve.Stream.estimate ~batch:300 ~sampler ~samples:2_000 tape
                (Randkit.Prng.create 5) spec
            in
            let v =
              Serve.Stream.values ~batch:300 ~sampler ~samples:2_000 tape
                (Randkit.Prng.create 5)
            in
            let pass =
              Array.fold_left
                (fun acc x -> if Rsm.Yield.passes spec x then acc + 1 else acc)
                0 v
            in
            check_int (what ^ ": pass") e.Serve.Stream.pass pass;
            check_bool (what ^ ": yield") true
              (e.Serve.Stream.yield = float_of_int pass /. 2_000.))
          [ Randkit.Gaussian.Polar; Randkit.Gaussian.Ziggurat ]);
    case "pass count at the spec's edges == Yield.passes over values"
      (fun () ->
        (* [estimate] counts passes without a branch; a bound the stream
           actually drew must count as passing, as in [Yield.passes],
           and an infinite side must pass every finite value. Values
           are drawn with the estimate's batch and pool, so the polar
           stream (whose batch grid carries the draws) is the same
           stream too. *)
        let _, _, tape = fixture () in
        let samples = 1_000 in
        let bits = Int64.bits_of_float in
        List.iter
          (fun (sampler, batch, domains) ->
            Parallel.Pool.with_pool ~domains (fun pool ->
                let what =
                  Printf.sprintf "%s, batch %d, %d domains"
                    (Randkit.Gaussian.sampler_name sampler)
                    batch domains
                in
                let vals =
                  Serve.Stream.values ~pool ~batch ~sampler ~samples tape
                    (Randkit.Prng.create 17)
                in
                let sorted = Array.copy vals in
                Array.sort Float.compare sorted;
                let vi = sorted.(samples / 4) and vj = sorted.(3 * samples / 4) in
                List.iter
                  (fun (name, spec) ->
                    let e =
                      Serve.Stream.estimate ~pool ~batch ~sampler ~samples tape
                        (Randkit.Prng.create 17) spec
                    in
                    let pass =
                      Array.fold_left
                        (fun acc v ->
                          if Rsm.Yield.passes spec v then acc + 1 else acc)
                        0 vals
                    in
                    check_int (what ^ ", " ^ name ^ ": pass") pass
                      e.Serve.Stream.pass;
                    check_bool
                      (what ^ ", " ^ name ^ ": yield bits")
                      true
                      (bits e.Serve.Stream.yield
                      = bits (float_of_int pass /. float_of_int samples)))
                  [
                    ("[vi, vj]", Rsm.Yield.spec_both ~lower:vi ~upper:vj);
                    ("[vi, vi]", Rsm.Yield.spec_both ~lower:vi ~upper:vi);
                    ("[vj, vj]", Rsm.Yield.spec_both ~lower:vj ~upper:vj);
                    ("min vi", Rsm.Yield.spec_min vi);
                    ("max vj", Rsm.Yield.spec_max vj);
                    ("min -inf", Rsm.Yield.spec_min neg_infinity);
                  ]))
          (List.concat_map
             (fun sampler ->
               List.concat_map
                 (fun batch -> [ (sampler, batch, 1); (sampler, batch, 2) ])
                 [ 7; Serve.Stream.default_batch ])
             [ Randkit.Gaussian.Polar; Randkit.Gaussian.Ziggurat ]));
    case "projection without the counter sampler is rejected" (fun () ->
        let _, _, tape = fixture () in
        check_raises_invalid "estimate" (fun () ->
            Serve.Stream.estimate ~samples:100 ~project:true tape
              (Randkit.Prng.create 1) spec);
        check_raises_invalid "values" (fun () ->
            Serve.Stream.values ~samples:100 ~project:true tape
              (Randkit.Prng.create 1)));
    case "argument errors name the entry point that raised them" (fun () ->
        let _, _, tape = fixture () in
        let raises msg f =
          Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
              ignore (f ()))
        in
        let g () = Randkit.Prng.create 1 in
        List.iter
          (fun (name, run) ->
            raises (name ^ ": samples must be positive") (fun () ->
                run ~samples:0 ~batch:8 ~project:None);
            raises (name ^ ": batch must be positive") (fun () ->
                run ~samples:10 ~batch:0 ~project:None);
            raises
              (name ^ ": ~project:true requires the ziggurat (counter) sampler")
              (fun () -> run ~samples:10 ~batch:8 ~project:(Some true)))
          [
            ( "Serve.Stream.estimate",
              fun ~samples ~batch ~project ->
                ignore
                  (Serve.Stream.estimate ~samples ~batch ?project tape (g ())
                     spec) );
            ( "Serve.Stream.values",
              fun ~samples ~batch ~project ->
                ignore
                  (Serve.Stream.values ~samples ~batch ?project tape (g ())) );
          ]);
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
