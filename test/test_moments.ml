open Test_util

let test_central_moments_known () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "m0" 1. (Stat.Moments.central_moment 0 xs);
  check_float ~eps:1e-12 "m1 = 0" 0. (Stat.Moments.central_moment 1 xs);
  check_float ~eps:1e-12 "m2" 2. (Stat.Moments.central_moment 2 xs);
  check_float ~eps:1e-12 "m3 symmetric" 0. (Stat.Moments.central_moment 3 xs);
  check_raises_invalid "empty" (fun () ->
      ignore (Stat.Moments.central_moment 2 [||]))

let test_skewness_sign () =
  (* Right-skewed data (exponential-ish) has positive skewness. *)
  let g = rng () in
  let right = Array.init 20000 (fun _ -> -.log (1. -. Randkit.Prng.float g)) in
  check_bool "exponential skew ~ 2" true
    (Stat.Moments.skewness right > 1.5 && Stat.Moments.skewness right < 2.5);
  let left = Array.map Float.neg right in
  check_bool "negated flips sign" true (Stat.Moments.skewness left < -1.5);
  check_float "constant" 0. (Stat.Moments.skewness [| 3.; 3.; 3. |])

let test_kurtosis_gaussian_zero () =
  let g = rng () in
  let z = Randkit.Gaussian.vector g 100000 in
  check_float ~eps:0.1 "gaussian excess kurtosis" 0. (Stat.Moments.kurtosis_excess z);
  check_float ~eps:0.05 "gaussian skewness" 0. (Stat.Moments.skewness z)

let test_summary_consistent () =
  let g = rng () in
  let xs = Array.init 5000 (fun _ -> (3. *. Randkit.Gaussian.sample g) +. 7.) in
  let mean, std, skew, kurt = Stat.Moments.summary xs in
  check_float ~eps:1e-10 "mean" (Stat.Descriptive.mean xs) mean;
  check_float ~eps:1e-10 "skew" (Stat.Moments.skewness xs) skew;
  check_float ~eps:1e-10 "kurt" (Stat.Moments.kurtosis_excess xs) kurt;
  (* summary's std uses the population convention (moments), so compare
     against sqrt of central_moment 2. *)
  check_float ~eps:1e-10 "std" (sqrt (Stat.Moments.central_moment 2 xs)) std

let test_cornish_fisher_gaussian_limit () =
  (* With zero skew/kurtosis CF is exactly the Gaussian quantile. *)
  List.iter
    (fun p ->
      check_float ~eps:1e-12
        (Printf.sprintf "CF = Gaussian at p=%g" p)
        (10. +. (2. *. Stat.Distribution.quantile p))
        (Stat.Moments.cornish_fisher_quantile ~mean:10. ~std:2. ~skew:0.
           ~kurt_excess:0. p))
    [ 0.01; 0.5; 0.99 ]

let test_cornish_fisher_skew_shifts_tail () =
  (* Positive skew pushes the upper quantile out and pulls the lower in. *)
  let hi_skew =
    Stat.Moments.cornish_fisher_quantile ~mean:0. ~std:1. ~skew:0.8
      ~kurt_excess:0. 0.99
  in
  let hi_sym =
    Stat.Moments.cornish_fisher_quantile ~mean:0. ~std:1. ~skew:0.
      ~kurt_excess:0. 0.99
  in
  check_bool "upper tail stretched" true (hi_skew > hi_sym);
  check_raises_invalid "bad std" (fun () ->
      ignore
        (Stat.Moments.cornish_fisher_quantile ~mean:0. ~std:(-1.) ~skew:0.
           ~kurt_excess:0. 0.5))

let test_cornish_fisher_vs_chi2 () =
  (* A shifted chi-square-like sample: CF quantile should beat the plain
     Gaussian quantile at the 95th percentile. *)
  let g = rng () in
  let xs =
    Array.init 50000 (fun _ ->
        let z = Randkit.Gaussian.sample g in
        z *. z)
  in
  let mean, std, skew, kurt = Stat.Moments.summary xs in
  let true_q95 = Stat.Descriptive.quantile xs 0.95 in
  let cf = Stat.Moments.cornish_fisher_quantile ~mean ~std ~skew ~kurt_excess:kurt 0.95 in
  let gauss = mean +. (std *. Stat.Distribution.quantile 0.95) in
  check_bool
    (Printf.sprintf "CF (%.3f) closer than Gaussian (%.3f) to true %.3f" cf gauss true_q95)
    true
    (Float.abs (cf -. true_q95) < Float.abs (gauss -. true_q95))

let test_jarque_bera () =
  let g = rng () in
  let gauss = Randkit.Gaussian.vector g 5000 in
  check_bool "gaussian accepted" true (Stat.Moments.jarque_bera gauss < 6.);
  let skewed = Array.map (fun x -> x *. x) gauss in
  check_bool "chi2 rejected" true (Stat.Moments.jarque_bera skewed > 100.)

let test_model_output_normality () =
  (* A linear Hermite model of Gaussian factors is Gaussian; adding a
     quadratic term breaks normality — measurable via Jarque-Bera on
     model Monte Carlo. *)
  let basis = Polybasis.Basis.quadratic 3 in
  let lin_idx =
    let rec go i =
      if Polybasis.Term.equal (Polybasis.Basis.term basis i) (Polybasis.Term.linear 0)
      then i
      else go (i + 1)
    in
    go 0
  in
  let sq_idx =
    let rec go i =
      if Polybasis.Term.equal (Polybasis.Basis.term basis i) (Polybasis.Term.square 1)
      then i
      else go (i + 1)
    in
    go 0
  in
  let linear =
    Rsm.Model.make ~basis_size:(Polybasis.Basis.size basis) ~support:[| lin_idx |]
      ~coeffs:[| 2. |]
  in
  let quad =
    Rsm.Model.make ~basis_size:(Polybasis.Basis.size basis)
      ~support:[| lin_idx; sq_idx |] ~coeffs:[| 1.; 1.5 |]
  in
  let g = rng () in
  let values m =
    Serve.Stream.values ~samples:20000 (Serve.Eval.compile m basis) g
  in
  let v_lin = values linear in
  let v_quad = values quad in
  check_bool "linear model output is Gaussian" true
    (Stat.Moments.jarque_bera v_lin < 8.);
  check_bool "quadratic model output is not" true
    (Stat.Moments.jarque_bera v_quad > 100.)

let suite =
  ( "moments",
    [
      case "central moments" test_central_moments_known;
      slow_case "skewness sign" test_skewness_sign;
      slow_case "gaussian kurtosis" test_kurtosis_gaussian_zero;
      case "summary consistency" test_summary_consistent;
      case "cornish-fisher gaussian limit" test_cornish_fisher_gaussian_limit;
      case "cornish-fisher skew behaviour" test_cornish_fisher_skew_shifts_tail;
      slow_case "cornish-fisher beats gaussian on chi2" test_cornish_fisher_vs_chi2;
      case "jarque-bera" test_jarque_bera;
      slow_case "linear models are Gaussian, quadratic are not"
        test_model_output_normality;
    ] )
