open Test_util

(* --- Descriptive --- *)

let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]

let test_mean () = check_float "mean" 5. (Stat.Descriptive.mean xs)

let test_variance_std () =
  (* Known dataset: population variance 4, sample variance 32/7. *)
  check_float ~eps:1e-12 "sample variance" (32. /. 7.) (Stat.Descriptive.variance xs);
  check_float ~eps:1e-12 "std" (sqrt (32. /. 7.)) (Stat.Descriptive.std xs);
  check_float "singleton" 0. (Stat.Descriptive.variance [| 42. |])

let test_welford_stability () =
  (* Large offset must not destroy precision. *)
  let shifted = Array.map (fun x -> x +. 1e9) xs in
  check_float ~eps:1e-4 "shifted variance" (32. /. 7.)
    (Stat.Descriptive.variance shifted)

let test_min_max () =
  let lo, hi = Stat.Descriptive.min_max xs in
  check_float "min" 2. lo;
  check_float "max" 9. hi

let test_quantiles () =
  check_float "median even" 4.5 (Stat.Descriptive.median xs);
  check_float "q0" 2. (Stat.Descriptive.quantile xs 0.);
  check_float "q1" 9. (Stat.Descriptive.quantile xs 1.);
  check_float "median odd" 3. (Stat.Descriptive.median [| 1.; 3.; 5. |]);
  (* Interpolation: quantile 0.25 of [0,1,2,3] = 0.75. *)
  check_float "interpolated" 0.75 (Stat.Descriptive.quantile [| 0.; 1.; 2.; 3. |] 0.25);
  check_raises_invalid "p > 1" (fun () ->
      ignore (Stat.Descriptive.quantile xs 1.5))

let test_covariance_correlation () =
  let a = [| 1.; 2.; 3.; 4. |] in
  let b = [| 2.; 4.; 6.; 8. |] in
  check_float ~eps:1e-12 "corr perfect" 1. (Stat.Descriptive.correlation a b);
  let c = [| -2.; -4.; -6.; -8. |] in
  check_float ~eps:1e-12 "corr anti" (-1.) (Stat.Descriptive.correlation a c);
  check_float "corr constant" 0. (Stat.Descriptive.correlation a [| 5.; 5.; 5.; 5. |]);
  check_float ~eps:1e-12 "cov" (Stat.Descriptive.variance a *. 2.)
    (Stat.Descriptive.covariance a b)

let test_covariance_matrix () =
  let open Linalg in
  let d = Mat.of_arrays [| [| 1.; 10. |]; [| 2.; 20. |]; [| 3.; 30. |] |] in
  let c = Stat.Descriptive.covariance_matrix d in
  check_float ~eps:1e-12 "var col0" 1. (Mat.get c 0 0);
  check_float ~eps:1e-12 "var col1" 100. (Mat.get c 1 1);
  check_float ~eps:1e-12 "cov" 10. (Mat.get c 0 1);
  check_bool "symmetric" true (Mat.is_symmetric c)

let test_standardize () =
  let s = Stat.Descriptive.standardize xs in
  check_float ~eps:1e-12 "mean 0" 0. (Stat.Descriptive.mean s);
  check_float ~eps:1e-12 "std 1" 1. (Stat.Descriptive.std s);
  check_vec "constant -> zeros" [| 0.; 0. |]
    (Stat.Descriptive.standardize [| 3.; 3. |])

(* --- Metrics --- *)

let test_relative_rms () =
  (* Predicting the mean exactly scores 100%. *)
  let truth = [| 1.; 2.; 3.; 4. |] in
  let mean_pred = Array.make 4 2.5 in
  check_float ~eps:1e-12 "mean predictor = 1.0"
    1. (Stat.Metrics.relative_rms ~pred:mean_pred ~truth);
  check_float "perfect = 0" 0. (Stat.Metrics.relative_rms ~pred:truth ~truth);
  check_bool "constant truth = nan" true
    (Float.is_nan (Stat.Metrics.relative_rms ~pred:truth ~truth:(Array.make 4 1.)))

let test_max_abs_error_mape () =
  let pred = [| 1.; 2.; 0. |] and truth = [| 2.; 2.; 4. |] in
  check_float "max abs" 4. (Stat.Metrics.max_abs_error ~pred ~truth);
  check_raises_invalid "length" (fun () ->
      ignore (Stat.Metrics.max_abs_error ~pred:[| 1. |] ~truth:[| 1.; 2. |]))

(* --- PCA --- *)

let test_pca_whitening_identity_cov () =
  let open Linalg in
  (* Diagonal covariance: whitening just rescales. *)
  let sigma = Mat.of_arrays [| [| 4.; 0. |]; [| 0.; 1. |] |] in
  let p = Stat.Pca.of_covariance sigma in
  check_int "in dim" 2 (Stat.Pca.input_dim p);
  check_int "out dim" 2 (Stat.Pca.output_dim p);
  let y = Stat.Pca.whiten p [| 2.; 1. |] in
  (* First component (largest eigenvalue 4) is x0/2 = 1 up to sign. *)
  check_float ~eps:1e-10 "unit magnitude both" 1. (Float.abs y.(0));
  check_float ~eps:1e-10 "second" 1. (Float.abs y.(1))

let test_pca_roundtrip () =
  let open Linalg in
  let sigma =
    Mat.of_arrays [| [| 2.; 0.5; 0.1 |]; [| 0.5; 1.; 0.2 |]; [| 0.1; 0.2; 0.8 |] |]
  in
  let p = Stat.Pca.of_covariance sigma in
  let x = [| 0.3; -0.7; 1.1 |] in
  check_vec ~eps:1e-9 "unwhiten (whiten x) = x" x
    (Stat.Pca.unwhiten p (Stat.Pca.whiten p x))

let test_pca_whitened_samples_standard () =
  let open Linalg in
  let sigma = Mat.of_arrays [| [| 2.; 0.9 |]; [| 0.9; 1. |] |] in
  (* Correlated draws x = L·z, with Σ = L·Lᵀ and z iid standard normal. *)
  let l = Cholesky.factor sigma in
  let p = Stat.Pca.of_covariance sigma in
  let g = rng () in
  let n = 20000 in
  let whitened =
    Mat.init n 2 (fun _ _ -> 0.) |> fun m ->
    for i = 0 to n - 1 do
      let z = Randkit.Gaussian.vector g 2 in
      let x = Array.init 2 (fun r -> Vec.dot (Mat.row l r) z) in
      Mat.set_row m i (Stat.Pca.whiten p x)
    done;
    m
  in
  let cov = Stat.Descriptive.covariance_matrix whitened in
  check_float ~eps:0.05 "whitened var 1" 1. (Mat.get cov 0 0);
  check_float ~eps:0.05 "whitened var 2" 1. (Mat.get cov 1 1);
  check_float ~eps:0.05 "whitened independent" 0. (Mat.get cov 0 1)

let test_pca_truncation () =
  let open Linalg in
  (* Rank-1 covariance: second component must be dropped. *)
  let sigma = Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let p = Stat.Pca.of_covariance sigma in
  check_int "rank-1 keeps one factor" 1 (Stat.Pca.output_dim p)

(* --- Crossval --- *)

let test_plan_and_indices () =
  let g = rng () in
  let plan = Stat.Crossval.make_plan g ~n:20 ~folds:4 in
  for q = 0 to 3 do
    let train, held = Stat.Crossval.fold_indices plan q in
    check_int "sizes" 20 (Array.length train + Array.length held);
    check_int "held size" 5 (Array.length held)
  done;
  check_raises_invalid "fold oob" (fun () ->
      ignore (Stat.Crossval.fold_indices plan 4))

let test_run_average () =
  let g = rng () in
  let plan = Stat.Crossval.make_plan g ~n:12 ~folds:3 in
  (* error = size of held-out group = 4 for every fold; the second
     point is the fold's training size, 8. *)
  let e =
    cv_mean_curve plan ~fit_curve:(fun ~train ~held_out ->
        [| float_of_int (Array.length held_out);
           float_of_int (Array.length train) |])
  in
  check_vec ~eps:1e-12 "average" [| 4.; 8. |] e

let test_run_curves () =
  let g = rng () in
  let plan = Stat.Crossval.make_plan g ~n:10 ~folds:5 in
  let curve =
    cv_mean_curve plan ~fit_curve:(fun ~train:_ ~held_out:_ ->
        [| 3.; 1.; 2. |])
  in
  check_vec ~eps:1e-12 "constant curves average to themselves" [| 3.; 1.; 2. |]
    curve;
  check_int "argmin" 1 (Stat.Crossval.argmin curve)

let test_argmin_nan () =
  check_int "nan skipped" 2 (Stat.Crossval.argmin [| Float.nan; 5.; 1. |]);
  check_int "all nan" 0 (Stat.Crossval.argmin [| Float.nan; Float.nan |])

let test_crossval_detects_overfit () =
  (* A model that memorizes training indices has zero training error but
     the CV error stays high: the held-out error of predicting noise. *)
  let g = rng () in
  let n = 40 in
  let values = Array.init n (fun _ -> Randkit.Gaussian.sample g) in
  let plan = Stat.Crossval.make_plan g ~n ~folds:4 in
  let e =
    cv_mean_curve plan ~fit_curve:(fun ~train ~held_out ->
        let tbl = Hashtbl.create 16 in
        Array.iter (fun i -> Hashtbl.replace tbl i values.(i)) train;
        let pred =
          Array.map (fun i -> try Hashtbl.find tbl i with Not_found -> 0.) held_out
        in
        let truth = Array.map (fun i -> values.(i)) held_out in
        [| Stat.Metrics.relative_rms ~pred ~truth |])
  in
  check_bool "held-out error not fooled by memorization" true (e.(0) > 0.5)

let prop_quantile_monotone =
  qtest ~count:50 "quantile is monotone in p"
    QCheck.(array_of_size Gen.(2 -- 30) (float_range (-50.) 50.))
    (fun a ->
      let q1 = Stat.Descriptive.quantile a 0.25 in
      let q2 = Stat.Descriptive.quantile a 0.5 in
      let q3 = Stat.Descriptive.quantile a 0.75 in
      q1 <= q2 +. 1e-12 && q2 <= q3 +. 1e-12)

let prop_variance_nonnegative =
  qtest ~count:50 "variance is non-negative"
    QCheck.(array_of_size Gen.(1 -- 40) (float_range (-100.) 100.))
    (fun a -> Stat.Descriptive.variance a >= 0.)

let suite =
  ( "stat",
    [
      case "descriptive: mean" test_mean;
      case "descriptive: variance/std" test_variance_std;
      case "descriptive: welford stability" test_welford_stability;
      case "descriptive: min/max" test_min_max;
      case "descriptive: quantiles" test_quantiles;
      case "descriptive: covariance/correlation" test_covariance_correlation;
      case "descriptive: covariance matrix" test_covariance_matrix;
      case "descriptive: standardize" test_standardize;
      case "metrics: relative rms" test_relative_rms;
      case "metrics: max abs / mape" test_max_abs_error_mape;
      case "pca: diagonal whitening" test_pca_whitening_identity_cov;
      case "pca: roundtrip" test_pca_roundtrip;
      case "pca: whitened samples standard" test_pca_whitened_samples_standard;
      case "pca: truncation" test_pca_truncation;
      case "crossval: plan/indices" test_plan_and_indices;
      case "crossval: run average" test_run_average;
      case "crossval: curves" test_run_curves;
      case "crossval: argmin with NaN" test_argmin_nan;
      case "crossval: detects overfitting" test_crossval_detects_overfit;
      prop_quantile_monotone;
      prop_variance_nonnegative;
    ] )
