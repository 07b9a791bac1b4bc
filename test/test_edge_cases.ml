(* Degenerate and boundary inputs across the stack: tiny systems,
   constant responses, zero columns, single samples. A production
   library must fail loudly or behave sensibly on all of these. *)
open Test_util
open Linalg

(* --- solvers on tiny systems --- *)

let test_omp_single_column () =
  let g = Mat.of_arrays [| [| 2. |]; [| 1. |]; [| -1. |] |] in
  let f = [| 4.; 2.; -2. |] in
  let m = Rsm.Omp.fit g f ~lambda:1 in
  check_int "one basis" 1 (Rsm.Model.nnz m);
  check_float ~eps:1e-12 "coefficient" 2. (Rsm.Model.coeff m 0)

let test_omp_single_sample () =
  (* K = 1: one equation, any single column fits it exactly. *)
  let g = Mat.of_arrays [| [| 3.; 1. |] |] in
  let f = [| 6. |] in
  let m = Rsm.Omp.fit g f ~lambda:1 in
  check_int "one basis" 1 (Rsm.Model.nnz m);
  check_float ~eps:1e-10 "exact fit" 0.
    (Vec.nrm2 (Vec.sub f (Rsm.Model.predict_design m g)))

let test_omp_zero_response () =
  let gen = Randkit.Prng.create 101 in
  let g = Randkit.Gaussian.matrix gen 10 5 in
  let f = Array.make 10 0. in
  let steps = Rsm.Omp.path g f ~max_lambda:5 in
  check_int "nothing selected for zero response" 0 (Array.length steps)

let test_omp_zero_column () =
  (* An all-zero column can never be selected. *)
  let gen = Randkit.Prng.create 102 in
  let g = Mat.init 20 6 (fun _ j -> if j = 2 then 0. else Randkit.Gaussian.sample gen) in
  let f = Array.init 20 (fun i -> Mat.get g i 0) in
  let steps = Rsm.Omp.path g f ~max_lambda:5 in
  Array.iter
    (fun s ->
      check_bool "zero column never selected" false
        (Array.mem 2 s.Rsm.Omp.model.Rsm.Model.support))
    steps

let test_star_zero_response () =
  let gen = Randkit.Prng.create 103 in
  let g = Randkit.Gaussian.matrix gen 10 5 in
  let steps = Rsm.Star.path g (Array.make 10 0.) ~max_lambda:5 in
  check_int "no steps" 0 (Array.length steps)

let test_lars_zero_response () =
  let gen = Randkit.Prng.create 104 in
  let g = Randkit.Gaussian.matrix gen 10 5 in
  let steps = Rsm.Lars.path g (Array.make 10 0.) ~max_steps:5 in
  check_int "no steps" 0 (Array.length steps)

let test_lars_single_column () =
  let g = Mat.of_arrays [| [| 1. |]; [| 2. |]; [| 3. |] |] in
  let f = [| 2.; 4.; 6. |] in
  let steps = Rsm.Lars.path g f ~max_steps:3 in
  check_bool "at least one step" true (Array.length steps >= 1);
  let final = steps.(Array.length steps - 1).Rsm.Lars.model in
  (* LAR's final step reaches the full LS solution: coefficient 2. *)
  check_float ~eps:1e-8 "reaches LS endpoint" 2. (Rsm.Model.coeff final 0)

let test_stomp_zero_response () =
  let gen = Randkit.Prng.create 105 in
  let g = Randkit.Gaussian.matrix gen 10 5 in
  let m = Rsm.Stomp.fit g (Array.make 10 0.) in
  check_int "empty model" 0 (Rsm.Model.nnz m)

let test_lasso_cd_zero_design () =
  let g = Mat.create 5 3 in
  let f = [| 1.; 2.; 3.; 4.; 5. |] in
  (* All-zero columns: coordinate descent must terminate with zeros. *)
  let m = Rsm.Lasso_cd.fit g f ~reg:0.1 in
  check_int "all zero" 0 (Rsm.Model.nnz m)

(* --- constant-response metric edge --- *)

let test_relative_rms_constant_pred () =
  let truth = [| 1.; 2.; 3. |] in
  let e = Stat.Metrics.relative_rms ~pred:(Array.make 3 0.) ~truth in
  check_bool "well defined, > 1" true (Float.is_finite e && e > 1.)

(* --- CV with minimal folds/data --- *)

let test_cv_two_points_two_folds () =
  let g = rng () in
  let plan = Stat.Crossval.make_plan g ~n:2 ~folds:2 in
  let e =
    Stat.Crossval.run_curves plan ~fit_curve:(fun ~train ~held_out:_ ->
        [| float_of_int (Array.length train) |])
  in
  check_float "each fold trains on 1" 1. e.(0)

let test_select_minimum_viable () =
  (* Smallest workable CV problem: 8 samples, 4 folds. *)
  let gen = Randkit.Prng.create 106 in
  let g = Randkit.Gaussian.matrix gen 8 4 in
  let f = Array.init 8 (fun i -> 2. *. Mat.get g i 1) in
  let r = Rsm.Select.omp (rng ()) ~max_lambda:3 g f in
  check_bool "lambda in range" true
    (r.Rsm.Select.lambda >= 1 && r.Rsm.Select.lambda <= 3)

(* --- basis / design degeneracies --- *)

let test_basis_zero_dim () =
  (* A 0-variable basis still has the constant term via total_degree. *)
  let b = Polybasis.Basis.constant_linear 0 in
  check_int "just the constant" 1 (Polybasis.Basis.size b);
  let row = Polybasis.Basis.eval_point b [||] in
  check_vec "constant row" [| 1. |] row

let test_design_no_samples () =
  let b = Polybasis.Basis.constant_linear 3 in
  let g = Polybasis.Design.matrix_rows b [||] in
  check_int "zero rows" 0 (Mat.rows g)

let test_quadratic_n1 () =
  (* n = 1: constant, linear, square — no cross terms. *)
  let b = Polybasis.Basis.quadratic 1 in
  check_int "three terms" 3 (Polybasis.Basis.size b)

(* --- model numerics --- *)

let test_model_huge_indices () =
  (* Paper-scale dictionary indices must work through coeff lookup. *)
  let m =
    Rsm.Model.make ~basis_size:1_000_000
      ~support:[| 0; 999_999 |]
      ~coeffs:[| 1.; -1. |]
  in
  check_float "first" 1. (Rsm.Model.coeff m 0);
  check_float "last" (-1.) (Rsm.Model.coeff m 999_999);
  check_float "middle" 0. (Rsm.Model.coeff m 500_000)

let test_yield_degenerate_model () =
  (* A constant-only model: yield is 0 or 1 depending on the spec. *)
  let b = Polybasis.Basis.constant_linear 2 in
  let m = Rsm.Model.make ~basis_size:3 ~support:[| 0 |] ~coeffs:[| 5. |] in
  check_float "inside" 1. (Rsm.Yield.gaussian m b (Rsm.Yield.spec_min 4.));
  check_float "outside" 0. (Rsm.Yield.gaussian m b (Rsm.Yield.spec_min 6.))

let test_corner_zero_model () =
  let b = Polybasis.Basis.constant_linear 2 in
  let m = Rsm.Model.make ~basis_size:3 ~support:[||] ~coeffs:[||] in
  let e = Rsm.Corner.linear_worst m b ~sigma:3. ~maximize:true in
  check_float "no variation" 0. e.Rsm.Corner.value;
  check_float "corner at origin" 0. (Vec.nrm2 e.Rsm.Corner.corner)

(* --- simulator bounds --- *)

let test_simulator_validation () =
  check_raises_invalid "dim 0" (fun () ->
      ignore (Circuit.Simulator.make ~name:"x" ~dim:0 ~seconds_per_sample:1. (fun _ -> 0.)));
  check_raises_invalid "negative cost" (fun () ->
      ignore
        (Circuit.Simulator.make ~name:"x" ~dim:1 ~seconds_per_sample:(-1.)
           (fun _ -> 0.)));
  let sim = Circuit.Simulator.make ~name:"x" ~dim:1 ~seconds_per_sample:1. (fun v -> v.(0)) in
  check_raises_invalid "k = 0" (fun () ->
      ignore (Circuit.Simulator.run sim (rng ()) ~k:0))

let suite =
  ( "edge-cases",
    [
      case "omp: single column" test_omp_single_column;
      case "omp: single sample" test_omp_single_sample;
      case "omp: zero response" test_omp_zero_response;
      case "omp: zero column never selected" test_omp_zero_column;
      case "star: zero response" test_star_zero_response;
      case "lars: zero response" test_lars_zero_response;
      case "lars: single column reaches LS" test_lars_single_column;
      case "stomp: zero response" test_stomp_zero_response;
      case "lasso-cd: zero design" test_lasso_cd_zero_design;
      case "metrics: constant prediction" test_relative_rms_constant_pred;
      case "crossval: two points" test_cv_two_points_two_folds;
      case "select: minimum viable" test_select_minimum_viable;
      case "basis: zero dimension" test_basis_zero_dim;
      case "design: no samples" test_design_no_samples;
      case "basis: quadratic n=1" test_quadratic_n1;
      case "model: million-entry dictionary" test_model_huge_indices;
      case "yield: constant model" test_yield_degenerate_model;
      case "corner: zero model" test_corner_zero_model;
      case "simulator: validation" test_simulator_validation;
    ] )
