(* The CV selection rule and solver scale/permutation properties. *)
open Test_util
open Linalg

let sparse_problem ?(noise = 0.) ~k ~m ~support ~coeffs seed =
  let g = Randkit.Prng.create seed in
  let design = Randkit.Gaussian.matrix g k m in
  let f =
    Array.init k (fun i ->
        let acc = ref 0. in
        Array.iteri
          (fun p j -> acc := !acc +. (coeffs.(p) *. Mat.get design i j))
          support;
        !acc +. (noise *. Randkit.Gaussian.sample g))
  in
  (design, f)

let test_rules_agree_on_sharp_minimum () =
  (* Noise-free problem: the CV curve has a sharp minimum at the true
     sparsity, and the minimum-error rule finds it. *)
  let g, f =
    sparse_problem ~k:100 ~m:40 ~support:[| 2; 30 |] ~coeffs:[| 3.; -2. |] 305
  in
  let r = Rsm.Select.omp (Randkit.Prng.create 9) ~max_lambda:10 g f in
  check_int "finds the truth, 2" 2 r.Rsm.Select.lambda

(* --- solver invariances --- *)

let test_omp_column_permutation_equivariant () =
  let g, f =
    sparse_problem ~noise:0.2 ~k:60 ~m:30 ~support:[| 4; 17 |]
      ~coeffs:[| 2.; -1. |] 306
  in
  let m = Mat.cols g in
  let perm = Randkit.Prng.permutation (Randkit.Prng.create 11) m in
  let g_perm = Mat.select_cols g perm in
  let base = Rsm.Omp.fit g f ~lambda:4 in
  let permuted = Rsm.Omp.fit g_perm f ~lambda:4 in
  (* Same predictions: the model is the same function of the data. *)
  check_vec ~eps:1e-8 "predictions equal"
    (Rsm.Model.predict_design base g)
    (Rsm.Model.predict_design permuted g_perm);
  (* Support maps through the permutation. *)
  let mapped =
    Array.map (fun j -> perm.(j)) permuted.Rsm.Model.support
  in
  Array.sort compare mapped;
  Alcotest.(check (array int)) "support permuted" base.Rsm.Model.support mapped

let test_lars_column_scaling_invariant_predictions () =
  (* LARS normalizes columns internally: scaling any column leaves the
     fitted predictions unchanged (the coefficient rescales). *)
  let g, f =
    sparse_problem ~noise:0.1 ~k:80 ~m:20 ~support:[| 3; 12 |]
      ~coeffs:[| 2.; -1. |] 307
  in
  let scaled = Mat.init 80 20 (fun i j -> Mat.get g i j *. if j = 3 then 100. else 1.) in
  let base = Rsm.Lars.fit g f ~lambda:4 in
  let s = Rsm.Lars.fit scaled f ~lambda:4 in
  check_vec ~eps:1e-6 "same predictions"
    (Rsm.Model.predict_design base g)
    (Rsm.Model.predict_design s scaled);
  check_float ~eps:1e-8 "coefficient rescaled"
    (Rsm.Model.coeff base 3 /. 100.)
    (Rsm.Model.coeff s 3)

let test_omp_response_scaling_equivariant () =
  let g, f =
    sparse_problem ~noise:0.2 ~k:60 ~m:25 ~support:[| 1; 9 |]
      ~coeffs:[| 1.; 1. |] 308
  in
  let f2 = Array.map (fun x -> 7. *. x) f in
  let base = Rsm.Omp.fit g f ~lambda:3 in
  let scaled = Rsm.Omp.fit g f2 ~lambda:3 in
  check_vec ~eps:1e-8 "coefficients scale with the response"
    (Array.map (fun c -> 7. *. c) base.Rsm.Model.coeffs)
    scaled.Rsm.Model.coeffs

let test_solver_determinism () =
  let g, f =
    sparse_problem ~noise:0.3 ~k:70 ~m:35 ~support:[| 2; 22 |]
      ~coeffs:[| 1.; -1. |] 309
  in
  List.iter
    (fun meth ->
      let src = Polybasis.Design.Provider.dense g in
      let a = Rsm.Solver.fit_p ~lambda:5 src f meth in
      let b = Rsm.Solver.fit_p ~lambda:5 src f meth in
      check_vec ~eps:0.
        (Rsm.Solver.name meth ^ " deterministic")
        (Rsm.Model.to_dense a) (Rsm.Model.to_dense b))
    [ Rsm.Solver.Star; Rsm.Solver.Lar; Rsm.Solver.Omp ]

let suite =
  ( "select-rules",
    [
      case "rules agree on sharp minima" test_rules_agree_on_sharp_minimum;
      case "omp: column-permutation equivariance" test_omp_column_permutation_equivariant;
      case "lars: column-scaling invariance" test_lars_column_scaling_invariant_predictions;
      case "omp: response-scaling equivariance" test_omp_response_scaling_equivariant;
      case "solver determinism" test_solver_determinism;
    ] )
