(* Cross-validated λ selection and the unified solver front-end. *)
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

let test_omp_cv_finds_true_sparsity () =
  let g, f =
    sparse_problem ~noise:0.05 ~k:120 ~m:60 ~support:[| 5; 20; 40 |]
      ~coeffs:[| 2.; -1.; 1.5 |] 31
  in
  let r = Rsm.Select.omp (rng ()) ~max_lambda:15 g f in
  check_bool "lambda near 3" true (r.Rsm.Select.lambda >= 3 && r.Rsm.Select.lambda <= 6);
  check_bool "true support inside" true
    (List.for_all
       (fun j -> Rsm.Model.coeff r.Rsm.Select.model j <> 0.)
       [ 5; 20; 40 ])

let test_cv_curve_shape () =
  (* ε(λ) must drop sharply until the true sparsity then flatten/rise:
     the minimum is not in the first λ, and clearly below λ=1's error. *)
  let g, f =
    sparse_problem ~noise:0.1 ~k:100 ~m:50 ~support:[| 3; 30 |]
      ~coeffs:[| 2.; 2. |] 32
  in
  let r = Rsm.Select.omp (rng ()) ~max_lambda:10 g f in
  let curve = r.Rsm.Select.curve in
  check_int "curve length" 10 (Array.length curve);
  check_bool "error at optimum << error at 1" true
    (curve.(r.Rsm.Select.lambda - 1) < 0.5 *. curve.(0))

let test_star_cv_runs () =
  let g, f =
    sparse_problem ~noise:0.1 ~k:100 ~m:50 ~support:[| 3; 30 |]
      ~coeffs:[| 2.; 2. |] 33
  in
  let r =
    (Rsm.Select.star_multi_p (rng ()) ~max_lambda:10
       (Polybasis.Design.Provider.dense g) [| f |]).(0)
  in
  check_bool "model non-empty" true (Rsm.Model.nnz r.Rsm.Select.model > 0)

let test_lars_cv_runs () =
  let g, f =
    sparse_problem ~noise:0.1 ~k:100 ~m:50 ~support:[| 3; 30 |]
      ~coeffs:[| 2.; 2. |] 34
  in
  let r =
    Rsm.Select.lars_p (rng ()) ~max_lambda:10
      (Polybasis.Design.Provider.dense g) f
  in
  check_bool "model non-empty" true (Rsm.Model.nnz r.Rsm.Select.model > 0);
  check_bool "support includes truth" true
    (Rsm.Model.coeff r.Rsm.Select.model 3 <> 0.
    && Rsm.Model.coeff r.Rsm.Select.model 30 <> 0.)

let test_omp_p_pads_short_paths () =
  (* A noise-free one-column response: OMP's path stops after one
     model, on the full data and in every fold, yet the curve must
     still have the requested length, each λ past the stop repeating
     the last model's error. *)
  let g, f =
    sparse_problem ~k:40 ~m:20 ~support:[| 1 |] ~coeffs:[| 1. |] 35
  in
  let src = Polybasis.Design.Provider.dense g in
  check_int "path stops early" 1
    (Array.length (Rsm.Omp.path_p src f ~max_lambda:8));
  let r = Rsm.Select.omp_p (rng ()) ~max_lambda:8 src f in
  let curve = r.Rsm.Select.curve in
  check_int "curve padded" 8 (Array.length curve);
  check_bool "padding repeats the last error" true
    (Array.for_all (fun e -> e = curve.(0)) curve);
  check_int "lambda" 1 r.Rsm.Select.lambda

let test_folds_parameter () =
  let g, f =
    sparse_problem ~noise:0.1 ~k:60 ~m:30 ~support:[| 2 |] ~coeffs:[| 1. |] 36
  in
  (* Q = 2, 5: both must run; the paper's Fig. 2 uses Q = 4 by default. *)
  List.iter
    (fun q ->
      let r = Rsm.Select.omp ~folds:q (rng ()) ~max_lambda:6 g f in
      check_bool "ran" true (Array.length r.Rsm.Select.curve = 6))
    [ 2; 5 ];
  (* Q < 2 has no held-out fold: every selector rejects it up front
     (Q = 0 once divided by zero in the λ clamp, Q = 1 blamed
     max_lambda). *)
  let src = Polybasis.Design.Provider.dense g in
  let selectors =
    [
      ("omp_p", fun folds f -> Rsm.Select.omp_p ~folds (rng ()) ~max_lambda:6 src f);
      ("lars_p", fun folds f -> Rsm.Select.lars_p ~folds (rng ()) ~max_lambda:6 src f);
      ( "omp_multi_p",
        fun folds f ->
          (Rsm.Select.omp_multi_p ~folds (rng ()) ~max_lambda:6 src [| f |]).(0) );
      ( "star_multi_p",
        fun folds f ->
          (Rsm.Select.star_multi_p ~folds (rng ()) ~max_lambda:6 src [| f |]).(0) );
      ( "lars_multi_p",
        fun folds f ->
          (Rsm.Select.lars_multi_p ~folds (rng ()) ~max_lambda:6 src [| f |]).(0) );
    ]
  in
  List.iter
    (fun folds ->
      List.iter
        (fun (name, run) ->
          check_raises_invalid
            (Printf.sprintf "%s ~folds:%d" name folds)
            (fun () -> run folds f))
        selectors)
    [ 0; 1; -1 ];
  (* A response one entry short or long is rejected before the fold
     plan is drawn, with the same message from every selector (the
     single-output ones once ran the whole CV first, or failed with a
     bare index error). *)
  let k = Array.length f in
  List.iter
    (fun len ->
      let f' = Array.init len (fun i -> f.(i mod k)) in
      List.iter
        (fun (name, run) ->
          Alcotest.check_raises
            (Printf.sprintf "%s with %d responses for %d rows" name len k)
            (Invalid_argument "Select: response length mismatch")
            (fun () -> ignore (run 4 f')))
        selectors)
    [ k - 1; k + 1 ]

(* --- Solver front-end --- *)

let test_solver_names () =
  Alcotest.(check (list string))
    "table order"
    [ "LS"; "STAR"; "LAR"; "OMP" ]
    (List.map Rsm.Solver.name Rsm.Solver.all)

let test_solver_of_name () =
  check_bool "omp" true (Rsm.Solver.of_name "OMP" = Some Rsm.Solver.Omp);
  check_bool "lars alias" true (Rsm.Solver.of_name "lars" = Some Rsm.Solver.Lar);
  check_bool "lasso" true (Rsm.Solver.of_name "Lasso" = Some Rsm.Solver.Lasso);
  check_bool "unknown" true (Rsm.Solver.of_name "svm" = None);
  check_bool "stomp is unknown" true (Rsm.Solver.of_name "stomp" = None);
  (* Every documented CLI name parses back to its method. *)
  List.iter
    (fun m ->
      check_bool (Rsm.Solver.cli_name m) true
        (Rsm.Solver.of_name (Rsm.Solver.cli_name m) = Some m))
    Rsm.Solver.methods

let test_solver_fit_dispatch () =
  let g, f =
    sparse_problem ~noise:0.05 ~k:80 ~m:40 ~support:[| 2; 9 |]
      ~coeffs:[| 1.; -1. |] 37
  in
  List.iter
    (fun meth ->
      let m =
        Rsm.Solver.fit_p ~lambda:4 (Polybasis.Design.Provider.dense g) f meth
      in
      let e = Rsm.Model.error_on m g f in
      check_bool (Rsm.Solver.name meth ^ " trains") true (e < 0.9))
    Rsm.Solver.methods

let test_solver_fit_cv_dispatch () =
  let g, f =
    sparse_problem ~noise:0.05 ~k:80 ~m:40 ~support:[| 2; 9 |]
      ~coeffs:[| 1.; -1. |] 38
  in
  List.iter
    (fun meth ->
      let m = Rsm.Solver.fit_cv (rng ()) ~max_lambda:8 g f meth in
      check_bool (Rsm.Solver.name meth ^ " cv trains") true
        (Rsm.Model.error_on m g f < 0.9))
    Rsm.Solver.all

(* The CV report's λ: select_multi_p returns fit_multi_p's models and,
   for a path method, the selector's λ with the grid's cap — the
   curve's length, here --max-lambda (8), or the smallest fold's
   training rows when those are fewer (K = 12, 4 folds: 9); the other
   methods report none. *)
let test_solver_select_lambda () =
  let g, f =
    sparse_problem ~noise:0.05 ~k:80 ~m:40 ~support:[| 2; 9 |]
      ~coeffs:[| 1.; -1. |] 38
  in
  let src = Polybasis.Design.Provider.dense g in
  List.iter
    (fun meth ->
      let sel = Rsm.Solver.select_multi_p (rng ()) ~max_lambda:8 src [| f |] meth in
      let model = Rsm.Solver.fit_cv_p (rng ()) ~max_lambda:8 src f meth in
      let name = Rsm.Solver.name meth in
      check_bool (name ^ ": the fit_cv_p model") true
        (Rsm.Serialize.to_string sel.(0).Rsm.Solver.model
        = Rsm.Serialize.to_string model);
      match meth with
      | Rsm.Solver.Omp | Star | Lar | Lasso ->
          let r =
            match meth with
            | Rsm.Solver.Omp -> Rsm.Select.omp_p (rng ()) ~max_lambda:8 src f
            | Star ->
                (Rsm.Select.star_multi_p (rng ()) ~max_lambda:8 src [| f |]).(0)
            | Lar -> Rsm.Select.lars_p (rng ()) ~max_lambda:8 src f
            | _ ->
                Rsm.Select.lars_p ~mode:Rsm.Lars.Lasso (rng ()) ~max_lambda:8
                  src f
          in
          check_bool (name ^ ": the selector's lambda, cap 8") true
            (sel.(0).Rsm.Solver.lambda = Some (r.Rsm.Select.lambda, 8))
      | _ -> check_bool (name ^ ": no lambda") true (sel.(0).Rsm.Solver.lambda = None))
    Rsm.Solver.all;
  let g, f =
    sparse_problem ~noise:0.05 ~k:12 ~m:40 ~support:[| 2; 9 |]
      ~coeffs:[| 1.; -1. |] 39
  in
  let sel =
    Rsm.Solver.select_multi_p (rng ()) ~max_lambda:30
      (Polybasis.Design.Provider.dense g) [| f |] Rsm.Solver.Omp
  in
  check_bool "omp: the rows cap, 9" true
    (Option.map snd sel.(0).Rsm.Solver.lambda = Some 9)

let test_needs_overdetermined () =
  check_bool "only LS" true
    (List.map Rsm.Solver.needs_overdetermined Rsm.Solver.all
    = [ true; false; false; false ])

let suite =
  ( "select",
    [
      case "omp cv: finds true sparsity" test_omp_cv_finds_true_sparsity;
      case "cv curve shape" test_cv_curve_shape;
      case "star cv" test_star_cv_runs;
      case "lars cv" test_lars_cv_runs;
      case "omp_p: pads short paths" test_omp_p_pads_short_paths;
      case "fold count parameter" test_folds_parameter;
      case "solver: names" test_solver_names;
      case "solver: of_name" test_solver_of_name;
      case "solver: fit dispatch" test_solver_fit_dispatch;
      case "solver: fit_cv dispatch" test_solver_fit_cv_dispatch;
      case "solver: needs_overdetermined" test_needs_overdetermined;
      case "solver: select_multi_p reports lambda and its cap"
        test_solver_select_lambda;
    ] )
