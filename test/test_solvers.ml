(* OMP, STAR, LARS, LS, ridge and coordinate-descent lasso. *)
open Test_util
open Linalg

(* A reproducible sparse problem: K samples, M columns, P-sparse truth. *)
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

let std_support = [| 4; 11; 29; 47 |]
let std_coeffs = [| 3.; -2.; 1.5; 0.9 |]

let std_problem ?noise seed =
  sparse_problem ?noise ~k:60 ~m:80 ~support:std_support ~coeffs:std_coeffs seed

(* --- OMP --- *)

let test_omp_exact_recovery () =
  let g, f = std_problem 1 in
  let model = Rsm.Omp.fit g f ~lambda:4 in
  Alcotest.(check (array int)) "support found" std_support model.Rsm.Model.support;
  check_vec ~eps:1e-8 "coefficients exact" std_coeffs model.Rsm.Model.coeffs

let test_omp_residual_orthogonal () =
  (* Fig. 1's geometry: after each step the residual is orthogonal to
     every selected basis vector. *)
  let g, f = std_problem ~noise:0.2 2 in
  let steps = Rsm.Omp.path_p (Polybasis.Design.Provider.dense g) f ~max_lambda:6 in
  Array.iter
    (fun s ->
      let res =
        Vec.sub f (Rsm.Model.predict_design s.Rsm.Omp.model g)
      in
      Array.iter
        (fun j ->
          check_bool "orthogonal" true (Float.abs (Mat.col_dot g j res) < 1e-7))
        s.Rsm.Omp.model.Rsm.Model.support)
    steps

let test_omp_residual_decreasing () =
  let g, f = std_problem ~noise:0.5 3 in
  let steps = Rsm.Omp.path_p (Polybasis.Design.Provider.dense g) f ~max_lambda:10 in
  for i = 1 to Array.length steps - 1 do
    check_bool "monotone" true
      (steps.(i).Rsm.Omp.residual_norm
      <= steps.(i - 1).Rsm.Omp.residual_norm +. 1e-9)
  done

let test_omp_two_column_example () =
  (* The worked 2-D example of Fig. 1: F = a1·G1 + a2·G2 recovered in
     exactly two iterations. *)
  let g = Mat.of_arrays [| [| 1.; 0.2 |]; [| 0.; 1. |]; [| 0.5; -0.3 |] |] in
  let f = Mat.mulv g [| 2.; -1. |] in
  let steps = Rsm.Omp.path_p (Polybasis.Design.Provider.dense g) f ~max_lambda:2 in
  check_int "two steps" 2 (Array.length steps);
  let final = steps.(1).Rsm.Omp.model in
  check_vec ~eps:1e-10 "both coefficients" [| 2.; -1. |] final.Rsm.Model.coeffs

let test_omp_refit_changes_coefficients () =
  (* The coefficient of the first-selected vector must be re-computed
     when the second enters (paper: "α_s1 calculated by (16) may be
     different from that calculated by (20)"). Use correlated columns. *)
  let g =
    Mat.of_arrays
      [| [| 1.; 0.9 |]; [| 1.; 0.8 |]; [| 1.; 1.1 |]; [| -1.; 0.1 |] |]
  in
  let f = Mat.mulv g [| 1.; 1. |] in
  let steps = Rsm.Omp.path_p (Polybasis.Design.Provider.dense g) f ~max_lambda:2 in
  let c1_first = steps.(0).Rsm.Omp.model.Rsm.Model.coeffs.(0) in
  let m2 = steps.(1).Rsm.Omp.model in
  let first_sel = steps.(0).Rsm.Omp.index in
  let c1_after = Rsm.Model.coeff m2 first_sel in
  check_bool "re-fit moved the first coefficient" true
    (Float.abs (c1_first -. c1_after) > 1e-6)

let test_omp_early_stop_on_exact_fit () =
  let g, f = std_problem 4 in
  (* Asking for far more iterations than needed stops at ~P. *)
  let steps = Rsm.Omp.path_p (Polybasis.Design.Provider.dense g) f ~max_lambda:40 in
  check_bool "stopped early" true (Array.length steps <= 8)

let test_omp_lambda_validation () =
  let g, f = std_problem 5 in
  check_raises_invalid "lambda 0" (fun () -> ignore (Rsm.Omp.path_p (Polybasis.Design.Provider.dense g) f ~max_lambda:0));
  check_raises_invalid "lambda > K" (fun () ->
      ignore (Rsm.Omp.path_p (Polybasis.Design.Provider.dense g) f ~max_lambda:61))

let test_omp_dependent_columns () =
  (* Duplicate columns: OMP must not crash, and never selects both. *)
  let g0, f = std_problem 6 in
  let g = Mat.init 60 81 (fun i j -> if j = 80 then Mat.get g0 i 4 else Mat.get g0 i j) in
  let steps = Rsm.Omp.path_p (Polybasis.Design.Provider.dense g) f ~max_lambda:10 in
  Array.iter
    (fun s ->
      let sup = s.Rsm.Omp.model.Rsm.Model.support in
      check_bool "not both duplicates" false
        (Array.mem 4 sup && Array.mem 80 sup))
    steps

(* --- STAR --- *)

let test_star_selects_true_support_orthogonal () =
  (* With near-orthogonal (large K) columns STAR finds the support. *)
  let g, f =
    sparse_problem ~k:400 ~m:50 ~support:[| 3; 17 |] ~coeffs:[| 2.; -1. |] 7
  in
  let model = Rsm.Star.fit g f ~lambda:2 in
  Alcotest.(check (array int)) "support" [| 3; 17 |] model.Rsm.Model.support

let test_star_no_refit () =
  (* STAR's first-step coefficient stays frozen: fit with λ=1 and λ=2
     give the same coefficient for the first selection. *)
  let g, f = std_problem 8 in
  let s = Rsm.Star.path_p (Polybasis.Design.Provider.dense g) f ~max_lambda:2 in
  let first = s.(0).Rsm.Star.index in
  check_float ~eps:1e-12 "frozen coefficient"
    (Rsm.Model.coeff s.(0).Rsm.Star.model first)
    (Rsm.Model.coeff s.(1).Rsm.Star.model first)

let test_star_worse_than_omp () =
  (* The paper's headline comparison: at equal λ, OMP's re-fit beats
     STAR's inner-product coefficients on correlated sampled columns. *)
  let g, f = std_problem ~noise:0.1 9 in
  let omp = Rsm.Omp.fit g f ~lambda:4 in
  let star = Rsm.Star.fit g f ~lambda:4 in
  let e_omp = Rsm.Model.error_on omp g f in
  let e_star = Rsm.Model.error_on star g f in
  check_bool "OMP at least as accurate" true (e_omp <= e_star +. 1e-12)

let test_star_residual_decreasing () =
  let g, f = std_problem ~noise:0.3 10 in
  let steps = Rsm.Star.path_p (Polybasis.Design.Provider.dense g) f ~max_lambda:10 in
  for i = 1 to Array.length steps - 1 do
    check_bool "monotone" true
      (steps.(i).Rsm.Star.residual_norm
      <= steps.(i - 1).Rsm.Star.residual_norm +. 1e-9)
  done

(* --- LARS --- *)

let test_lars_recovers_support () =
  let g, f = std_problem 11 in
  let model = Rsm.Lars.fit g f ~lambda:4 in
  Alcotest.(check (array int)) "support" std_support model.Rsm.Model.support

let test_lars_correlations_decrease () =
  let g, f = std_problem ~noise:0.2 12 in
  let steps = Rsm.Lars.path_p (Polybasis.Design.Provider.dense g) f ~max_steps:8 in
  for i = 1 to Array.length steps - 1 do
    check_bool "max corr decreasing" true
      (steps.(i).Rsm.Lars.max_corr <= steps.(i - 1).Rsm.Lars.max_corr +. 1e-9)
  done

let test_lars_equiangular_property () =
  (* After each step, all active columns share (within tolerance) the
     same absolute correlation with the residual — the defining
     property of least angle regression. *)
  let g, f = std_problem ~noise:0.2 13 in
  let norms = Polybasis.Design.column_norms g in
  let steps = Rsm.Lars.path_p (Polybasis.Design.Provider.dense g) f ~max_steps:6 in
  Array.iter
    (fun s ->
      let res = Vec.sub f (Rsm.Model.predict_design s.Rsm.Lars.model g) in
      let cors =
        Array.map
          (fun j -> Float.abs (Mat.col_dot g j res) /. norms.(j))
          s.Rsm.Lars.model.Rsm.Model.support
      in
      if Array.length cors > 1 then begin
        let lo, hi = Stat.Descriptive.min_max cors in
        check_bool "equal correlations" true (hi -. lo < 1e-6 *. Float.max hi 1.)
      end)
    steps

let test_lars_shrinks_vs_ls () =
  (* LARS coefficients at an intermediate step are shrunk relative to
     the LS fit on the same support. *)
  let g, f = std_problem ~noise:0.1 14 in
  let steps = Rsm.Lars.path_p (Polybasis.Design.Provider.dense g) f ~max_steps:3 in
  let s = steps.(2) in
  let sup = s.Rsm.Lars.model.Rsm.Model.support in
  let ls_coeffs = Lstsq.solve_subset g sup f in
  let lars_l1 = Vec.asum s.Rsm.Lars.model.Rsm.Model.coeffs in
  let ls_l1 = Vec.asum ls_coeffs in
  check_bool "L1 shrinkage" true (lars_l1 <= ls_l1 +. 1e-9)

let test_lasso_mode_signs_consistent () =
  (* Lasso solutions never have a coefficient whose sign opposes its
     correlation at entry; a weak but useful invariant: the KKT sign
     condition on the active set. *)
  let g, f = std_problem ~noise:0.3 15 in
  let steps = Rsm.Lars.path_p ~mode:Rsm.Lars.Lasso (Polybasis.Design.Provider.dense g) f ~max_steps:10 in
  let final = steps.(Array.length steps - 1).Rsm.Lars.model in
  let res = Vec.sub f (Rsm.Model.predict_design final g) in
  Array.iteri
    (fun p j ->
      let c = Mat.col_dot g j res in
      let coef = final.Rsm.Model.coeffs.(p) in
      (* Correlation and coefficient must agree in sign on the active set. *)
      check_bool "KKT sign" true (c *. coef >= -1e-6))
    final.Rsm.Model.support

let test_lasso_path_matches_cd () =
  (* The lasso-LARS path and coordinate descent solve the same convex
     program: compare at a matched penalty. From a lasso-LARS step with
     max_corr C (on unit-normalized columns), the equivalent CD penalty
     on raw columns is reg = C·norm (uniform norms here ≈ √K). *)
  let g, f = std_problem ~noise:0.2 16 in
  let steps = Rsm.Lars.path_p ~mode:Rsm.Lars.Lasso (Polybasis.Design.Provider.dense g) f ~max_steps:6 in
  let s = steps.(4) in
  let norms = Polybasis.Design.column_norms g in
  (* Use per-column norms: CD works on raw columns, so its KKT threshold
     for column j is reg; LARS's is C·norms(j). Equal norms hold only
     approximately, so compare predictions rather than coefficients. *)
  let c = s.Rsm.Lars.max_corr in
  let reg = c *. Stat.Descriptive.mean norms in
  let cd = Lasso_cd.fit g f ~reg in
  let pred_lars = Rsm.Model.predict_design s.Rsm.Lars.model g in
  let pred_cd = Rsm.Model.predict_design cd g in
  let denom = Float.max (Vec.nrm2 pred_lars) 1e-9 in
  check_bool "solutions close" true
    (Vec.dist2 pred_lars pred_cd /. denom < 0.15)

(* --- LS --- *)

let tall_problem ?noise seed =
  sparse_problem ?noise ~k:120 ~m:40 ~support:[| 4; 11; 29 |]
    ~coeffs:[| 3.; -2.; 1.5 |] seed

let test_ls_exact_on_overdetermined () =
  let g, f = tall_problem 17 in
  let model = Rsm.Ls.fit g f in
  check_float ~eps:1e-8 "zero training error" 0. (Rsm.Model.error_on model g f)

let test_ls_rejects_underdetermined () =
  let g = Mat.create 5 10 in
  check_raises_invalid "K < M" (fun () -> ignore (Rsm.Ls.fit g (Array.make 5 0.)))

let test_ls_methods_agree () =
  let g, f = tall_problem ~noise:0.5 18 in
  let m1 = Rsm.Ls.fit ~method_:Lstsq.Qr g f in
  let m2 = Rsm.Ls.fit ~method_:Lstsq.Normal g f in
  check_vec ~eps:1e-6 "QR vs normal" (Rsm.Model.to_dense m1) (Rsm.Model.to_dense m2)

(* --- Ridge --- *)

let test_ridge_shrinks_towards_zero () =
  let g, f = std_problem ~noise:0.2 19 in
  let weak = Rsm.Ridge.fit g f ~reg:1e-6 in
  let strong = Rsm.Ridge.fit g f ~reg:1e6 in
  check_bool "heavy penalty shrinks" true
    (Vec.nrm2 (Rsm.Model.to_dense strong) < 0.01 *. Vec.nrm2 (Rsm.Model.to_dense weak))

let test_ridge_works_underdetermined () =
  (* K < M: LS would be ill-posed, ridge is fine. *)
  let gen = Randkit.Prng.create 20 in
  let g = Randkit.Gaussian.matrix gen 10 30 in
  let f = Array.init 10 (fun i -> Mat.get g i 0) in
  let m = Rsm.Ridge.fit g f ~reg:1. in
  check_int "dense model" 30 m.Rsm.Model.basis_size;
  check_bool "finite" true (Float.is_finite (Vec.nrm2 (Rsm.Model.to_dense m)))

let test_ridge_validation () =
  let g, f = std_problem 21 in
  check_raises_invalid "reg 0" (fun () -> ignore (Rsm.Ridge.fit g f ~reg:0.))

let test_ridge_cv () =
  let g, f = std_problem ~noise:0.3 22 in
  let rngv = rng () in
  let model, reg = Rsm.Ridge.fit_cv rngv ~folds:4 ~regs:[| 0.1; 1.; 10. |] g f in
  check_bool "chose from grid" true (List.mem reg [ 0.1; 1.; 10. ]);
  check_bool "sane error" true (Rsm.Model.error_on model g f < 0.8)

(* --- Lasso CD --- *)

let test_lasso_cd_zero_at_max_reg () =
  let g, f = std_problem 23 in
  let reg = Lasso_cd.max_reg g f in
  let m = Lasso_cd.fit g f ~reg in
  check_int "all zero" 0 (Rsm.Model.nnz m)

let test_lasso_cd_dense_at_zero_reg () =
  let g, f = std_problem 24 in
  let m = Lasso_cd.fit g f ~reg:1e-10 in
  (* Effectively unpenalized: training error ~ 0 like LS. *)
  check_bool "near-exact" true (Rsm.Model.error_on m g f < 1e-3)

let test_lasso_cd_kkt () =
  (* KKT conditions of the lasso: |G_jᵀr| ≤ reg for inactive j,
     G_jᵀr = reg·sign(α_j) for active j. *)
  let g, f = std_problem ~noise:0.2 25 in
  let reg = 0.3 *. Lasso_cd.max_reg g f in
  let m = Lasso_cd.fit ~tol:1e-12 g f ~reg in
  let res = Vec.sub f (Rsm.Model.predict_design m g) in
  let alpha = Rsm.Model.to_dense m in
  for j = 0 to Mat.cols g - 1 do
    let c = Mat.col_dot g j res in
    if alpha.(j) = 0. then
      check_bool "inactive KKT" true (Float.abs c <= reg +. 1e-6)
    else
      check_float ~eps:1e-5 "active KKT"
        (reg *. Float.of_int (compare alpha.(j) 0.))
        c
  done

let test_lasso_cd_path_monotone_sparsity () =
  let g, f = std_problem ~noise:0.2 26 in
  let top = Lasso_cd.max_reg g f in
  let regs = Array.init 6 (fun i -> top *. (0.5 ** float_of_int i)) in
  let models = Lasso_cd.path g f ~regs in
  for i = 1 to 5 do
    check_bool "sparsity non-increasing penalty -> non-decreasing nnz" true
      (Rsm.Model.nnz models.(i) >= Rsm.Model.nnz models.(i - 1))
  done

let prop_omp_recovers_random_sparse =
  qtest ~count:20 "OMP exact recovery on random 3-sparse problems"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let support = [| 2; 19; 33 |] and coeffs = [| 1.; -2.; 0.5 |] in
      let g, f = sparse_problem ~k:50 ~m:40 ~support ~coeffs seed in
      let m = Rsm.Omp.fit g f ~lambda:3 in
      m.Rsm.Model.support = support
      && Vec.approx_equal ~tol:1e-6 coeffs m.Rsm.Model.coeffs)

let prop_lars_nnz_bounded =
  qtest ~count:20 "LARS fit respects the sparsity budget"
    QCheck.(pair (int_range 1 6) (int_range 0 10000))
    (fun (lambda, seed) ->
      let g, f = std_problem ~noise:0.3 seed in
      let m = Rsm.Lars.fit g f ~lambda in
      Rsm.Model.nnz m <= lambda)

let prop_omp_nnz_equals_lambda =
  qtest ~count:20 "OMP fit uses exactly lambda bases on noisy data"
    QCheck.(pair (int_range 1 8) (int_range 0 10000))
    (fun (lambda, seed) ->
      let g, f = std_problem ~noise:0.5 seed in
      let m = Rsm.Omp.fit g f ~lambda in
      Rsm.Model.nnz m = lambda)

let suite =
  ( "solvers",
    [
      case "omp: exact recovery" test_omp_exact_recovery;
      case "omp: residual orthogonality (Fig. 1)" test_omp_residual_orthogonal;
      case "omp: residual decreasing" test_omp_residual_decreasing;
      case "omp: 2-column worked example" test_omp_two_column_example;
      case "omp: re-fit changes earlier coefficients" test_omp_refit_changes_coefficients;
      case "omp: early stop on exact fit" test_omp_early_stop_on_exact_fit;
      case "omp: lambda validation" test_omp_lambda_validation;
      case "omp: duplicate columns" test_omp_dependent_columns;
      case "star: support on orthogonal design" test_star_selects_true_support_orthogonal;
      case "star: coefficients frozen" test_star_no_refit;
      case "star: OMP at least as accurate" test_star_worse_than_omp;
      case "star: residual decreasing" test_star_residual_decreasing;
      case "lars: support recovery" test_lars_recovers_support;
      case "lars: correlations decrease" test_lars_correlations_decrease;
      case "lars: equiangular property" test_lars_equiangular_property;
      case "lars: shrinkage vs LS" test_lars_shrinks_vs_ls;
      case "lasso-lars: KKT signs" test_lasso_mode_signs_consistent;
      case "lasso-lars vs coordinate descent" test_lasso_path_matches_cd;
      case "ls: exact on overdetermined" test_ls_exact_on_overdetermined;
      case "ls: rejects underdetermined" test_ls_rejects_underdetermined;
      case "ls: methods agree" test_ls_methods_agree;
      case "ridge: shrinkage" test_ridge_shrinks_towards_zero;
      case "ridge: underdetermined ok" test_ridge_works_underdetermined;
      case "ridge: validation" test_ridge_validation;
      case "ridge: cross-validated" test_ridge_cv;
      case "lasso-cd: zero at max penalty" test_lasso_cd_zero_at_max_reg;
      case "lasso-cd: dense at zero penalty" test_lasso_cd_dense_at_zero_reg;
      case "lasso-cd: KKT conditions" test_lasso_cd_kkt;
      case "lasso-cd: path sparsity monotone" test_lasso_cd_path_monotone_sparsity;
      prop_omp_recovers_random_sparse;
      prop_lars_nnz_bounded;
      prop_omp_nnz_equals_lambda;
    ] )
