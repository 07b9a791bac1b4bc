(* Coverage of the remaining public API surface: pretty-printers,
   rank-revealing diagnostics, PRNG stream independence, PCA accessors,
   sensitivity on fitted circuit models, serialization fuzzing. *)
open Test_util
open Linalg

let test_pp_smoke_no_str () =
  (* Without depending on Str: just smoke the matrix and model printers. *)
  let m = Mat.identity 10 in
  let s = Format.asprintf "%a" Mat.pp m in
  check_bool "mat pp mentions shape" true (String.length s > 20);
  let model = Rsm.Model.make ~basis_size:50 ~support:[| 1; 2 |] ~coeffs:[| 1.; 2. |] in
  let s = Format.asprintf "%a" Rsm.Model.pp model in
  check_bool "model pp" true (String.length s > 10);
  let t = Format.asprintf "%a" Polybasis.Term.pp (Polybasis.Term.cross 1 2) in
  Alcotest.(check string) "term pp" "y1*y2" t;
  let b = Format.asprintf "%a" Polybasis.Basis.pp (Polybasis.Basis.quadratic 3) in
  check_bool "basis pp" true (String.length b > 20)

let test_qr_rank_revealing () =
  (* Rank-deficient matrix: trailing |R| diagonal entries collapse. *)
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |]; [| 3.; 6. |] |] in
  let f = Qr.factor a in
  let d = Qr.rank_revealing_diag f in
  check_bool "leading pivot healthy" true (d.(0) > 1.);
  check_bool "trailing pivot collapsed" true (d.(1) < 1e-10)

let test_prng_split_decorrelated () =
  (* Parent and child streams should be statistically independent:
     correlation of their outputs near zero. *)
  let parent = Randkit.Prng.create 777 in
  let child = Randkit.Prng.split parent in
  let n = 20000 in
  let a = Array.init n (fun _ -> Randkit.Prng.float parent) in
  let b = Array.init n (fun _ -> Randkit.Prng.float child) in
  check_bool "decorrelated" true
    (Float.abs (Stat.Descriptive.correlation a b) < 0.03)

let test_pca_eigenvalues_accessor () =
  let sigma = Mat.of_arrays [| [| 4.; 0. |]; [| 0.; 1. |] |] in
  let p = Stat.Pca.of_covariance sigma in
  check_vec ~eps:1e-10 "eigenvalues sorted" [| 4.; 1. |] (Stat.Pca.eigenvalues p)

let test_sensitivity_on_fitted_quadratic () =
  (* Fit a quadratic model of a known function and check the shares. *)
  let basis = Polybasis.Basis.quadratic 4 in
  let truth dy = (3. *. dy.(0)) +. (dy.(1) *. dy.(2)) in
  let g = rng () in
  let pts = Array.init 300 (fun _ -> Randkit.Gaussian.vector g 4) in
  let design = Polybasis.Design.matrix_rows basis pts in
  let f = Array.map truth pts in
  let model = Rsm.Omp.fit design f ~lambda:4 in
  let shares = Rsm.Sensitivity.factor_shares model basis in
  (* Var = 9 (y0) + 1 (y1 y2): shares 0.9, 0.1, 0.1, 0. *)
  check_float ~eps:0.02 "y0 share" 0.9 shares.(0);
  check_float ~eps:0.02 "y1 share" 0.1 shares.(1);
  check_float ~eps:0.02 "y2 share" 0.1 shares.(2);
  check_float ~eps:0.01 "y3 untouched" 0. shares.(3);
  check_float ~eps:0.02 "interaction share" 0.1
    (Rsm.Sensitivity.interaction_share model basis)

let serialize_fuzz =
  qtest ~count:50 "serialize roundtrips random models"
    QCheck.(pair (int_range 1 200) (int_range 0 12))
    (fun (basis_size, nnz0) ->
      let nnz = min nnz0 basis_size in
      let g = Randkit.Prng.create (basis_size * 31 + nnz) in
      let support =
        Randkit.Sampling.subsample g (Array.init basis_size Fun.id) nnz
      in
      Array.sort compare support;
      let coeffs =
        Array.init nnz (fun _ -> (Randkit.Prng.float g -. 0.5) *. 1e6)
      in
      let m = Rsm.Model.make ~basis_size ~support ~coeffs in
      match Rsm.Serialize.of_string (Rsm.Serialize.to_string m) with
      | Ok m' ->
          m'.Rsm.Model.support = m.Rsm.Model.support
          && Vec.approx_equal ~tol:0. m'.Rsm.Model.coeffs m.Rsm.Model.coeffs
      | Error _ -> false)

let omp_path_support_growth =
  qtest ~count:25 "OMP path support grows by one per step"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g = Randkit.Prng.create seed in
      let design = Randkit.Gaussian.matrix g 40 25 in
      let f =
        Array.init 40 (fun i ->
            Mat.get design i 3 +. (0.5 *. Randkit.Gaussian.sample g))
      in
      let steps = Rsm.Omp.path_p (Polybasis.Design.Provider.dense design) f ~max_lambda:6 in
      let ok = ref true in
      Array.iteri
        (fun i s ->
          if Rsm.Model.nnz s.Rsm.Omp.model <> i + 1 then ok := false)
        steps;
      !ok)

let suite =
  ( "misc-api",
    [
      case "pretty printers" test_pp_smoke_no_str;
      case "qr: rank revealing diagonal" test_qr_rank_revealing;
      slow_case "prng: split decorrelated" test_prng_split_decorrelated;
      case "pca: eigenvalues accessor" test_pca_eigenvalues_accessor;
      case "sensitivity: fitted quadratic" test_sensitivity_on_fitted_quadratic;
      serialize_fuzz;
      omp_path_support_growth;
    ] )
