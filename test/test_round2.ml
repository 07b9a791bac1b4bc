(* Second-round extensions: FISTA, coherence diagnostics, Latin
   hypercube sampling, Kolmogorov-Smirnov, joint yield. *)
open Test_util
open Linalg

(* --- FISTA --- *)

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

let test_lipschitz_vs_svd () =
  let g = rng () in
  let a = Randkit.Gaussian.matrix g 30 10 in
  let l = Fista.lipschitz ~iters:200 a in
  let d = Svd.decompose a in
  check_float ~eps:1e-4 "L = sigma_max^2" (d.Svd.sigma.(0) ** 2.) l

let test_fista_matches_cd () =
  (* Same convex program, same solution: FISTA vs coordinate descent. *)
  let g, f =
    sparse_problem ~noise:0.2 ~k:80 ~m:40 ~support:[| 3; 20 |]
      ~coeffs:[| 2.; -1. |] 201
  in
  let reg = 0.2 *. Lasso_cd.max_reg g f in
  let cd = Lasso_cd.fit ~tol:1e-12 g f ~reg in
  let fista = Fista.fit ~max_iters:5000 ~tol:1e-14 g f ~reg in
  let o_cd = Fista.objective g f ~reg cd in
  let o_fista = Fista.objective g f ~reg fista in
  check_float ~eps:1e-4 "objectives equal" o_cd o_fista;
  check_vec ~eps:1e-3 "solutions equal" (Rsm.Model.to_dense cd)
    (Rsm.Model.to_dense fista)

let test_fista_zero_at_max_reg () =
  let g, f =
    sparse_problem ~k:50 ~m:20 ~support:[| 5 |] ~coeffs:[| 1. |] 202
  in
  let m = Fista.fit g f ~reg:(Lasso_cd.max_reg g f *. 1.01) in
  check_int "all zeros above max penalty" 0 (Rsm.Model.nnz m)

let test_fista_validation () =
  let g, f = sparse_problem ~k:10 ~m:5 ~support:[| 1 |] ~coeffs:[| 1. |] 203 in
  check_raises_invalid "negative reg" (fun () ->
      ignore (Fista.fit g f ~reg:(-1.)))

(* --- Coherence --- *)

let test_coherence_orthogonal () =
  check_float "identity columns" 0. (Rsm.Coherence.mutual_coherence (Mat.identity 5));
  check_bool "infinite bound" true
    (Rsm.Coherence.coherence_recovery_bound (Mat.identity 5) = Float.infinity)

let test_coherence_duplicate_columns () =
  let a = Mat.of_arrays [| [| 1.; 1.; 0. |]; [| 0.; 0.; 1. |] |] in
  check_float ~eps:1e-12 "identical columns" 1. (Rsm.Coherence.mutual_coherence a)

let test_coherence_random_gaussian () =
  (* Random K x M Gaussian: coherence ~ sqrt(log M / K), well below 1. *)
  let g = rng () in
  let a = Randkit.Gaussian.matrix g 200 50 in
  let mu = Rsm.Coherence.mutual_coherence a in
  check_bool "moderate coherence" true (mu > 0.05 && mu < 0.5)

let test_babel_bounds () =
  let g = rng () in
  let a = Randkit.Gaussian.matrix g 100 20 in
  let mu = Rsm.Coherence.mutual_coherence a in
  let b1 = Rsm.Coherence.babel a 1 in
  let b3 = Rsm.Coherence.babel a 3 in
  check_float ~eps:1e-12 "babel(1) = mu" mu b1;
  check_bool "monotone in s" true (b3 >= b1);
  check_bool "babel(s) <= s mu" true (b3 <= (3. *. mu) +. 1e-12)

let test_subset_condition () =
  let g = rng () in
  let a = Randkit.Gaussian.matrix g 150 40 in
  let mean_k, max_k = Rsm.Coherence.subset_condition (rng ()) a ~s:5 in
  check_bool "mean <= max" true (mean_k <= max_k +. 1e-12);
  check_bool "well conditioned subsets" true (max_k < 3.);
  check_raises_invalid "s too big" (fun () ->
      ignore (Rsm.Coherence.subset_condition (rng ()) a ~s:41))

let test_hermite_dictionary_certificate () =
  (* The sampled Hermite dictionary used in the paper's regime passes
     the empirical conditioning probe. *)
  let b = Polybasis.Basis.quadratic 8 in
  let g = rng () in
  let pts = Array.init 300 (fun _ -> Randkit.Gaussian.vector g 8) in
  let design = Polybasis.Design.matrix_rows b pts in
  let mean_k, _ = Rsm.Coherence.subset_condition (rng ()) design ~s:10 in
  check_bool "restricted condition under 3" true (mean_k < 3.)

(* --- LHS --- *)

let test_lhs_stratification () =
  let g = rng () in
  let pts = Randkit.Lhs.gaussian_points g ~k:32 ~n:3 in
  check_int "count" 32 (Array.length pts);
  (* Each dimension has exactly one point per stratum of the normal
     distribution function. *)
  for d = 0 to 2 do
    let seen = Array.make 32 false in
    Array.iter
      (fun p ->
        let s = int_of_float (Stat.Distribution.cdf p.(d) *. 32.) in
        check_bool "stratum unique" false seen.(s);
        seen.(s) <- true)
      pts
  done

let test_lhs_gaussian_marginals () =
  let g = rng () in
  let pts = Randkit.Lhs.gaussian_points g ~k:2000 ~n:2 in
  let col d = Array.map (fun p -> p.(d)) pts in
  (* Stratified normal: mean and variance extremely close to 0/1. *)
  check_float ~eps:0.01 "mean" 0. (Stat.Descriptive.mean (col 0));
  check_float ~eps:0.02 "variance" 1. (Stat.Descriptive.variance (col 1));
  (* Quantile transform agrees with Stat.Distribution. *)
  let u = 0.3 in
  let via_stat = Stat.Distribution.quantile u in
  let pts1 = Randkit.Lhs.gaussian_points (Randkit.Prng.create 1) ~k:1 ~n:1 in
  ignore pts1;
  check_bool "transform sane" true (Float.abs via_stat < 1.)

let test_lhs_validation () =
  let g = rng () in
  check_raises_invalid "k = 0" (fun () ->
      ignore (Randkit.Lhs.gaussian_points g ~k:0 ~n:1))

let test_lhs_reduces_mean_estimator_variance () =
  (* The stratified plan's sample mean of a monotone function has lower
     variance than iid MC: check across repeated runs. *)
  let f p = p.(0) +. (0.5 *. p.(1)) in
  let runs = 40 and k = 64 in
  let means plan =
    Array.init runs (fun r ->
        let g = Randkit.Prng.create (1000 + r) in
        let pts = plan g in
        Stat.Descriptive.mean (Array.map f pts))
  in
  let lhs_var =
    Stat.Descriptive.variance (means (fun g -> Randkit.Lhs.gaussian_points g ~k ~n:2))
  in
  let mc_var =
    Stat.Descriptive.variance
      (means (fun g -> Array.init k (fun _ -> Randkit.Gaussian.vector g 2)))
  in
  check_bool
    (Printf.sprintf "LHS variance (%.2e) well below MC (%.2e)" lhs_var mc_var)
    true
    (lhs_var < 0.3 *. mc_var)

(* --- GOF --- *)

let test_ks_identical () =
  let a = [| 1.; 2.; 3.; 4. |] in
  check_float "identical" 0. (Gof.ks_two_sample a a)

let test_ks_disjoint () =
  let a = [| 1.; 2. |] and b = [| 10.; 11. |] in
  check_float "disjoint = 1" 1. (Gof.ks_two_sample a b)

let test_ks_same_distribution_small () =
  let g = rng () in
  let a = Randkit.Gaussian.vector g 3000 in
  let b = Randkit.Gaussian.vector g 3000 in
  let d = Gof.ks_two_sample a b in
  check_bool "below critical" true
    (d < Gof.ks_critical ~alpha:0.01 ~n1:3000 ~n2:3000)

let test_ks_shifted_detected () =
  let g = rng () in
  let a = Randkit.Gaussian.vector g 2000 in
  let b = Array.map (fun x -> x +. 0.3) (Randkit.Gaussian.vector g 2000) in
  check_bool "shift rejected" true
    (Gof.ks_two_sample a b > Gof.ks_critical ~alpha:0.01 ~n1:2000 ~n2:2000)

let test_ks_normal () =
  let g = rng () in
  let a = Array.map (fun x -> (2. *. x) +. 5.) (Randkit.Gaussian.vector g 4000) in
  let d_right = Gof.ks_normal ~mean:5. ~sigma:2. a in
  let d_wrong = Gof.ks_normal ~mean:0. ~sigma:1. a in
  check_bool "right parameters fit" true (d_right < 0.03);
  check_bool "wrong parameters do not" true (d_wrong > 0.5)

(* --- joint yield --- *)

(* Joint yield over shared draws: [Serve.Stream.values] from the same
   seed evaluates every tape at the same factor draws (they depend on
   the basis dimension, not on the model), so scoring the metric
   streams point by point captures their correlation — multiplying
   marginal yields would not. *)
let joint_yield ~samples specs basis =
  let streams =
    List.map
      (fun (m, spec) ->
        let tape = Serve.Eval.compile m basis in
        (Serve.Stream.values ~samples tape (rng ()), spec))
      specs
  in
  let pass = ref 0 in
  for s = 0 to samples - 1 do
    if List.for_all (fun (v, spec) -> Rsm.Yield.passes spec v.(s)) streams
    then incr pass
  done;
  let y = float_of_int !pass /. float_of_int samples in
  (y, sqrt (y *. (1. -. y) /. float_of_int samples))

let test_joint_yield_correlated_specs () =
  let b = Polybasis.Basis.constant_linear 1 in
  (* Two perfectly correlated metrics: f1 = y0, f2 = 2 y0. Joint yield
     of {f1 <= 0} and {f2 <= 0} is 0.5, not 0.25. *)
  let m1 = Rsm.Model.make ~basis_size:2 ~support:[| 1 |] ~coeffs:[| 1. |] in
  let m2 = Rsm.Model.make ~basis_size:2 ~support:[| 1 |] ~coeffs:[| 2. |] in
  let y, se =
    joint_yield ~samples:40000
      [ (m1, Rsm.Yield.spec_max 0.); (m2, Rsm.Yield.spec_max 0.) ]
      b
  in
  check_bool "joint = marginal for perfectly correlated" true
    (Float.abs (y -. 0.5) < 4. *. se)

let test_joint_yield_independent_specs () =
  let b = Polybasis.Basis.constant_linear 2 in
  (* Independent metrics: f1 = y0, f2 = y1: joint {<=0, <=0} = 0.25. *)
  let m1 = Rsm.Model.make ~basis_size:3 ~support:[| 1 |] ~coeffs:[| 1. |] in
  let m2 = Rsm.Model.make ~basis_size:3 ~support:[| 2 |] ~coeffs:[| 1. |] in
  let y, se =
    joint_yield ~samples:40000
      [ (m1, Rsm.Yield.spec_max 0.); (m2, Rsm.Yield.spec_max 0.) ]
      b
  in
  check_bool "joint = product for independent" true
    (Float.abs (y -. 0.25) < 4. *. se)

let suite =
  ( "round2",
    [
      case "fista: lipschitz = sigma_max^2" test_lipschitz_vs_svd;
      case "fista: matches coordinate descent" test_fista_matches_cd;
      case "fista: zero at max reg" test_fista_zero_at_max_reg;
      case "fista: validation" test_fista_validation;
      case "coherence: orthogonal" test_coherence_orthogonal;
      case "coherence: duplicates" test_coherence_duplicate_columns;
      case "coherence: random gaussian" test_coherence_random_gaussian;
      case "coherence: babel bounds" test_babel_bounds;
      case "coherence: subset conditioning" test_subset_condition;
      slow_case "coherence: Hermite dictionary certificate"
        test_hermite_dictionary_certificate;
      case "lhs: stratification" test_lhs_stratification;
      slow_case "lhs: gaussian marginals" test_lhs_gaussian_marginals;
      case "lhs: validation" test_lhs_validation;
      slow_case "lhs: variance reduction" test_lhs_reduces_mean_estimator_variance;
      case "ks: identical" test_ks_identical;
      case "ks: disjoint" test_ks_disjoint;
      slow_case "ks: same distribution" test_ks_same_distribution_small;
      slow_case "ks: shift detected" test_ks_shifted_detected;
      slow_case "ks: one-sample normal" test_ks_normal;
      slow_case "joint yield: correlated" test_joint_yield_correlated_specs;
      slow_case "joint yield: independent" test_joint_yield_independent_specs;
    ] )
