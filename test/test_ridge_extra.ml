(* Ridge's unpenalized-intercept option and a lasso-LARS drop-path
   regression test. *)
open Test_util
open Linalg

let test_unpenalized_intercept () =
  (* Response with a huge mean: penalizing the constant column shrinks
     the intercept and wrecks the fit; exempting it does not. *)
  let gen = Randkit.Prng.create 71 in
  let k = 60 and m = 20 in
  (* Column 0 all ones (the constant basis), the rest standard normal. *)
  let g =
    Mat.init k m (fun _ j -> if j = 0 then 1. else Randkit.Gaussian.sample gen)
  in
  let f = Array.init k (fun i -> 1000. +. Mat.get g i 3) in
  let penalized = Rsm.Ridge.fit g f ~reg:100. in
  let exempt = Rsm.Ridge.fit ~unpenalized:[| 0 |] g f ~reg:100. in
  let err m = Rsm.Model.error_on m g f in
  check_bool "exempt intercept much better" true (err exempt < 0.5 *. err penalized);
  check_bool "intercept near the mean" true
    (Float.abs (Rsm.Model.coeff exempt 0 -. 1000.) < 5.);
  check_raises_invalid "bad column" (fun () ->
      ignore (Rsm.Ridge.fit ~unpenalized:[| 20 |] g f ~reg:1.))

let test_unpenalized_cv () =
  let gen = Randkit.Prng.create 72 in
  let k = 80 and m = 15 in
  let g =
    Mat.init k m (fun _ j -> if j = 0 then 1. else Randkit.Gaussian.sample gen)
  in
  let f = Array.init k (fun i -> 500. +. (2. *. Mat.get g i 5)) in
  let model, _ =
    Rsm.Ridge.fit_cv ~unpenalized:[| 0 |] (rng ()) ~folds:4
      ~regs:[| 0.1; 1.; 10. |] g f
  in
  check_bool "fits through the mean" true (Rsm.Model.error_on model g f < 0.2)

(* Known answer: the chosen weight and the refit's coefficient bits on
   one fixed problem, so a change to how the fold curves are run or
   averaged cannot change what the CV picks. *)
let test_fit_cv_known_answer () =
  let gen = Randkit.Prng.create 74 in
  let k = 48 and m = 30 in
  let g =
    Mat.init k m (fun _ j -> if j = 0 then 1. else Randkit.Gaussian.sample gen)
  in
  let f =
    Array.init k (fun i ->
        3. +. (2. *. Mat.get g i 4) -. Mat.get g i 9
        +. (0.5 *. Randkit.Gaussian.sample gen))
  in
  let model, reg =
    Rsm.Ridge.fit_cv ~unpenalized:[| 0 |] (Randkit.Prng.create 75) ~folds:4
      ~regs:[| 0.01; 0.1; 1.; 10.; 100. |] g f
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%h\n" reg;
  Array.iter (Printf.bprintf b "%h\n") (Rsm.Model.to_dense model);
  Alcotest.(check string) "reg and coefficient bits"
    "0x1p+0 076501ccf14099707238657b9c87c28c"
    (Printf.sprintf "%h %s" reg (Digest.to_hex (Digest.string (Buffer.contents b))))

(* Force a lasso drop: a design where the LAR path overshoots and the
   lasso path must send a coefficient back through zero. Classic
   construction: strongly correlated predictors with opposing signs. *)
let test_lasso_drop_occurs_and_is_recorded () =
  let gen = Randkit.Prng.create 73 in
  let k = 200 in
  (* x1, x2 correlated ~0.95; y depends on x1 - 0.5 x2 plus a third
     predictor; plus decoys. *)
  let m = 8 in
  let g = Mat.create k m in
  for i = 0 to k - 1 do
    let z = Randkit.Gaussian.sample gen in
    let x1 = z +. (0.2 *. Randkit.Gaussian.sample gen) in
    let x2 = z +. (0.2 *. Randkit.Gaussian.sample gen) in
    Mat.set g i 0 x1;
    Mat.set g i 1 x2;
    for j = 2 to m - 1 do
      Mat.set g i j (Randkit.Gaussian.sample gen)
    done
  done;
  let f =
    Array.init k (fun i ->
        (1.5 *. Mat.get g i 0) -. (1.3 *. Mat.get g i 1)
        +. (0.5 *. Mat.get g i 2)
        +. (0.05 *. Randkit.Gaussian.sample gen))
  in
  let steps = Rsm.Lars.path_p ~mode:Rsm.Lars.Lasso (Polybasis.Design.Provider.dense g) f ~max_steps:40 in
  (* Whether or not a drop fires on this draw, the path must satisfy the
     lasso invariants at every step: signs consistent, correlations
     decreasing. *)
  for i = 1 to Array.length steps - 1 do
    check_bool "corr non-increasing" true
      (steps.(i).Rsm.Lars.max_corr <= steps.(i - 1).Rsm.Lars.max_corr +. 1e-9)
  done;
  (* The final lasso model must beat the empty model decisively. *)
  let final = steps.(Array.length steps - 1).Rsm.Lars.model in
  check_bool "converged to a good fit" true (Rsm.Model.error_on final g f < 0.1);
  (* Any recorded drop must reference a variable that was active. *)
  Array.iter
    (fun s ->
      match s.Rsm.Lars.dropped with
      | Some j -> check_bool "dropped var is zeroed" true (Rsm.Model.coeff s.Rsm.Lars.model j = 0.)
      | None -> ())
    steps

let test_process_global_sigma_calibrated () =
  (* After the variance normalization in Process.build, the global V_TH
     component's sigma equals the spec (device_shift with zero local
     factors isolates it). *)
  let spec =
    { Circuit.Process.default_spec with n_global = 12; global_corr = 0.7;
      n_devices = 2; mismatch_vars_per_device = 3; n_parasitics = 0 }
  in
  let p = Circuit.Process.build spec in
  let g = rng () in
  let n = 40000 in
  let dvths =
    Array.init n (fun _ ->
        let dy = Circuit.Process.sample p g in
        (* zero out the local factors: globals only *)
        for i = Circuit.Process.n_global_factors p to Circuit.Process.dim p - 1 do
          dy.(i) <- 0.
        done;
        (Circuit.Process.device_shift p dy ~device:0 ~area_factor:1.)
          .Circuit.Process.dvth)
  in
  check_float ~eps:0.0008 "global vth sigma = spec"
    spec.Circuit.Process.vth_sigma_global
    (Stat.Descriptive.std dvths)

let suite =
  ( "ridge-lars-extra",
    [
      case "ridge: unpenalized intercept" test_unpenalized_intercept;
      case "ridge: unpenalized in CV" test_unpenalized_cv;
      case "ridge: fit_cv known answer" test_fit_cv_known_answer;
      case "lasso-lars: drop-path invariants" test_lasso_drop_occurs_and_is_recorded;
      slow_case "process: global sigma calibrated" test_process_global_sigma_calibrated;
    ] )
