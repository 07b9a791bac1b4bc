(* Extension features: sensitivity, yield, incremental sampling, ring
   oscillator. *)
open Test_util

(* A hand-built quadratic model over 3 factors:
   f = 5 + 2·y0 + 1·y1 + 0.5·(y0² − 1)/√2-term + 0.3·y1·y2. *)
let basis3 = Polybasis.Basis.quadratic 3

let find_term t =
  let rec go i =
    if i >= Polybasis.Basis.size basis3 then
      Alcotest.failf "term %s not in basis" (Polybasis.Term.to_string t)
    else if Polybasis.Term.equal (Polybasis.Basis.term basis3 i) t then i
    else go (i + 1)
  in
  go 0

let handmade () =
  let support =
    [|
      find_term Polybasis.Term.constant;
      find_term (Polybasis.Term.linear 0);
      find_term (Polybasis.Term.linear 1);
      find_term (Polybasis.Term.square 0);
      find_term (Polybasis.Term.cross 1 2);
    |]
  in
  Rsm.Model.make ~basis_size:(Polybasis.Basis.size basis3) ~support
    ~coeffs:[| 5.; 2.; 1.; 0.5; 0.3 |]

(* --- Sensitivity --- *)

let test_total_variance () =
  let m = handmade () in
  (* Orthonormal basis: Var = 2² + 1² + 0.5² + 0.3². *)
  check_float ~eps:1e-12 "variance" (4. +. 1. +. 0.25 +. 0.09)
    (Rsm.Sensitivity.total_variance m basis3);
  check_float ~eps:1e-12 "mean" 5. (Rsm.Sensitivity.mean m basis3)

let test_variance_matches_mc () =
  (* The closed form must match Monte Carlo of the model itself. *)
  let m = handmade () in
  let g = rng () in
  let vals =
    Serve.Stream.values ~samples:200000 (Serve.Eval.compile m basis3) g
  in
  check_float ~eps:0.06 "MC variance" (Rsm.Sensitivity.total_variance m basis3)
    (Stat.Descriptive.variance vals);
  check_float ~eps:0.02 "MC mean" 5. (Stat.Descriptive.mean vals)

let test_factor_shares () =
  let m = handmade () in
  let total = 4. +. 1. +. 0.25 +. 0.09 in
  let s = Rsm.Sensitivity.factor_shares m basis3 in
  check_float ~eps:1e-12 "y0 share" ((4. +. 0.25) /. total) s.(0);
  check_float ~eps:1e-12 "y1 share" ((1. +. 0.09) /. total) s.(1);
  check_float ~eps:1e-12 "y2 share (interaction only)" (0.09 /. total) s.(2)

let test_main_effects_and_interaction () =
  let m = handmade () in
  let total = 4. +. 1. +. 0.25 +. 0.09 in
  let main = Rsm.Sensitivity.main_effect_shares m basis3 in
  check_float ~eps:1e-12 "y2 no main effect" 0. main.(2);
  check_float ~eps:1e-12 "interaction share" (0.09 /. total)
    (Rsm.Sensitivity.interaction_share m basis3)

let test_top_factors () =
  let m = handmade () in
  let top = Rsm.Sensitivity.top_factors ~n:2 m basis3 in
  check_int "two entries" 2 (Array.length top);
  check_int "y0 first" 0 (fst top.(0));
  check_int "y1 second" 1 (fst top.(1))

let test_sensitivity_empty_model () =
  let m = Rsm.Model.make ~basis_size:(Polybasis.Basis.size basis3) ~support:[||] ~coeffs:[||] in
  check_float "zero variance" 0. (Rsm.Sensitivity.total_variance m basis3);
  check_vec "zero shares" (Array.make 3 0.) (Rsm.Sensitivity.factor_shares m basis3)

(* --- Yield --- *)

let linear_model () =
  let b = Polybasis.Basis.constant_linear 2 in
  ( b,
    Rsm.Model.make ~basis_size:3 ~support:[| 0; 1; 2 |] ~coeffs:[| 10.; 3.; 4. |] )

let test_yield_gaussian () =
  (* f = 10 + 3 y0 + 4 y1 ~ N(10, 25). *)
  let b, m = linear_model () in
  check_float ~eps:1e-6 "one-sided"
    (Stat.Distribution.cdf 1.)
    (Rsm.Yield.gaussian m b (Rsm.Yield.spec_max 15.));
  check_float ~eps:1e-6 "window"
    (Stat.Distribution.sigma_to_yield 2.)
    (Rsm.Yield.gaussian m b (Rsm.Yield.spec_both ~lower:0. ~upper:20.))

let test_yield_gaussian_rejects_quadratic () =
  let m = handmade () in
  check_raises_invalid "nonlinear" (fun () ->
      ignore (Rsm.Yield.gaussian m basis3 (Rsm.Yield.spec_max 5.)))

let test_yield_mc_matches_gaussian () =
  let b, m = linear_model () in
  let g = rng () in
  let spec = Rsm.Yield.spec_both ~lower:2. ~upper:18. in
  let e =
    Serve.Stream.estimate ~samples:40000 (Serve.Eval.compile m b) g spec
  in
  let y_exact = Rsm.Yield.gaussian m b spec in
  check_bool "within 4 standard errors" true
    (Float.abs (e.Serve.Stream.yield -. y_exact)
    < 4. *. Float.max e.Serve.Stream.std_error 1e-4)

let test_yield_spec_validation () =
  check_raises_invalid "empty window" (fun () ->
      ignore (Rsm.Yield.spec_both ~lower:1. ~upper:0.));
  check_bool "passes" true (Rsm.Yield.passes (Rsm.Yield.spec_min 1.) 2.);
  check_bool "fails" false (Rsm.Yield.passes (Rsm.Yield.spec_min 1.) 0.)

(* A random K×M design and a response on a known sparse support. *)
let sparse_problem ?(noise = 0.) ~k ~m ~support ~coeffs seed =
  let g = Randkit.Prng.create seed in
  let design = Randkit.Gaussian.matrix g k m in
  let f =
    Array.init k (fun i ->
        let acc = ref 0. in
        Array.iteri
          (fun p j -> acc := !acc +. (coeffs.(p) *. Linalg.Mat.get design i j))
          support;
        !acc +. (noise *. Randkit.Gaussian.sample g))
  in
  (design, f)

(* --- Incremental --- *)

let test_incremental_converges () =
  let support = [| 5; 20; 40 |] and coeffs = [| 2.; -1.; 1.5 |] in
  let full_g, full_f = sparse_problem ~noise:0.1 ~k:800 ~m:60 ~support ~coeffs 56 in
  let sample k =
    ( Linalg.Mat.select_rows full_g (Array.init k Fun.id),
      Array.sub full_f 0 k )
  in
  let r =
    Rsm.Incremental.run ~initial:40 ~max_samples:800 ~sample
      (Randkit.Prng.create 57)
  in
  check_bool "converged" true r.Rsm.Incremental.converged;
  check_bool "several rounds" true (Array.length r.Rsm.Incremental.rounds >= 2);
  (* Sample counts strictly increase. *)
  let rounds = r.Rsm.Incremental.rounds in
  for i = 1 to Array.length rounds - 1 do
    check_bool "growing" true
      (rounds.(i).Rsm.Incremental.samples > rounds.(i - 1).Rsm.Incremental.samples)
  done;
  (* Stops well before the budget on this easy problem. *)
  check_bool "saves samples" true
    (rounds.(Array.length rounds - 1).Rsm.Incremental.samples < 800);
  Array.iter
    (fun j -> check_bool "support found" true (Rsm.Model.coeff r.Rsm.Incremental.final j <> 0.))
    support

let test_incremental_budget_exhaustion () =
  (* A tight budget with a zero tolerance runs out of samples while the
     CV error still improves: converged must be false, and the doubled
     round (100) must be cut to max_samples exactly. *)
  let support = Array.init 12 (fun i -> 3 * i) in
  let coeffs = Array.init 12 (fun i -> 1. +. (0.1 *. float_of_int i)) in
  let full_g, full_f = sparse_problem ~noise:0.05 ~k:90 ~m:40 ~support ~coeffs 58 in
  let sample k =
    (Linalg.Mat.select_rows full_g (Array.init k Fun.id), Array.sub full_f 0 k)
  in
  let r =
    Rsm.Incremental.run ~initial:50 ~tol:0. ~max_samples:90 ~sample
      (Randkit.Prng.create 59)
  in
  check_bool "budget exhausted before convergence" true
    (not r.Rsm.Incremental.converged);
  let last = r.Rsm.Incremental.rounds.(Array.length r.Rsm.Incremental.rounds - 1) in
  check_int "ends exactly at the budget" 90 last.Rsm.Incremental.samples

let test_incremental_validation () =
  let sample k = (Linalg.Mat.create k 3, Array.make k 0.) in
  check_raises_invalid "initial > max" (fun () ->
      ignore
        (Rsm.Incremental.run ~initial:100 ~max_samples:50 ~sample
           (Randkit.Prng.create 1)));
  check_raises_invalid "negative tolerance" (fun () ->
      ignore
        (Rsm.Incremental.run ~tol:(-0.1) ~max_samples:50 ~sample
           (Randkit.Prng.create 1)))

(* --- Ring oscillator --- *)

let ring = Circuit.Ring_osc.build ~stages:21 ()

let test_ring_dims () =
  check_int "dim" (10 + (2 * 21 * 3)) (Circuit.Ring_osc.dim ring);
  check_int "stages" 21 (Circuit.Ring_osc.stages ring);
  check_raises_invalid "even stages" (fun () ->
      ignore (Circuit.Ring_osc.build ~stages:4 ()))

let test_ring_nominal () =
  let f = Circuit.Ring_osc.nominal ring Circuit.Ring_osc.Frequency in
  check_bool "frequency in plausible range" true (f > 10. && f < 100000.);
  let p = Circuit.Ring_osc.nominal ring Circuit.Ring_osc.Power in
  check_bool "power positive" true (p > 0.)

let test_ring_slow_devices_lower_frequency () =
  let dy = Linalg.Vec.create (Circuit.Ring_osc.dim ring) in
  let p = Circuit.Ring_osc.process ring in
  (* Raise V_TH of stage 0's NMOS. *)
  dy.(Circuit.Process.mismatch_factor_index p ~device:0 ~which:0) <- 3.;
  check_bool "slower" true
    (Circuit.Ring_osc.eval ring Circuit.Ring_osc.Frequency dy
    < Circuit.Ring_osc.nominal ring Circuit.Ring_osc.Frequency)

let test_ring_stage_weights_equal () =
  (* Perturbing any stage has (nearly) the same effect: equal-weight,
     non-profoundly-sparse structure. *)
  let p = Circuit.Ring_osc.process ring in
  let effect stage =
    let dy = Linalg.Vec.create (Circuit.Ring_osc.dim ring) in
    dy.(Circuit.Process.mismatch_factor_index p ~device:(2 * stage) ~which:0) <- 1.;
    Circuit.Ring_osc.nominal ring Circuit.Ring_osc.Frequency
    -. Circuit.Ring_osc.eval ring Circuit.Ring_osc.Frequency dy
  in
  let e0 = effect 0 and e10 = effect 10 and e20 = effect 20 in
  check_float ~eps:1e-9 "stage 0 = stage 10" e0 e10;
  check_float ~eps:1e-9 "stage 0 = stage 20" e0 e20;
  check_bool "nonzero" true (Float.abs e0 > 0.)

let test_ring_model_uses_globals () =
  (* The fitted sparse model should attribute most variance to the 10
     inter-die factors (locals average out over 42 devices). *)
  let sim = Circuit.Ring_osc.simulator ring Circuit.Ring_osc.Frequency in
  let g = rng () in
  let e = Circuit.Testbench.generate sim g ~train:200 ~test:400 in
  let basis = Polybasis.Basis.constant_linear (Circuit.Ring_osc.dim ring) in
  let g_tr =
    Polybasis.Design.matrix_rows basis e.Circuit.Testbench.train.Circuit.Simulator.points
  in
  let f_tr = e.Circuit.Testbench.train.Circuit.Simulator.values in
  let r = Rsm.Select.omp (rng ()) ~max_lambda:40 g_tr f_tr in
  let model = r.Rsm.Select.model in
  let shares = Rsm.Sensitivity.factor_shares model basis in
  let global_share = ref 0. in
  for i = 0 to 9 do
    global_share := !global_share +. shares.(i)
  done;
  check_bool
    (Printf.sprintf "globals carry most variance (%.2f)" !global_share)
    true (!global_share > 0.5)

let suite =
  ( "extensions",
    [
      case "sensitivity: total variance" test_total_variance;
      slow_case "sensitivity: matches model MC" test_variance_matches_mc;
      case "sensitivity: factor shares" test_factor_shares;
      case "sensitivity: main effects / interaction" test_main_effects_and_interaction;
      case "sensitivity: top factors" test_top_factors;
      case "sensitivity: empty model" test_sensitivity_empty_model;
      case "yield: gaussian closed form" test_yield_gaussian;
      case "yield: rejects nonlinear" test_yield_gaussian_rejects_quadratic;
      slow_case "yield: MC matches gaussian" test_yield_mc_matches_gaussian;
      case "yield: spec validation" test_yield_spec_validation;
      slow_case "incremental: converges and saves samples" test_incremental_converges;
      case "incremental: budget exhaustion" test_incremental_budget_exhaustion;
      case "incremental: validation" test_incremental_validation;
      case "ring: dimensions" test_ring_dims;
      case "ring: nominal" test_ring_nominal;
      case "ring: vth slows it" test_ring_slow_devices_lower_frequency;
      case "ring: equal stage weights" test_ring_stage_weights_equal;
      slow_case "ring: globals dominate fitted model" test_ring_model_uses_globals;
    ] )
