(* Worst-case corner extraction. *)
open Test_util
open Linalg

let lin_basis = Polybasis.Basis.constant_linear 4

let lin_model () =
  (* f = 1 + 3 y0 − 4 y2 *)
  Rsm.Model.make ~basis_size:5 ~support:[| 0; 1; 3 |] ~coeffs:[| 1.; 3.; -4. |]

let test_linear_worst_closed_form () =
  let m = lin_model () in
  let hi = Rsm.Corner.linear_worst m lin_basis ~sigma:3. ~maximize:true in
  (* ‖(3, 0, −4, 0)‖ = 5 → max = 1 + 15. *)
  check_float ~eps:1e-12 "max value" 16. hi.Rsm.Corner.value;
  check_float ~eps:1e-12 "corner radius" 3. (Vec.nrm2 hi.Rsm.Corner.corner);
  check_float ~eps:1e-12 "corner y0" (3. *. 3. /. 5.) hi.Rsm.Corner.corner.(0);
  check_float ~eps:1e-12 "corner y2" (-3. *. 4. /. 5.) hi.Rsm.Corner.corner.(2);
  let lo = Rsm.Corner.linear_worst m lin_basis ~sigma:3. ~maximize:false in
  check_float ~eps:1e-12 "min value" (-14.) lo.Rsm.Corner.value

let test_linear_worst_at_corner_evaluates () =
  (* Evaluating the model at the returned corner gives the returned value. *)
  let m = lin_model () in
  let e = Rsm.Corner.linear_worst m lin_basis ~sigma:2. ~maximize:true in
  check_float ~eps:1e-10 "consistent"
    e.Rsm.Corner.value
    (Rsm.Model.predict_point m lin_basis e.Rsm.Corner.corner)

let test_linear_worst_rejects_quadratic () =
  let b = Polybasis.Basis.quadratic 3 in
  let sq =
    (* find the y0^2 term *)
    let rec go i =
      if Polybasis.Term.equal (Polybasis.Basis.term b i) (Polybasis.Term.square 0)
      then i
      else go (i + 1)
    in
    go 0
  in
  let m = Rsm.Model.make ~basis_size:(Polybasis.Basis.size b) ~support:[| sq |] ~coeffs:[| 1. |] in
  check_raises_invalid "quadratic" (fun () ->
      ignore (Rsm.Corner.linear_worst m b ~sigma:1. ~maximize:true))

let test_corner_roundtrip_through_simulator () =
  (* End-to-end: fit the OpAmp offset model, extract the 3-sigma worst
     corner, and verify the simulator really is bad there. *)
  let amp = Circuit.Opamp.build ~n_parasitics:20 () in
  let sim = Circuit.Opamp.simulator amp Circuit.Opamp.Offset in
  let g = rng () in
  let data = Circuit.Simulator.run sim g ~k:300 in
  let basis = Polybasis.Basis.constant_linear (Circuit.Opamp.dim amp) in
  let design = Polybasis.Design.matrix_rows basis data.Circuit.Simulator.points in
  let model = Rsm.Omp.fit design data.Circuit.Simulator.values ~lambda:10 in
  let e = Rsm.Corner.linear_worst model basis ~sigma:3. ~maximize:true in
  let simulated = Circuit.Opamp.eval amp Circuit.Opamp.Offset e.Rsm.Corner.corner in
  (* The corner's simulated offset should be close to the model's claim
     and far outside the typical spread (sigma ~ 12 mV). *)
  check_bool "extreme at the corner" true (simulated > 20.);
  check_bool "model's claim holds within 20%" true
    (Float.abs (simulated -. e.Rsm.Corner.value) < 0.2 *. Float.abs e.Rsm.Corner.value)

let suite =
  ( "diagnostics",
    [
      case "corner: closed form" test_linear_worst_closed_form;
      case "corner: corner evaluates to value" test_linear_worst_at_corner_evaluates;
      case "corner: rejects quadratic" test_linear_worst_rejects_quadratic;
      slow_case "corner: roundtrip through simulator" test_corner_roundtrip_through_simulator;
    ] )
