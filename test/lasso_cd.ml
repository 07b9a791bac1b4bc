open Linalg

let soft_threshold x t =
  if x > t then x -. t else if x < -.t then x +. t else 0.

let max_reg g f =
  let m = Mat.cols g in
  let best = ref 0. in
  for j = 0 to m - 1 do
    best := Float.max !best (Float.abs (Mat.col_dot g j f))
  done;
  !best

(* One problem solved from a warm start [alpha]; mutates and returns it. *)
let solve_inplace ~max_sweeps ~tol g f ~reg alpha =
  let k = Mat.rows g and m = Mat.cols g in
  let col_sq = Array.make m 0. in
  for j = 0 to m - 1 do
    let acc = ref 0. in
    for i = 0 to k - 1 do
      let v = Mat.unsafe_get g i j in
      acc := !acc +. (v *. v)
    done;
    col_sq.(j) <- !acc
  done;
  (* Residual for the warm start. *)
  let res = Array.copy f in
  for j = 0 to m - 1 do
    let a = alpha.(j) in
    if a <> 0. then
      for i = 0 to k - 1 do
        res.(i) <- res.(i) -. (a *. Mat.unsafe_get g i j)
      done
  done;
  let sweep = ref 0 and converged = ref false in
  while (not !converged) && !sweep < max_sweeps do
    incr sweep;
    let max_change = ref 0. and max_coef = ref 0. in
    for j = 0 to m - 1 do
      if col_sq.(j) > 0. then begin
        let old_a = alpha.(j) in
        (* Partial residual correlation: G_jᵀ·res + ‖G_j‖²·α_j. *)
        let rho = Mat.col_dot g j res +. (col_sq.(j) *. old_a) in
        let new_a = soft_threshold rho reg /. col_sq.(j) in
        if new_a <> old_a then begin
          let delta = new_a -. old_a in
          for i = 0 to k - 1 do
            res.(i) <- res.(i) -. (delta *. Mat.unsafe_get g i j)
          done;
          alpha.(j) <- new_a;
          max_change := Float.max !max_change (Float.abs delta)
        end;
        max_coef := Float.max !max_coef (Float.abs new_a)
      end
    done;
    if !max_change <= tol *. Float.max !max_coef 1e-12 then converged := true
  done;
  alpha

let fit ?(max_sweeps = 1000) ?(tol = 1e-8) g f ~reg =
  if reg < 0. then invalid_arg "Lasso_cd.fit: negative penalty";
  if Array.length f <> Mat.rows g then
    invalid_arg "Lasso_cd.fit: response length mismatch";
  let alpha =
    solve_inplace ~max_sweeps ~tol g f ~reg (Array.make (Mat.cols g) 0.)
  in
  Rsm.Model.dense ~basis_size:(Mat.cols g) alpha

let path ?(max_sweeps = 1000) ?(tol = 1e-8) g f ~regs =
  if Array.length f <> Mat.rows g then
    invalid_arg "Lasso_cd.path: response length mismatch";
  let alpha = Array.make (Mat.cols g) 0. in
  Array.map
    (fun reg ->
      if reg < 0. then invalid_arg "Lasso_cd.path: negative penalty";
      let a = solve_inplace ~max_sweeps ~tol g f ~reg alpha in
      Rsm.Model.dense ~basis_size:(Mat.cols g) (Array.copy a))
    regs
