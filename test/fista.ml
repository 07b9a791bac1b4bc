open Linalg

let lipschitz ?(iters = 50) g =
  let m = Mat.cols g in
  if m = 0 then 0.
  else begin
    (* Power iteration on GᵀG without forming it. *)
    let v = ref (Array.init m (fun i -> 1. /. sqrt (float_of_int (i + 1)))) in
    let lambda = ref 0. in
    for _ = 1 to iters do
      let gv = Mat.mulv g !v in
      let w = Mat.tmulv g gv in
      let n = Vec.nrm2 w in
      if n > 0. then begin
        Vec.scal (1. /. n) w;
        lambda := n;
        v := w
      end
    done;
    !lambda
  end

let soft x t = if x > t then x -. t else if x < -.t then x +. t else 0.

let objective g f ~reg model =
  let res = Vec.sub f (Rsm.Model.predict_design model g) in
  (0.5 *. Vec.nrm2_sq res) +. (reg *. Vec.asum (Rsm.Model.to_dense model))

let fit ?(max_iters = 2000) ?(tol = 1e-10) g f ~reg =
  if reg < 0. then invalid_arg "Fista.fit: negative penalty";
  if Array.length f <> Mat.rows g then
    invalid_arg "Fista.fit: response length mismatch";
  let m = Mat.cols g in
  let l = Float.max (lipschitz g) 1e-12 in
  let step = 1. /. l in
  let alpha = Array.make m 0. in
  let y = Array.make m 0. in
  let t = ref 1. in
  let obj alpha_arr =
    let res = Vec.sub f (Mat.mulv g alpha_arr) in
    (0.5 *. Vec.nrm2_sq res) +. (reg *. Vec.asum alpha_arr)
  in
  let prev_obj = ref (obj alpha) in
  let iter = ref 0 and converged = ref false in
  while (not !converged) && !iter < max_iters do
    incr iter;
    (* Gradient of the smooth part at y: Gᵀ(G·y − F). *)
    let gy = Mat.mulv g y in
    let grad = Mat.tmulv g (Vec.sub gy f) in
    let next = Array.init m (fun j -> soft (y.(j) -. (step *. grad.(j))) (step *. reg)) in
    let t_next = (1. +. sqrt (1. +. (4. *. !t *. !t))) /. 2. in
    let momentum = (!t -. 1.) /. t_next in
    for j = 0 to m - 1 do
      y.(j) <- next.(j) +. (momentum *. (next.(j) -. alpha.(j)));
      alpha.(j) <- next.(j)
    done;
    t := t_next;
    if !iter mod 10 = 0 then begin
      let o = obj alpha in
      if Float.abs (!prev_obj -. o) <= tol *. Float.max (Float.abs o) 1. then
        converged := true;
      prev_obj := o
    end
  done;
  (* Snap near-zero survivors of the proximal map to exact zeros. *)
  let top = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. alpha in
  Array.iteri (fun j x -> if Float.abs x < 1e-12 *. Float.max top 1. then alpha.(j) <- 0.) alpha;
  Rsm.Model.dense ~basis_size:m alpha
