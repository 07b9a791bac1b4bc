let uniform_points g ~k ~n =
  if k <= 0 || n <= 0 then invalid_arg "Lhs: k and n must be positive";
  let pts = Array.init k (fun _ -> Array.make n 0.) in
  for d = 0 to n - 1 do
    let perm = Prng.permutation g k in
    for i = 0 to k - 1 do
      (* Stratum [perm(i)] of dimension d, jittered within the stratum. *)
      pts.(i).(d) <- (float_of_int perm.(i) +. Prng.float g) /. float_of_int k
    done
  done;
  pts

(* Acklam's inverse-normal rational approximation. *)
let normal_quantile p =
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let horner coeffs x =
    Array.fold_left (fun acc cc -> (acc *. x) +. cc) 0. coeffs
  in
  let p_low = 0.02425 in
  if p < p_low then begin
    let q = sqrt (-2. *. log p) in
    horner c q /. ((horner d q *. q) +. 1.)
  end
  else if p <= 1. -. p_low then begin
    let q = p -. 0.5 in
    let r = q *. q in
    horner a r *. q /. ((horner b r *. r) +. 1.)
  end
  else begin
    let q = sqrt (-2. *. log (1. -. p)) in
    -.(horner c q) /. ((horner d q *. q) +. 1.)
  end

let gaussian_points g ~k ~n =
  let pts = uniform_points g ~k ~n in
  Array.iter
    (fun p ->
      for d = 0 to n - 1 do
        (* Clamp away from 0/1: the jitter cannot reach them exactly but
           guard against rounding. *)
        let u = Float.min (Float.max p.(d) 1e-12) (1. -. 1e-12) in
        p.(d) <- normal_quantile u
      done)
    pts;
  pts
