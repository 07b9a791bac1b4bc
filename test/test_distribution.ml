(* Normal distribution functions. *)
open Test_util

let test_pdf () =
  check_float ~eps:1e-12 "phi(0)" 0.3989422804014327 (Stat.Distribution.pdf 0.);
  check_float ~eps:1e-10 "phi symmetric" (Stat.Distribution.pdf 1.3)
    (Stat.Distribution.pdf (-1.3));
  check_bool "decreasing in |x|" true
    (Stat.Distribution.pdf 2. < Stat.Distribution.pdf 1.)

let test_cdf_known_values () =
  check_float ~eps:1e-6 "Phi(0)" 0.5 (Stat.Distribution.cdf 0.);
  check_float ~eps:1e-5 "Phi(1.96)" 0.975 (Stat.Distribution.cdf 1.96);
  check_float ~eps:1e-6 "Phi(-1) + Phi(1) = 1"
    1.
    (Stat.Distribution.cdf (-1.) +. Stat.Distribution.cdf 1.);
  check_float ~eps:1e-4 "Phi(3)" 0.99865 (Stat.Distribution.cdf 3.);
  check_bool "tails" true
    (Stat.Distribution.cdf (-8.) < 1e-14 && Stat.Distribution.cdf 8. > 1. -. 1e-14)

let test_quantile_roundtrip () =
  List.iter
    (fun p ->
      check_float ~eps:1e-5
        (Printf.sprintf "cdf(q(%g))" p)
        p
        (Stat.Distribution.cdf (Stat.Distribution.quantile p)))
    [ 1e-6; 0.001; 0.025; 0.3; 0.5; 0.7; 0.975; 0.999; 1. -. 1e-6 ]

let test_quantile_known () =
  check_float ~eps:1e-5 "q(0.5)" 0. (Stat.Distribution.quantile 0.5);
  check_float ~eps:1e-4 "q(0.975)" 1.959964 (Stat.Distribution.quantile 0.975);
  check_raises_invalid "q(0)" (fun () -> ignore (Stat.Distribution.quantile 0.));
  check_raises_invalid "q(1)" (fun () -> ignore (Stat.Distribution.quantile 1.))

let test_gaussian_yield () =
  check_float ~eps:1e-5 "symmetric window"
    (Stat.Distribution.sigma_to_yield 1.)
    (Stat.Distribution.gaussian_yield ~mean:10. ~sigma:2. ~lower:8. ~upper:12.);
  check_float ~eps:1e-4 "3 sigma" 0.9973 (Stat.Distribution.sigma_to_yield 3.);
  check_float ~eps:1e-6 "one-sided" 0.5
    (Stat.Distribution.gaussian_yield ~mean:0. ~sigma:1. ~lower:0.
       ~upper:Float.infinity);
  check_raises_invalid "bad sigma" (fun () ->
      ignore (Stat.Distribution.gaussian_yield ~mean:0. ~sigma:0. ~lower:0. ~upper:1.))

let test_cdf_mc_agreement () =
  (* Monte-Carlo check of cdf against actual Gaussian samples. *)
  let g = rng () in
  let n = 50000 in
  let below = ref 0 in
  for _ = 1 to n do
    if Randkit.Gaussian.sample g < 1.2 then incr below
  done;
  check_float ~eps:0.01 "MC agreement"
    (Stat.Distribution.cdf 1.2)
    (float_of_int !below /. float_of_int n)

let prop_quantile_monotone =
  qtest ~count:50 "normal quantile is monotone"
    QCheck.(pair (float_range 0.01 0.98) (float_range 0.001 0.01))
    (fun (p, dp) ->
      Stat.Distribution.quantile p < Stat.Distribution.quantile (p +. dp))

let suite =
  ( "distribution",
    [
      case "pdf" test_pdf;
      case "cdf known values" test_cdf_known_values;
      case "quantile roundtrip" test_quantile_roundtrip;
      case "quantile known values" test_quantile_known;
      case "gaussian yield" test_gaussian_yield;
      slow_case "cdf vs Monte Carlo" test_cdf_mc_agreement;
      prop_quantile_monotone;
    ] )
