let ks_two_sample a b =
  if Array.length a = 0 || Array.length b = 0 then
    invalid_arg "Gof.ks_two_sample: empty sample";
  let sa = Array.copy a and sb = Array.copy b in
  Array.sort compare sa;
  Array.sort compare sb;
  let na = Array.length sa and nb = Array.length sb in
  let fa = float_of_int na and fb = float_of_int nb in
  (* Merge walk over both sorted samples tracking the CDF gap; ties are
     consumed from both sides before the gap is measured, so identical
     samples give distance 0. *)
  let i = ref 0 and j = ref 0 and d = ref 0. in
  while !i < na && !j < nb do
    let v = Float.min sa.(!i) sb.(!j) in
    while !i < na && sa.(!i) = v do
      incr i
    done;
    while !j < nb && sb.(!j) = v do
      incr j
    done;
    let cdf_a = float_of_int !i /. fa in
    let cdf_b = float_of_int !j /. fb in
    d := Float.max !d (Float.abs (cdf_a -. cdf_b))
  done;
  !d

let ks_normal ~mean ~sigma xs =
  if sigma <= 0. then invalid_arg "Gof.ks_normal: sigma <= 0";
  if Array.length xs = 0 then invalid_arg "Gof.ks_normal: empty sample";
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  let fn = float_of_int n in
  let d = ref 0. in
  Array.iteri
    (fun i x ->
      let f = Stat.Distribution.cdf ((x -. mean) /. sigma) in
      (* Compare against the empirical CDF on both sides of the jump. *)
      d := Float.max !d (Float.abs (f -. (float_of_int i /. fn)));
      d := Float.max !d (Float.abs (f -. (float_of_int (i + 1) /. fn))))
    s;
  !d

let ks_critical ~alpha ~n1 ~n2 =
  if alpha <= 0. || alpha >= 1. then invalid_arg "Gof.ks_critical: bad alpha";
  if n1 <= 0 || n2 <= 0 then invalid_arg "Gof.ks_critical: bad sample sizes";
  let c = sqrt (-.log (alpha /. 2.) /. 2.) in
  c *. sqrt (float_of_int (n1 + n2) /. float_of_int (n1 * n2))
