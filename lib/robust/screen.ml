type reason =
  | Non_finite_point
  | Non_finite_value
  | Outlier of float
  | Far_point of float

type report = {
  total : int;
  kept : int array;
  dropped : (int * reason) array;
  center : float;
  spread : float;
  threshold : float;
}

let default_threshold = 6.0

(* 1.4826 ≈ 1/Φ⁻¹(3/4): makes the MAD a consistent sigma estimate for a
   normal bulk. *)
let mad_consistency = 1.4826

let reason_to_string = function
  | Non_finite_point -> "non-finite factor point"
  | Non_finite_value -> "non-finite response"
  | Outlier z -> Printf.sprintf "outlier (robust z = %.1f)" z
  | Far_point d -> Printf.sprintf "far point (robust distance = %.1f)" d

let screen ?(threshold = default_threshold) (d : Circuit.Simulator.dataset) =
  if threshold <= 0. then invalid_arg "Screen.screen: threshold must be positive";
  let n = Array.length d.Circuit.Simulator.values in
  if n = 0 then invalid_arg "Screen.screen: empty dataset";
  let finite_row = Array.make n true in
  let dropped = ref [] in
  for i = 0 to n - 1 do
    if Array.exists (fun x -> not (Float.is_finite x)) d.points.(i) then begin
      finite_row.(i) <- false;
      dropped := (i, Non_finite_point) :: !dropped
    end
    else if not (Float.is_finite d.values.(i)) then begin
      finite_row.(i) <- false;
      dropped := (i, Non_finite_value) :: !dropped
    end
  done;
  let finite_values =
    Array.of_list
      (List.filteri (fun i _ -> finite_row.(i)) (Array.to_list d.values))
  in
  if Array.length finite_values = 0 then
    (* No finite row: there is no bulk to center on, and a NaN center
       would silently poison every downstream inner product. *)
    Error
      (Error.Simulation
         (Printf.sprintf
            "screening dropped all %d rows as non-finite; the simulation \
             produced no usable sample"
            n))
  else begin
  let center, spread =
    let med = Stat.Descriptive.median finite_values in
    (* With one or two rows the MAD is not an outlier scale: one row has
       MAD 0, and two rows are each 0.674 robust sigma from their
       midpoint whatever their separation — the screen would silently
       pass everything while appearing to have run. Take the zero-spread
       stand-down instead, so the report says what happened. *)
    if Array.length finite_values <= 2 then (med, 0.)
    else
      let dev = Array.map (fun v -> Float.abs (v -. med)) finite_values in
      (med, mad_consistency *. Stat.Descriptive.median dev)
  in
  let kept = ref [] in
  for i = n - 1 downto 0 do
    if finite_row.(i) then begin
      (* Zero spread (over half the bulk identical): no usable z-score,
         skip the outlier screen rather than dropping everything that
         differs from the mode. *)
      let z = if spread > 0. then Float.abs (d.values.(i) -. center) /. spread else 0. in
      if spread > 0. && z > threshold then
        dropped := (i, Outlier z) :: !dropped
      else kept := i :: !kept
    end
  done;
  let kept = Array.of_list !kept in
  let dropped =
    let a = Array.of_list !dropped in
    Array.sort (fun (i, _) (j, _) -> compare i j) a;
    a
  in
  let report = { total = n; kept; dropped; center; spread; threshold } in
  Ok (Circuit.Simulator.split d kept, report)
  end

(* {2 Point-space screen} *)

type point_report = {
  p_total : int;
  p_kept : int array;
  p_dropped : (int * reason) array;
  p_dim : int;
  p_threshold : float;
  p_shrinkage : float;
}

let default_confidence = 0.999

(* χ² quantile of the distance cut. dof 1 and 2 have exact closed
   forms — χ²₁(p) = (Φ⁻¹((1+p)/2))² (equivalently (√2·erfc⁻¹(1−p))²)
   and χ²₂(p) = −2·ln(1−p) — and the Wilson–Hilferty cube approximation
   is off by several percent exactly there (−3.6% at dof 1, p = 0.999),
   skewing the factor screen for 1–2 variable designs. Use the closed
   forms at dof ≤ 2 and Wilson–Hilferty (within a few permil) above. *)
let chi2_quantile ~dof p =
  match dof with
  | 1 ->
      let z = Stat.Distribution.quantile ((1. +. p) /. 2.) in
      z *. z
  | 2 -> -2. *. log (1. -. p)
  | _ ->
      let d = float_of_int dof in
      let c = 2. /. (9. *. d) in
      let t = 1. -. c +. (Stat.Distribution.quantile p *. sqrt c) in
      d *. t *. t *. t

let shrinkage_ladder = [| 0.05; 0.1; 0.2; 0.4; 0.8; 1.0 |]

(* Reorders finite [a] in place so that [a.(k)] holds its k-th smallest
   value, with no larger value before it and no smaller one after
   (Hoare's selection, middle pivot; it stops on equal values, so runs
   of ties still split evenly). A typed float array, not
   [Array.sort]'s boxed comparisons, keeps the per-coordinate medians
   allocation-free. *)
let select_finite (a : float array) k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let x = Array.unsafe_get a k in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while Array.unsafe_get a !i < x do incr i done;
      while x < Array.unsafe_get a !j do decr j done;
      if !i <= !j then begin
        let t = Array.unsafe_get a !i in
        Array.unsafe_set a !i (Array.unsafe_get a !j);
        Array.unsafe_set a !j t;
        incr i;
        decr j
      end
    done;
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done

(* [Stat.Descriptive.median] of finite values, reordering [a] in place:
   the lo-th order statistic by selection, and the next one as the least
   value above it. These are the sorted values the interpolation reads,
   so the median is the same; only the sign of a zero median can
   differ, and the screen subtracts the center before anything
   sign-sensitive, so no verdict or distance depends on it. *)
let median_finite a =
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let h = 0.5 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let w = h -. float_of_int lo in
    select_finite a lo;
    let next = ref a.(lo + 1) in
    for i = lo + 2 to n - 1 do
      if Array.unsafe_get a i < !next then next := Array.unsafe_get a i
    done;
    ((1. -. w) *. a.(lo)) +. (w *. !next)
  end

let mahalanobis ?(confidence = default_confidence)
    (d : Circuit.Simulator.dataset) =
  if not (confidence > 0. && confidence < 1.) then
    invalid_arg "Screen.mahalanobis: confidence must lie in (0, 1)";
  let n = Array.length d.Circuit.Simulator.values in
  if n = 0 then invalid_arg "Screen.mahalanobis: empty dataset";
  let dim = if n > 0 then Array.length d.points.(0) else 0 in
  let finite_row = Array.make n true in
  let dropped = ref [] in
  for i = 0 to n - 1 do
    if Array.exists (fun x -> not (Float.is_finite x)) d.points.(i) then begin
      finite_row.(i) <- false;
      dropped := (i, Non_finite_point) :: !dropped
    end
    else if not (Float.is_finite d.values.(i)) then begin
      finite_row.(i) <- false;
      dropped := (i, Non_finite_value) :: !dropped
    end
  done;
  let finite = ref [] in
  for i = n - 1 downto 0 do
    if finite_row.(i) then finite := i :: !finite
  done;
  let finite = Array.of_list !finite in
  let nf = Array.length finite in
  if nf = 0 then
    Error
      (Error.Simulation
         (Printf.sprintf
            "point screening dropped all %d rows as non-finite; the \
             simulation produced no usable sample"
            n))
  else begin
    let threshold = sqrt (chi2_quantile ~dof:dim confidence) in
    if nf <= 2 || dim = 0 then begin
      (* Same stand-down as the response screen's zero-spread guard: one
         or two rows give no scatter to screen against. *)
      let dropped =
        let a = Array.of_list !dropped in
        Array.sort (fun (i, _) (j, _) -> compare i j) a;
        a
      in
      let report =
        {
          p_total = n;
          p_kept = finite;
          p_dropped = dropped;
          p_dim = dim;
          p_threshold = threshold;
          p_shrinkage = 1.0;
        }
      in
      Ok (Circuit.Simulator.split d finite, report)
    end
    else begin
      (* Every floating-point accumulation below walks the finite rows
         in canonical (lexicographic point) order, not sample order, so
         the verdicts are exactly invariant to how the dataset happened
         to be permuted. *)
      let canon = Array.copy finite in
      Array.sort (fun i j -> compare d.points.(i) d.points.(j)) canon;
      let coord = Array.make nf 0. in
      let center = Array.make dim 0. in
      let scale = Array.make dim 1. in
      for j = 0 to dim - 1 do
        for r = 0 to nf - 1 do
          coord.(r) <- d.points.(canon.(r)).(j)
        done;
        let med = median_finite coord in
        center.(j) <- med;
        for r = 0 to nf - 1 do
          coord.(r) <- Float.abs (coord.(r) -. med)
        done;
        let s = mad_consistency *. median_finite coord in
        (* A spread-free coordinate cannot be standardized; fall back to
           the raw deviation scale so the screen still sees a shift. *)
        scale.(j) <- (if s > 0. then s else 1.)
      done;
      (* The numeric core indexes flat float arrays directly: a
         per-element [Linalg.Mat.get]/[set] is a cross-module call that
         boxes its float unless the build inlines across modules, and at
         dim ≈ 600 these loops run ~10⁸ times. The operations and their
         order are those of the element-wise formulation, so the
         verdicts and distances are unchanged bit for bit. *)
      let zrow = Array.make n [||] in
      Array.iter
        (fun i ->
          let p = d.points.(i) in
          let z = Array.make dim 0. in
          for j = 0 to dim - 1 do
            Array.unsafe_set z j
              ((p.(j) -. Array.unsafe_get center j) /. Array.unsafe_get scale j)
          done;
          zrow.(i) <- z)
        finite;
      (* Lower-triangle scatter, entry (a, b) at [a·dim + b]. Each entry
         accumulates the rows in canonical order from 0. A block of rows
         goes through one row of the scatter at a time, so that row
         stays in cache instead of the whole matrix streaming past per
         sample, and four rows share each load and store of an entry. *)
      let s = Array.make (dim * dim) 0. in
      let block = 16 in
      let r0 = ref 0 in
      while !r0 < nf do
        let r1 = min nf (!r0 + block) in
        for a = 0 to dim - 1 do
          let ra = a * dim in
          let r = ref !r0 in
          while !r + 4 <= r1 do
            let z0 = zrow.(canon.(!r)) and z1 = zrow.(canon.(!r + 1)) in
            let z2 = zrow.(canon.(!r + 2)) and z3 = zrow.(canon.(!r + 3)) in
            let za0 = Array.unsafe_get z0 a and za1 = Array.unsafe_get z1 a in
            let za2 = Array.unsafe_get z2 a and za3 = Array.unsafe_get z3 a in
            for b = 0 to a do
              let v = Array.unsafe_get s (ra + b) +. (za0 *. Array.unsafe_get z0 b) in
              let v = v +. (za1 *. Array.unsafe_get z1 b) in
              let v = v +. (za2 *. Array.unsafe_get z2 b) in
              Array.unsafe_set s (ra + b) (v +. (za3 *. Array.unsafe_get z3 b))
            done;
            r := !r + 4
          done;
          while !r < r1 do
            let z = zrow.(canon.(!r)) in
            let za = Array.unsafe_get z a in
            for b = 0 to a do
              Array.unsafe_set s (ra + b)
                (Array.unsafe_get s (ra + b) +. (za *. Array.unsafe_get z b))
            done;
            incr r
          done
        done;
        r0 := r1
      done;
      let inv_n = 1. /. float_of_int nf in
      for a = 0 to dim - 1 do
        let ra = a * dim in
        for b = 0 to a do
          Array.unsafe_set s (ra + b) (Array.unsafe_get s (ra + b) *. inv_n)
        done
      done;
      (* Shrink toward the identity until the factor exists: the MAD
         standardization already whitened the diagonal, so gamma is a
         pure conditioning knob, and gamma = 1 (the identity) always
         succeeds — the screen then degrades to per-coordinate robust
         z-scores rather than failing. *)
      let rec factor_at idx =
        let gamma = shrinkage_ladder.(idx) in
        let sg = Linalg.Mat.create dim dim in
        let gd = sg.Linalg.Mat.data in
        for a = 0 to dim - 1 do
          let ra = a * dim in
          for b = 0 to a do
            let v = (1. -. gamma) *. Array.unsafe_get s (ra + b) in
            Array.unsafe_set gd (ra + b) (if a = b then v +. gamma else v)
          done
        done;
        match Linalg.Cholesky.factor sg with
        | l -> (l, gamma)
        | exception Linalg.Cholesky.Not_positive_definite _
          when idx + 1 < Array.length shrinkage_ladder ->
            factor_at (idx + 1)
      in
      let l, gamma = factor_at 0 in
      let q = Linalg.Cholesky.quad_forms l (Array.map (fun i -> zrow.(i)) finite) in
      let kept = ref [] in
      for r = nf - 1 downto 0 do
        let i = finite.(r) in
        let dist = sqrt q.(r) in
        if dist > threshold then dropped := (i, Far_point dist) :: !dropped
        else kept := i :: !kept
      done;
      let kept = Array.of_list !kept in
      let dropped =
        let a = Array.of_list !dropped in
        Array.sort (fun (i, _) (j, _) -> compare i j) a;
        a
      in
      let report =
        {
          p_total = n;
          p_kept = kept;
          p_dropped = dropped;
          p_dim = dim;
          p_threshold = threshold;
          p_shrinkage = gamma;
        }
      in
      Ok (Circuit.Simulator.split d kept, report)
    end
  end

let point_report_summary r =
  let count p =
    Array.fold_left
      (fun acc (_, why) -> if p why then acc + 1 else acc)
      0 r.p_dropped
  in
  let nf =
    count (function Non_finite_point | Non_finite_value -> true | _ -> false)
  in
  let far = count (function Far_point _ -> true | _ -> false) in
  Printf.sprintf
    "point screen: kept %d/%d rows (dropped %d: %d non-finite, %d far) \
     dim %d distance threshold %.3g shrinkage %.2g"
    (Array.length r.p_kept) r.p_total (Array.length r.p_dropped) nf far
    r.p_dim r.p_threshold r.p_shrinkage

let report_summary r =
  let count p = Array.fold_left (fun acc (_, why) -> if p why then acc + 1 else acc) 0 r.dropped in
  let nf =
    count (function Non_finite_point | Non_finite_value -> true | _ -> false)
  in
  let out = count (function Outlier _ -> true | _ -> false) in
  (* Belt and braces: a report should never carry a non-finite center or
     spread anymore, but "n/a" beats printing "nan" at an operator. *)
  let num v = if Float.is_finite v then Printf.sprintf "%.6g" v else "n/a" in
  Printf.sprintf
    "screen: kept %d/%d rows (dropped %d: %d non-finite, %d outliers) \
     center %s spread %s threshold %.1f"
    (Array.length r.kept) r.total (Array.length r.dropped) nf out
    (num r.center) (num r.spread) r.threshold
