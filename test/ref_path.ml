(* A textbook LAR and lasso path, written from the definitions of Efron,
   Hastie, Johnstone & Tibshirani, "Least Angle Regression" (2004),
   Section 2 and Section 3.1, and a textbook OMP from the paper's
   Algorithm 1: the references the library's walks are checked
   against.

   Dense and unoptimized on purpose. Every step takes the correlations
   c = Xᵀr and the images a = Xᵀu as full products over every column,
   and the equiangular vector from a fresh QR of the signed active
   columns (modified Gram–Schmidt): with X_A = Q·R, the Gram
   G_A = RᵀR, w = A·G_A⁻¹·1, A = (1ᵀG_A⁻¹1)^(−1/2) and u = X_A·w. The
   step is γ = min⁺ over the inactive columns of (C − c_j)/(A − a_j)
   and (C + c_j)/(A + a_j), at most C/A; the lasso modification stops
   at the first zero crossing of an active coefficient and drops it,
   and a column just dropped does not enter the next step. There is no
   Cholesky grow, no screen, no shard, no lockstep and no ban: designs
   given to it must keep their active columns independent. Columns are
   normalized to unit length, zero columns never enter, and the
   coefficients are reported in the original column scale. *)

open Linalg

type step = {
  added : int option;
  dropped : int option;
  gamma : float;
  coeffs : float array;  (** all M coefficients after the step *)
  gap : float;
      (** how far the step's decision was from a tie: the relative
          distance from the committed γ to the next candidate of another
          column, and from the entrant's |c_j| to the next inactive
          column's (infinity when there is no rival) *)
}

(* Q·R of the K×n matrix whose columns are [cols]: modified
   Gram–Schmidt; returns R (n×n, upper triangular). *)
let qr_r cols =
  let n = Array.length cols in
  let q = Array.map Array.copy cols in
  let r = Array.make_matrix n n 0. in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      let d = Vec.dot q.(i) q.(j) in
      r.(i).(j) <- d;
      Vec.axpy (-.d) q.(i) q.(j)
    done;
    let nrm = sqrt (Vec.nrm2_sq q.(j)) in
    r.(j).(j) <- nrm;
    Array.iteri (fun t x -> q.(j).(t) <- x /. nrm) q.(j)
  done;
  r

(* G⁻¹·b with G = RᵀR: a forward solve with Rᵀ, a back solve with R. *)
let gram_solve r b =
  let n = Array.length b in
  let y = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for t = 0 to i - 1 do
      acc := !acc -. (r.(t).(i) *. y.(t))
    done;
    y.(i) <- !acc /. r.(i).(i)
  done;
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for t = i + 1 to n - 1 do
      acc := !acc -. (r.(i).(t) *. x.(t))
    done;
    x.(i) <- !acc /. r.(i).(i)
  done;
  x

let rel_gap a b = Float.abs (b -. a) /. Float.max (Float.abs a) 1e-300

let path ?(lasso = false) g f ~steps =
  let k = Mat.rows g and m = Mat.cols g in
  let col j = Array.init k (fun i -> Mat.get g i j) in
  let norms = Array.init m (fun j -> sqrt (Vec.nrm2_sq (col j))) in
  let x = Array.init m (fun j ->
      let c = col j in
      if norms.(j) > 0. then Array.map (fun v -> v /. norms.(j)) c else c)
  in
  let live j = norms.(j) > 0. in
  let beta = Array.make m 0. and mu = Array.make k 0. in
  let active = ref [] (* insertion order, oldest first *) in
  let is_active j = List.mem j !active in
  let just_dropped = ref (-1) in
  let out = ref [] in
  let stop = ref false in
  let n = ref 0 in
  while (not !stop) && !n < steps do
    incr n;
    let r = Vec.sub f mu in
    let c = Array.init m (fun j -> if live j then Vec.dot x.(j) r else 0.) in
    let big_c = Array.fold_left (fun acc cj -> Float.max acc (Float.abs cj)) 0. c in
    (* The entrant: the inactive column of largest |c_j| (lowest index
       on ties), entering when it reaches C. *)
    let best = ref (-1) and second = ref 0. in
    for j = 0 to m - 1 do
      if live j && (not (is_active j)) && j <> !just_dropped then begin
        let a = Float.abs c.(j) in
        if !best < 0 || a > Float.abs c.(!best) then begin
          if !best >= 0 then second := Float.max !second (Float.abs c.(!best));
          best := j
        end
        else second := Float.max !second a
      end
    done;
    let added =
      if
        !best >= 0
        && List.length !active < min k m
        && Float.abs c.(!best) >= big_c *. (1. -. 1e-7)
      then begin
        active := !active @ [ !best ];
        Some !best
      end
      else None
    in
    let enter_gap =
      match added with
      | Some j -> rel_gap (Float.abs c.(j)) !second
      | None -> infinity
    in
    just_dropped := -1;
    if !active = [] || big_c <= 1e-10 then stop := true
    else begin
      let act = Array.of_list !active in
      let s = Array.map (fun j -> if c.(j) >= 0. then 1. else -1.) act in
      let signed = Array.mapi (fun p j -> Array.map (fun v -> s.(p) *. v) x.(j)) act in
      let r_fac = qr_r signed in
      let v = gram_solve r_fac (Array.make (Array.length act) 1.) in
      let a_a = 1. /. sqrt (Array.fold_left ( +. ) 0. v) in
      let w = Array.map (fun vi -> a_a *. vi) v in
      let u = Array.make k 0. in
      Array.iteri (fun p col -> Vec.axpy w.(p) col u) signed;
      let a = Array.init m (fun j -> if live j then Vec.dot x.(j) u else 0.) in
      (* The candidates of every inactive column, then C/A. *)
      let cands = ref [] in
      for j = 0 to m - 1 do
        if live j && not (is_active j) then
          List.iter
            (fun gm -> if gm > 1e-12 then cands := (gm, j) :: !cands)
            [ (big_c -. c.(j)) /. (a_a -. a.(j)); (big_c +. c.(j)) /. (a_a +. a.(j)) ]
      done;
      let sorted = List.sort compare !cands in
      let gamma, step_gap =
        match sorted with
        | [] -> (big_c /. a_a, infinity)
        | (g0, j0) :: rest ->
            let g = Float.min g0 (big_c /. a_a) in
            let rival =
              List.fold_left
                (fun acc (gm, j) -> if j <> j0 then Float.min acc gm else acc)
                infinity rest
            in
            (g, Float.min (rel_gap g rival) (rel_gap g (big_c /. a_a)))
      in
      (* Lasso: the first zero crossing of an active coefficient. *)
      let d = Array.mapi (fun p _ -> s.(p) *. w.(p)) act in
      let gamma, dropped, drop_gap =
        if not lasso then (gamma, None, infinity)
        else
          let cross = ref None in
          Array.iteri
            (fun p j ->
              if d.(p) <> 0. then begin
                let gz = -.beta.(j) /. d.(p) in
                if gz > 1e-12 then
                  match !cross with
                  | Some (g0, _) when g0 <= gz -> ()
                  | _ -> cross := Some (gz, j)
              end)
            act;
          match !cross with
          | Some (gz, j) when gz < gamma -> (gz, Some j, rel_gap gz gamma)
          | Some (gz, _) -> (gamma, None, rel_gap gamma gz)
          | None -> (gamma, None, infinity)
      in
      Array.iteri (fun p j -> beta.(j) <- beta.(j) +. (gamma *. d.(p))) act;
      Vec.axpy gamma u mu;
      Option.iter
        (fun j ->
          beta.(j) <- 0.;
          active := List.filter (( <> ) j) !active;
          just_dropped := j)
        dropped;
      out :=
        {
          added;
          dropped;
          gamma;
          coeffs = Array.mapi (fun j b -> if b = 0. then 0. else b /. norms.(j)) beta;
          gap = Float.min enter_gap (Float.min step_gap drop_gap);
        }
        :: !out
    end
  done;
  Array.of_list (List.rev !out)

(* Least squares over the columns [cols], from scratch: the normal
   equations GᵀG·α = Gᵀf solved through a fresh QR's R (GᵀG = RᵀR). *)
let ls_solve cols f = gram_solve (qr_r cols) (Array.map (fun c -> Vec.dot c f) cols)

type omp_step = {
  index : int;  (** the column selected at this step *)
  omp_coeffs : float array;  (** all M coefficients after the re-fit *)
  omp_gap : float;
      (** the relative distance from the winner's |ξ_j| to the next
          unselected column's (infinity when there is no rival) *)
}

(* OMP as Algorithm 1 states it, on the raw columns: Step 3 selects the
   unselected column of largest |ξ_j| = |⟨G_j, r⟩|/K from the full
   product Gᵀr (lowest index on ties), Step 6 re-fits every selected
   coefficient by least squares from scratch, Step 7 recomputes the
   residual. Walks [steps] steps, fewer if every column is selected or
   the residual correlates with none. *)
let omp g f ~steps =
  let k = Mat.rows g and m = Mat.cols g in
  let col j = Array.init k (fun i -> Mat.get g i j) in
  let cols = Array.init m col in
  let selected = Array.make m false in
  let support = ref [] (* selection order, newest first *) in
  let r = ref (Array.copy f) in
  let out = ref [] in
  let stop = ref false in
  while (not !stop) && List.length !out < steps do
    let xi = Array.map (fun c -> Float.abs (Vec.dot c !r) /. float_of_int k) cols in
    let best = ref (-1) and second = ref 0. in
    Array.iteri
      (fun j a ->
        if not selected.(j) then
          if !best < 0 || a > xi.(!best) then begin
            if !best >= 0 then second := Float.max !second xi.(!best);
            best := j
          end
          else second := Float.max !second a)
      xi;
    if !best < 0 || xi.(!best) = 0. then stop := true
    else begin
      let j = !best in
      selected.(j) <- true;
      support := j :: !support;
      let act = Array.of_list (List.rev !support) in
      let alpha = ls_solve (Array.map (fun j -> cols.(j)) act) f in
      let coeffs = Array.make m 0. in
      Array.iteri (fun p j -> coeffs.(j) <- alpha.(p)) act;
      r := Array.copy f;
      Array.iteri (fun p j -> Vec.axpy (-.alpha.(p)) cols.(j) !r) act;
      out := { index = j; omp_coeffs = coeffs; omp_gap = rel_gap xi.(j) !second } :: !out
    end
  done;
  Array.of_list (List.rev !out)
