exception Not_positive_definite of int

(* Every loop below indexes the row-major [.Mat.data] directly: without
   cross-module inlining a per-element [Mat.unsafe_get] is a real call
   returning a boxed float, which made these O(n³) and O(k²) kernels
   allocation-bound. The floating-point operations and their order are
   those of the element-wise formulation. *)

(* Left-looking, column by column: the pivot first, then the rows
   below it four per pass, sharing each load of row [j] across four
   independent chains. Every entry is still l(i,j) = (a(i,j) −
   Σ_{k<j} l(i,k)·l(j,k)) / l(j,j) summed in ascending k, so the factor
   is the row-by-row one bit for bit; pivot j depends only on columns
   before it, so the first failing pivot is the same index. *)
let factor a =
  if Mat.rows a <> Mat.cols a then invalid_arg "Cholesky.factor: not square";
  let n = Mat.rows a in
  let l = Mat.create n n in
  let ad = a.Mat.data and ld = l.Mat.data in
  for j = 0 to n - 1 do
    let rj = j * n in
    let acc = ref (Array.unsafe_get ad (rj + j)) in
    for k = 0 to j - 1 do
      acc :=
        !acc -. (Array.unsafe_get ld (rj + k) *. Array.unsafe_get ld (rj + k))
    done;
    if !acc <= 0. then raise (Not_positive_definite j);
    let d = sqrt !acc in
    Array.unsafe_set ld (rj + j) d;
    let i = ref (j + 1) in
    while !i + 4 <= n do
      let r0 = !i * n in
      let r1 = r0 + n in
      let r2 = r1 + n in
      let r3 = r2 + n in
      let a0 = ref (Array.unsafe_get ad (r0 + j)) in
      let a1 = ref (Array.unsafe_get ad (r1 + j)) in
      let a2 = ref (Array.unsafe_get ad (r2 + j)) in
      let a3 = ref (Array.unsafe_get ad (r3 + j)) in
      for k = 0 to j - 1 do
        let ljk = Array.unsafe_get ld (rj + k) in
        a0 := !a0 -. (Array.unsafe_get ld (r0 + k) *. ljk);
        a1 := !a1 -. (Array.unsafe_get ld (r1 + k) *. ljk);
        a2 := !a2 -. (Array.unsafe_get ld (r2 + k) *. ljk);
        a3 := !a3 -. (Array.unsafe_get ld (r3 + k) *. ljk)
      done;
      Array.unsafe_set ld (r0 + j) (!a0 /. d);
      Array.unsafe_set ld (r1 + j) (!a1 /. d);
      Array.unsafe_set ld (r2 + j) (!a2 /. d);
      Array.unsafe_set ld (r3 + j) (!a3 /. d);
      i := !i + 4
    done;
    for i = !i to n - 1 do
      let ri = i * n in
      let acc = ref (Array.unsafe_get ad (ri + j)) in
      for k = 0 to j - 1 do
        acc :=
          !acc -. (Array.unsafe_get ld (ri + k) *. Array.unsafe_get ld (rj + k))
      done;
      Array.unsafe_set ld (ri + j) (!acc /. d)
    done
  done;
  l

let solve l b =
  let y = Tri.solve_lower l b in
  Tri.solve_lower_transposed l y

let spd_solve a b = solve (factor a) b

(* Right-hand sides solved per pass over the factor: 16 rows of a
   630-wide block take 80 KB, so one row of [L] (or of its transpose)
   is reused from cache by every solve in the block. *)
let quad_block = 16

(* One substitution step for the [nb] right-hand sides held in the rows
   of [w] (stride [n], [nb] a multiple of 4): w_r(i) ← (w_r(i) −
   Σ m(i,j)·w_r(j)) / m(i,i), the sum over lo ≤ j < hi in ascending j,
   exactly as the one-vector solves in [Tri] accumulate it. Four rows at
   a time share each load of [m] and run four independent chains. *)
let substitute m n w nb i lo hi =
  let ri = i * n in
  let d = Array.unsafe_get m (ri + i) in
  let r = ref 0 in
  while !r + 4 <= nb do
    let w0 = !r * n in
    let w1 = w0 + n in
    let w2 = w1 + n in
    let w3 = w2 + n in
    let a0 = ref (Array.unsafe_get w (w0 + i)) in
    let a1 = ref (Array.unsafe_get w (w1 + i)) in
    let a2 = ref (Array.unsafe_get w (w2 + i)) in
    let a3 = ref (Array.unsafe_get w (w3 + i)) in
    for j = lo to hi - 1 do
      let mij = Array.unsafe_get m (ri + j) in
      a0 := !a0 -. (mij *. Array.unsafe_get w (w0 + j));
      a1 := !a1 -. (mij *. Array.unsafe_get w (w1 + j));
      a2 := !a2 -. (mij *. Array.unsafe_get w (w2 + j));
      a3 := !a3 -. (mij *. Array.unsafe_get w (w3 + j))
    done;
    Array.unsafe_set w (w0 + i) (!a0 /. d);
    Array.unsafe_set w (w1 + i) (!a1 /. d);
    Array.unsafe_set w (w2 + i) (!a2 /. d);
    Array.unsafe_set w (w3 + i) (!a3 /. d);
    r := !r + 4
  done

let quad_forms l zs =
  if Mat.rows l <> Mat.cols l then invalid_arg "Cholesky.quad_forms: not square";
  let n = Mat.rows l in
  Array.iter
    (fun z ->
      if Array.length z <> n then
        invalid_arg "Cholesky.quad_forms: right-hand side length mismatch")
    zs;
  let ld = l.Mat.data in
  (* [solve] raises at the first small pivot of its forward pass, and
     nothing before that is observable. *)
  for i = 0 to n - 1 do
    if Float.abs (Array.unsafe_get ld ((i * n) + i)) < Tri.eps_pivot then
      raise (Tri.Singular i)
  done;
  let nz = Array.length zs in
  let out = Array.make nz 0. in
  if nz > 0 && n > 0 then begin
    (* The back solve walks columns of [L]; reading them as rows of the
       transpose keeps both passes contiguous. *)
    let lt = Array.make (n * n) 0. in
    for i = 0 to n - 1 do
      for j = 0 to i do
        Array.unsafe_set lt ((j * n) + i) (Array.unsafe_get ld ((i * n) + j))
      done
    done;
    let w = Array.make (quad_block * n) 0. in
    let b0 = ref 0 in
    while !b0 < nz do
      let nb = min quad_block (nz - !b0) in
      for r = 0 to nb - 1 do
        Array.blit zs.(!b0 + r) 0 w (r * n) n
      done;
      (* Forward, y = L⁻¹·z, then backward in place, x = L⁻ᵀ·y: slot i
         is read before it is overwritten and the slots it reads already
         hold the pass's output. A short last block is padded to a
         multiple of 4 with leftover rows whose results are ignored. *)
      let nb4 = (nb + 3) land lnot 3 in
      for i = 0 to n - 1 do
        substitute ld n w nb4 i 0 i
      done;
      for i = n - 1 downto 0 do
        substitute lt n w nb4 i (i + 1) n
      done;
      for r = 0 to nb - 1 do
        let z = Array.unsafe_get zs (!b0 + r) and wr = r * n in
        let acc = ref 0. in
        for i = 0 to n - 1 do
          acc := !acc +. (Array.unsafe_get z i *. Array.unsafe_get w (wr + i))
        done;
        Array.unsafe_set out (!b0 + r) !acc
      done;
      b0 := !b0 + nb
    done
  end;
  out

let log_det l =
  let n = Mat.rows l in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. log (Mat.unsafe_get l i i)
  done;
  2. *. !acc

module Grow = struct
  type t = { mutable k : int; cap : int; l : Mat.t }

  let create cap =
    if cap <= 0 then invalid_arg "Cholesky.Grow.create: capacity must be positive";
    { k = 0; cap; l = Mat.create cap cap }

  let size g = g.k

  let append g v d =
    if g.k >= g.cap then invalid_arg "Cholesky.Grow.append: capacity exceeded";
    if Array.length v <> g.k then
      invalid_arg "Cholesky.Grow.append: off-diagonal block length mismatch";
    let k = g.k in
    let ld = g.l.Mat.data and rk = k * g.cap in
    (* New row w of L solves L_k · w = v; new diagonal is sqrt(d − ‖w‖²). *)
    let w = Tri.solve_lower_sub g.l k v in
    let s = ref d in
    for j = 0 to k - 1 do
      let wj = Array.unsafe_get w j in
      Array.unsafe_set ld (rk + j) wj;
      s := !s -. (wj *. wj)
    done;
    if !s <= 0. then raise (Not_positive_definite k);
    Array.unsafe_set ld (rk + k) (sqrt !s);
    g.k <- k + 1

  let solve g b =
    if Array.length b <> g.k then
      invalid_arg "Cholesky.Grow.solve: right-hand side length mismatch";
    let y = Tri.solve_lower_sub g.l g.k b in
    Tri.solve_lower_transposed_sub g.l g.k y

  let remove_last g =
    if g.k = 0 then invalid_arg "Cholesky.Grow.remove_last: empty factor";
    g.k <- g.k - 1

  let downdate_row g x =
    if Array.length x <> g.k then
      invalid_arg "Cholesky.Grow.downdate_row: row length mismatch";
    (* Hyperbolic-rotation down-date of L·Lᵀ to L·Lᵀ − x·xᵀ, column by
       column (LINPACK dchdd): each rotation zeroes one entry of the
       carried copy of [x] against the matching diagonal. O(k²). *)
    let x = Array.copy x in
    let k = g.k and cap = g.cap and ld = g.l.Mat.data in
    for j = 0 to k - 1 do
      let jj = (j * cap) + j in
      let ljj = Array.unsafe_get ld jj in
      let xj = Array.unsafe_get x j in
      let r2 = (ljj *. ljj) -. (xj *. xj) in
      if r2 <= 0. then raise (Not_positive_definite j);
      let r = sqrt r2 in
      let c = r /. ljj and s = xj /. ljj in
      Array.unsafe_set ld jj r;
      for i = j + 1 to k - 1 do
        let ij = (i * cap) + j in
        let lij = (Array.unsafe_get ld ij -. (s *. Array.unsafe_get x i)) /. c in
        Array.unsafe_set ld ij lij;
        Array.unsafe_set x i ((c *. Array.unsafe_get x i) -. (s *. lij))
      done
    done

  let factor_copy g =
    Mat.init g.k g.k (fun i j -> if j <= i then Mat.unsafe_get g.l i j else 0.)
end
