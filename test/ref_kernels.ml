(* Element-wise reference kernels: the triangular solves and Cholesky
   factors written entry by entry through [Mat.unsafe_get]/[unsafe_set].
   The library's kernels index the flat data directly for speed and must
   agree with these bit for bit, raising at the same indices. *)
open Linalg

let eps_pivot = 1e-300

let solve_lower_sub l k b =
  let x = Array.make k 0. in
  for i = 0 to k - 1 do
    let acc = ref b.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Mat.unsafe_get l i j *. x.(j))
    done;
    let d = Mat.unsafe_get l i i in
    if Float.abs d < eps_pivot then raise (Tri.Singular i);
    x.(i) <- !acc /. d
  done;
  x

let solve_lower_transposed_sub l k b =
  let x = Array.make k 0. in
  for i = k - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to k - 1 do
      acc := !acc -. (Mat.unsafe_get l j i *. x.(j))
    done;
    let d = Mat.unsafe_get l i i in
    if Float.abs d < eps_pivot then raise (Tri.Singular i);
    x.(i) <- !acc /. d
  done;
  x

let solve_upper u b =
  let n = Mat.rows u in
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.unsafe_get u i j *. x.(j))
    done;
    let d = Mat.unsafe_get u i i in
    if Float.abs d < eps_pivot then raise (Tri.Singular i);
    x.(i) <- !acc /. d
  done;
  x

let factor a =
  let n = Mat.rows a in
  let l = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (Mat.unsafe_get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (Mat.unsafe_get l i k *. Mat.unsafe_get l j k)
      done;
      if i = j then begin
        if !acc <= 0. then raise (Cholesky.Not_positive_definite i);
        Mat.unsafe_set l i i (sqrt !acc)
      end
      else Mat.unsafe_set l i j (!acc /. Mat.unsafe_get l j j)
    done
  done;
  l

let solve l b =
  let n = Mat.rows l in
  solve_lower_transposed_sub l n (solve_lower_sub l n b)

(* The growing factor on a [cap×cap] matrix whose leading [k×k] block
   is the live factor. *)
type grow = { mutable k : int; l : Mat.t }

let grow_create cap = { k = 0; l = Mat.create cap cap }

let grow_append g v d =
  let k = g.k in
  let w = solve_lower_sub g.l k v in
  let s = ref d in
  for j = 0 to k - 1 do
    Mat.unsafe_set g.l k j w.(j);
    s := !s -. (w.(j) *. w.(j))
  done;
  if !s <= 0. then raise (Cholesky.Not_positive_definite k);
  Mat.unsafe_set g.l k k (sqrt !s);
  g.k <- k + 1

let grow_downdate_row g x =
  let x = Array.copy x in
  let k = g.k in
  for j = 0 to k - 1 do
    let ljj = Mat.unsafe_get g.l j j in
    let r2 = (ljj *. ljj) -. (x.(j) *. x.(j)) in
    if r2 <= 0. then raise (Cholesky.Not_positive_definite j);
    let r = sqrt r2 in
    let c = r /. ljj and s = x.(j) /. ljj in
    Mat.unsafe_set g.l j j r;
    for i = j + 1 to k - 1 do
      let lij = (Mat.unsafe_get g.l i j -. (s *. x.(i))) /. c in
      Mat.unsafe_set g.l i j lij;
      x.(i) <- (c *. x.(i)) -. (s *. lij)
    done
  done

let grow_factor g =
  Mat.init g.k g.k (fun i j -> if j <= i then Mat.unsafe_get g.l i j else 0.)

(* Bitwise float equality: distinguishes -0 from 0 and compares NaN
   payloads, unlike [=]. *)
let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_vec a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_mat a b =
  Mat.rows a = Mat.rows b && Mat.cols a = Mat.cols b
  && same_vec a.Mat.data b.Mat.data
