exception Singular of int

let eps_pivot = 1e-300

let check_square name a =
  if Mat.rows a <> Mat.cols a then invalid_arg ("Tri." ^ name ^ ": not square")

let check_rhs name n b =
  if Array.length b <> n then
    invalid_arg ("Tri." ^ name ^ ": right-hand side length mismatch")

(* The solvers index the row-major [.Mat.data] directly: a per-element
   [Mat.unsafe_get] is a cross-module call returning a boxed float
   whenever the library is compiled without cross-module inlining. *)

let solve_lower_sub l k b =
  if k < 0 || k > Mat.rows l || k > Mat.cols l then
    invalid_arg "Tri.solve_lower_sub: block size out of range";
  check_rhs "solve_lower_sub" k b;
  let ld = l.Mat.data and c = Mat.cols l in
  let x = Array.make k 0. in
  for i = 0 to k - 1 do
    let ri = i * c in
    let acc = ref (Array.unsafe_get b i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get ld (ri + j) *. Array.unsafe_get x j)
    done;
    let d = Array.unsafe_get ld (ri + i) in
    if Float.abs d < eps_pivot then raise (Singular i);
    Array.unsafe_set x i (!acc /. d)
  done;
  x

let solve_lower_transposed_sub l k b =
  if k < 0 || k > Mat.rows l || k > Mat.cols l then
    invalid_arg "Tri.solve_lower_transposed_sub: block size out of range";
  check_rhs "solve_lower_transposed_sub" k b;
  let ld = l.Mat.data and c = Mat.cols l in
  let x = Array.make k 0. in
  for i = k - 1 downto 0 do
    let acc = ref (Array.unsafe_get b i) in
    for j = i + 1 to k - 1 do
      acc := !acc -. (Array.unsafe_get ld ((j * c) + i) *. Array.unsafe_get x j)
    done;
    let d = Array.unsafe_get ld ((i * c) + i) in
    if Float.abs d < eps_pivot then raise (Singular i);
    Array.unsafe_set x i (!acc /. d)
  done;
  x

let solve_lower l b =
  check_square "solve_lower" l;
  solve_lower_sub l (Mat.rows l) b

let solve_lower_transposed l b =
  check_square "solve_lower_transposed" l;
  solve_lower_transposed_sub l (Mat.rows l) b

let solve_upper u b =
  check_square "solve_upper" u;
  let n = Mat.rows u in
  check_rhs "solve_upper" n b;
  let ud = u.Mat.data in
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc = ref (Array.unsafe_get b i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get ud (ri + j) *. Array.unsafe_get x j)
    done;
    let d = Array.unsafe_get ud (ri + i) in
    if Float.abs d < eps_pivot then raise (Singular i);
    Array.unsafe_set x i (!acc /. d)
  done;
  x
