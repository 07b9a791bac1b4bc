(* The direct-indexing linalg kernels against their element-wise
   references (Ref_kernels): same bits, same exceptions at the same
   indices. *)
open Linalg
open Test_util
module R = Ref_kernels

let outcome f = match f () with v -> Ok v | exception e -> Error e

(* Both succeed with the same bits, or both raise the same exception. *)
let same_outcome same a b =
  match (a, b) with
  | Ok x, Ok y -> same x y
  | Error e, Error e' -> e = e'
  | _ -> false

let check_same_vec msg f ref_f =
  check_bool msg true (same_outcome R.same_vec (outcome f) (outcome ref_f))

let check_same_mat msg f ref_f =
  check_bool msg true (same_outcome R.same_mat (outcome f) (outcome ref_f))

let uniform g = Randkit.Prng.float g -. 0.5

let spd g n =
  let b = Mat.init n n (fun _ _ -> uniform g) in
  Mat.add (Mat.gram (Mat.transpose b)) (Mat.smul 0.1 (Mat.identity n))

(* Lower triangle in the leading [k×k] block of a [cap×cap] matrix, so
   the row stride differs from the solve size; diagonals kept away from
   zero except where a pivot is planted. *)
let lower_in g ~cap ~k ?zero_pivot () =
  Mat.init cap cap (fun i j ->
      if i >= k || j > i then uniform g
      else if i = j then
        if Some i = zero_pivot then 0. else 1. +. Randkit.Prng.float g
      else uniform g)

let test_factor_bitwise () =
  let g = rng () in
  List.iter
    (fun n ->
      let a = spd g n in
      check_same_mat (Printf.sprintf "factor n=%d" n)
        (fun () -> Cholesky.factor a)
        (fun () -> R.factor a))
    [ 1; 2; 3; 7; 16; 31; 40 ];
  (* Indefinite: both stop at the same pivot. *)
  for n = 2 to 12 do
    let a = Mat.init n n (fun _ _ -> uniform g) in
    let a = Mat.add a (Mat.transpose a) in
    check_same_mat (Printf.sprintf "factor indefinite n=%d" n)
      (fun () -> Cholesky.factor a)
      (fun () -> R.factor a)
  done

let test_tri_bitwise () =
  let g = rng () in
  List.iter
    (fun (cap, k) ->
      let l = lower_in g ~cap ~k () in
      let b = Array.init k (fun _ -> uniform g) in
      let name = Printf.sprintf "cap=%d k=%d" cap k in
      check_same_vec ("solve_lower_sub " ^ name)
        (fun () -> Tri.solve_lower_sub l k b)
        (fun () -> R.solve_lower_sub l k b);
      check_same_vec ("solve_lower_transposed_sub " ^ name)
        (fun () -> Tri.solve_lower_transposed_sub l k b)
        (fun () -> R.solve_lower_transposed_sub l k b);
      if k > 0 then begin
        let p = k / 2 in
        let ls = lower_in g ~cap ~k ~zero_pivot:p () in
        check_same_vec ("singular solve_lower_sub " ^ name)
          (fun () -> Tri.solve_lower_sub ls k b)
          (fun () -> R.solve_lower_sub ls k b);
        check_same_vec ("singular solve_lower_transposed_sub " ^ name)
          (fun () -> Tri.solve_lower_transposed_sub ls k b)
          (fun () -> R.solve_lower_transposed_sub ls k b)
      end)
    [ (1, 0); (1, 1); (5, 3); (9, 9); (24, 17) ];
  List.iter
    (fun n ->
      let u = Mat.transpose (lower_in g ~cap:n ~k:n ()) in
      let b = Array.init n (fun _ -> uniform g) in
      check_same_vec (Printf.sprintf "solve_upper n=%d" n)
        (fun () -> Tri.solve_upper u b)
        (fun () -> R.solve_upper u b);
      let us = Mat.transpose (lower_in g ~cap:n ~k:n ~zero_pivot:(n / 3) ()) in
      check_same_vec (Printf.sprintf "singular solve_upper n=%d" n)
        (fun () -> Tri.solve_upper us b)
        (fun () -> R.solve_upper us b))
    [ 1; 4; 13 ]

let test_quad_forms_blocks () =
  let g = rng () in
  let n = 23 in
  let l = Cholesky.factor (spd g n) in
  List.iter
    (fun count ->
      let zs = Array.init count (fun _ -> Array.init n (fun _ -> 3. *. uniform g)) in
      let expected = Array.map (fun z -> Vec.dot z (Cholesky.solve l z)) zs in
      let expected_ref = Array.map (fun z -> Vec.dot z (R.solve l z)) zs in
      let got = Cholesky.quad_forms l zs in
      check_bool (Printf.sprintf "%d right-hand sides == dot z (solve l z)" count)
        true (R.same_vec expected got);
      check_bool (Printf.sprintf "%d right-hand sides == reference" count) true
        (R.same_vec expected_ref got))
    [ 1; 15; 16; 17; 33 ];
  check_int "no right-hand side" 0 (Array.length (Cholesky.quad_forms l [||]));
  check_raises_invalid "length mismatch" (fun () ->
      Cholesky.quad_forms l [| Array.make n 1.; Array.make (n - 1) 1. |]);
  check_raises_invalid "not square" (fun () ->
      Cholesky.quad_forms (Mat.create 2 3) [| [| 1.; 2. |] |]);
  let ls = lower_in g ~cap:n ~k:n ~zero_pivot:9 () in
  let z = Array.init n (fun _ -> uniform g) in
  check_same_vec "singular factor raises where solve does"
    (fun () -> Cholesky.quad_forms ls [| z; z |])
    (fun () -> [| Vec.dot z (Cholesky.solve ls z) |])

let test_grow_bitwise () =
  let g = rng () in
  let m = 14 in
  let a = spd g m in
  let grow = Cholesky.Grow.create m and ref_grow = R.grow_create m in
  for k = 0 to m - 1 do
    let v = Array.init k (fun i -> Mat.get a k i) and d = Mat.get a k k in
    Cholesky.Grow.append grow v d;
    R.grow_append ref_grow v d;
    check_bool (Printf.sprintf "append %d" k) true
      (R.same_mat (R.grow_factor ref_grow) (Cholesky.Grow.factor_copy grow))
  done;
  let b = Array.init m (fun _ -> uniform g) in
  check_same_vec "grow solve"
    (fun () -> Cholesky.Grow.solve grow b)
    (fun () -> R.solve (R.grow_factor ref_grow) b);
  (* A small row down-dates cleanly; a huge one fails at the same column. *)
  let x = Array.init m (fun _ -> 0.05 *. uniform g) in
  Cholesky.Grow.downdate_row grow x;
  R.grow_downdate_row ref_grow x;
  check_bool "downdate" true
    (R.same_mat (R.grow_factor ref_grow) (Cholesky.Grow.factor_copy grow));
  let big = Array.init m (fun i -> if i < 5 then 0.01 else 50.) in
  let got = outcome (fun () -> Cholesky.Grow.downdate_row grow big) in
  let want = outcome (fun () -> R.grow_downdate_row ref_grow big) in
  check_bool "failing downdate raises at the same column" true
    (match (got, want) with
    | Error (Cholesky.Not_positive_definite j), Error (Cholesky.Not_positive_definite j')
      ->
        j = j'
    | _ -> false);
  (* An append that is not SPD raises at the new index in both. *)
  let grow = Cholesky.Grow.create 3 and ref_grow = R.grow_create 3 in
  Cholesky.Grow.append grow [||] 1.;
  R.grow_append ref_grow [||] 1.;
  check_bool "non-SPD append" true
    (outcome (fun () -> Cholesky.Grow.append grow [| 2. |] 1.)
    = outcome (fun () -> R.grow_append ref_grow [| 2. |] 1.))

let prop_factor_solve_bitwise =
  qtest ~count:40 "factor + solve bitwise == element-wise reference (qcheck)"
    QCheck.(pair (int_range 1 30) small_nat)
    (fun (n, seed) ->
      let g = Randkit.Prng.create (seed + 1) in
      let a = spd g n in
      let l = Cholesky.factor a in
      let z = Array.init n (fun _ -> uniform g) in
      R.same_mat (R.factor a) l
      && R.same_vec (R.solve l z) (Cholesky.solve l z)
      && R.same_vec
           [| Vec.dot z (R.solve l z) |]
           (Cholesky.quad_forms l [| z |]))

let suite =
  ( "kernels",
    [
      case "factor bitwise == reference" test_factor_bitwise;
      case "tri solves bitwise == reference" test_tri_bitwise;
      case "quad_forms at block boundaries" test_quad_forms_blocks;
      case "grow append/downdate bitwise == reference" test_grow_bitwise;
      prop_factor_solve_bitwise;
    ] )
