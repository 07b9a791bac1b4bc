open Test_util

(* --- Prng --- *)

let test_determinism () =
  let a = Randkit.Prng.create 123 and b = Randkit.Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Randkit.Prng.bits64 a)
      (Randkit.Prng.bits64 b)
  done

let test_different_seeds () =
  let a = Randkit.Prng.create 1 and b = Randkit.Prng.create 2 in
  check_bool "different streams" true
    (Randkit.Prng.bits64 a <> Randkit.Prng.bits64 b)

let test_copy () =
  let a = Randkit.Prng.create 9 in
  ignore (Randkit.Prng.bits64 a);
  let b = Randkit.Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Randkit.Prng.bits64 a)
    (Randkit.Prng.bits64 b)

let test_split_independent () =
  let a = Randkit.Prng.create 5 in
  let child = Randkit.Prng.split a in
  check_bool "child differs from parent" true
    (Randkit.Prng.bits64 child <> Randkit.Prng.bits64 a)

let test_float_range () =
  let g = rng () in
  for _ = 1 to 1000 do
    let x = Randkit.Prng.float g in
    check_bool "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_float_mean () =
  let g = rng () in
  let n = 20000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Randkit.Prng.float g
  done;
  check_float ~eps:0.01 "uniform mean" 0.5 (!acc /. float_of_int n)

let test_int_bounds () =
  let g = rng () in
  let counts = Array.make 7 0 in
  for _ = 1 to 7000 do
    let v = Randkit.Prng.int g 7 in
    check_bool "in range" true (v >= 0 && v < 7);
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      check_bool (Printf.sprintf "bucket %d populated" i) true (c > 700))
    counts;
  check_raises_invalid "bound 0" (fun () -> ignore (Randkit.Prng.int g 0))

let test_permutation () =
  let g = rng () in
  let p = Randkit.Prng.permutation g 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check_bool "is a permutation" true
    (Array.to_list sorted = List.init 50 Fun.id)

let test_shuffle_preserves_multiset () =
  let g = rng () in
  let a = [| 1; 1; 2; 3; 5; 8 |] in
  let b = Array.copy a in
  Randkit.Prng.shuffle g b;
  Array.sort compare b;
  Alcotest.(check (array int)) "multiset preserved" a b

(* --- Gaussian --- *)

let test_gaussian_moments () =
  let g = rng () in
  let n = 50000 in
  let v = Randkit.Gaussian.vector g n in
  check_float ~eps:0.02 "mean 0" 0. (Stat.Descriptive.mean v);
  check_float ~eps:0.03 "variance 1" 1. (Stat.Descriptive.variance v);
  (* Third standardized moment (skewness numerator) near 0. *)
  let m3 = Array.fold_left (fun acc x -> acc +. (x *. x *. x)) 0. v in
  check_float ~eps:0.1 "skew 0" 0. (m3 /. float_of_int n)

let test_gaussian_tails () =
  let g = rng () in
  let n = 50000 in
  let beyond2 = ref 0 in
  for _ = 1 to n do
    if Float.abs (Randkit.Gaussian.sample g) > 2. then incr beyond2
  done;
  (* P(|Z| > 2) ≈ 4.55%. *)
  let frac = float_of_int !beyond2 /. float_of_int n in
  check_bool "2-sigma tail mass" true (frac > 0.035 && frac < 0.056)

let test_gaussian_matrix_shape () =
  let g = rng () in
  let m = Randkit.Gaussian.matrix g 3 4 in
  check_int "rows" 3 (Linalg.Mat.rows m);
  check_int "cols" 4 (Linalg.Mat.cols m)

(* --- Sampling --- *)

let test_train_test_split () =
  let g = rng () in
  let train, test = Randkit.Sampling.train_test_split g ~n:100 ~test_fraction:0.3 in
  check_int "test size" 30 (Array.length test);
  check_int "train size" 70 (Array.length train);
  let all = Array.append train test in
  Array.sort compare all;
  check_bool "partition" true (Array.to_list all = List.init 100 Fun.id);
  check_raises_invalid "bad fraction" (fun () ->
      ignore (Randkit.Sampling.train_test_split g ~n:10 ~test_fraction:1.5))

let test_fold_assignment_balanced () =
  let g = rng () in
  let a = Randkit.Sampling.fold_assignment g ~n:103 ~folds:4 in
  let counts = Array.make 4 0 in
  Array.iter (fun q -> counts.(q) <- counts.(q) + 1) a;
  let lo, hi = Stat.Descriptive.min_max (Array.map float_of_int counts) in
  check_bool "balanced within 1" true (hi -. lo <= 1.);
  check_raises_invalid "folds > n" (fun () ->
      ignore (Randkit.Sampling.fold_assignment g ~n:3 ~folds:5))

let test_fold_split () =
  let g = rng () in
  let a = Randkit.Sampling.fold_assignment g ~n:20 ~folds:4 in
  let train, held = Randkit.Sampling.fold_split a 2 in
  check_int "total" 20 (Array.length train + Array.length held);
  Array.iter (fun i -> check_int "held fold id" 2 a.(i)) held;
  Array.iter (fun i -> check_bool "train not fold 2" true (a.(i) <> 2)) train

let test_subsample () =
  let g = rng () in
  let idx = Array.init 30 (fun i -> i * 10) in
  let s = Randkit.Sampling.subsample g idx 10 in
  check_int "size" 10 (Array.length s);
  let seen = Hashtbl.create 10 in
  Array.iter
    (fun v ->
      check_bool "from population" true (v mod 10 = 0 && v < 300);
      check_bool "distinct" false (Hashtbl.mem seen v);
      Hashtbl.add seen v ())
    s;
  check_raises_invalid "too many" (fun () ->
      ignore (Randkit.Sampling.subsample g idx 31))

let prop_permutation_valid =
  qtest ~count:50 "permutation is always a bijection" QCheck.(int_range 1 200)
    (fun n ->
      let g = rng () in
      let p = Randkit.Prng.permutation g n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      Array.to_list sorted = List.init n Fun.id)

let prop_split_partition =
  qtest ~count:50 "train/test split partitions indices"
    QCheck.(pair (int_range 2 300) (float_range 0.05 0.95))
    (fun (n, frac) ->
      let g = rng () in
      let train, test = Randkit.Sampling.train_test_split g ~n ~test_fraction:frac in
      let all = Array.append train test in
      Array.sort compare all;
      Array.to_list all = List.init n Fun.id)

let suite =
  ( "randkit",
    [
      case "prng: determinism" test_determinism;
      case "prng: seeds differ" test_different_seeds;
      case "prng: copy" test_copy;
      case "prng: split" test_split_independent;
      case "prng: float range" test_float_range;
      case "prng: float mean" test_float_mean;
      case "prng: int bounds & uniformity" test_int_bounds;
      case "prng: permutation" test_permutation;
      case "prng: shuffle multiset" test_shuffle_preserves_multiset;
      case "gaussian: moments" test_gaussian_moments;
      case "gaussian: tails" test_gaussian_tails;
      case "gaussian: matrix shape" test_gaussian_matrix_shape;
      case "sampling: train/test split" test_train_test_split;
      case "sampling: folds balanced" test_fold_assignment_balanced;
      case "sampling: fold_split" test_fold_split;
      case "sampling: subsample" test_subsample;
      prop_permutation_valid;
      prop_split_partition;
    ] )
