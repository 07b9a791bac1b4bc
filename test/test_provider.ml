(* The matrix-free design provider: every kernel must return the same
   bits whether the design matrix is materialized (Dense) or generated
   on demand from Hermite tables (Streamed), at every domain count. *)
open Test_util
module P = Polybasis.Design.Provider

let pool_counts = [ 1; 2; 4 ]

let with_pools f = List.map (fun d -> Parallel.Pool.with_pool ~domains:d f) pool_counts

let all_equal msg = function
  | [] | [ _ ] -> ()
  | ref :: rest ->
      List.iteri
        (fun i x ->
          check_bool
            (Printf.sprintf "%s: domains=%d equals domains=1" msg
               (List.nth pool_counts (i + 1)))
            true (x = ref))
        rest

(* A random small problem: quadratic basis most of the time, a degree-3
   basis sometimes so that Many-factor terms and the order-3 Hermite
   recurrence are exercised. *)
let random_setting seed =
  let rng = Randkit.Prng.create seed in
  let dim = 3 + Randkit.Prng.int rng 3 in
  let basis =
    if Randkit.Prng.int rng 3 = 0 then Polybasis.Basis.total_degree dim 3
    else Polybasis.Basis.quadratic dim
  in
  let k = 15 + Randkit.Prng.int rng 20 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng dim) in
  let g = Parallel.Pool.with_pool ~domains:1 (fun pool ->
      Polybasis.Design.matrix_rows ~pool basis pts)
  in
  (rng, basis, pts, g)

(* --- entry-level equality ------------------------------------------ *)

(* Entry-for-entry equality: the same bits, or NaN on both sides. *)
let same_entries a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         if Float.is_nan x then Float.is_nan y
         else Int64.bits_of_float x = Int64.bits_of_float y)
       a b

(* Both dense forms — [matrix_rows] and a streamed provider's
   [to_dense] — generate entries from the compiled term tables, so the
   reference is the independent per-point evaluation [Design.row]
   ([Basis.eval_point], then [Term.eval_tables]): row i of the matrix
   must equal it on point i at every domain count. *)
let check_rows_match what basis pts mats =
  let reference = Array.map (Polybasis.Design.row basis) pts in
  List.iter2
    (fun d g ->
      check_int (Printf.sprintf "%s: rows (%d domains)" what d)
        (Array.length pts) (Linalg.Mat.rows g);
      Array.iteri
        (fun i row ->
          check_bool
            (Printf.sprintf "%s: row %d == Design.row (%d domains)" what i d)
            true
            (same_entries (Linalg.Mat.row g i) row))
        reference)
    pool_counts mats

let prop_to_dense_bitwise seed =
  let rng, basis, pts, _ = random_setting seed in
  let src = P.streamed basis pts in
  check_rows_match "streamed to_dense" basis pts
    (with_pools (fun pool -> P.to_dense ~pool src));
  let matrix_rows basis pts =
    with_pools (fun pool -> Polybasis.Design.matrix_rows ~pool basis pts)
  in
  check_rows_match "matrix_rows" basis pts (matrix_rows basis pts);
  (* Edge designs: the dim-0 constant basis, no rows, and a degree-3
     basis (three-factor [Many] terms) over points holding NaN and ∞,
     which a dense design accepts and passes into the same entries as
     the per-point evaluation. *)
  let constant = Polybasis.Basis.create 0 [| Polybasis.Term.constant |] in
  check_rows_match "dim-0 basis" constant (Array.make 3 [||])
    (matrix_rows constant (Array.make 3 [||]));
  check_rows_match "K = 0" basis [||] (matrix_rows basis [||]);
  let cubic = Polybasis.Basis.total_degree 3 3 in
  let bad =
    Array.init 6 (fun i ->
        let p = Randkit.Gaussian.vector rng 3 in
        if i = 1 then p.(2) <- Float.nan;
        if i = 4 then p.(0) <- Float.infinity;
        p)
  in
  check_rows_match "non-finite points" cubic bad (matrix_rows cubic bad);
  true

let prop_columns_bitwise seed =
  let rng, basis, pts, g = random_setting seed in
  let src = P.streamed basis pts in
  let m = P.cols src in
  for _ = 1 to 8 do
    let j = Randkit.Prng.int rng m in
    check_bool "column == Mat.col" true (P.column src j = Linalg.Mat.col g j)
  done;
  let cache = P.Cache.create src in
  let j = Randkit.Prng.int rng m in
  check_bool "Cache.column == Mat.col" true
    (P.Cache.column cache j = Linalg.Mat.col g j);
  true

let prop_sweeps_bitwise seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let src_d = P.dense g in
  let k = P.rows src_s and m = P.cols src_s in
  let r = Randkit.Gaussian.vector rng k in
  let skip = Array.init m (fun _ -> Randkit.Prng.int rng 4 = 0) in
  let sweeps =
    with_pools (fun pool ->
        ( P.gram_tr ~pool src_d r,
          P.gram_tr ~pool src_s r,
          P.argmax_abs ~pool ~skip src_d r,
          P.argmax_abs ~pool ~skip src_s r ))
  in
  all_equal "sweep bits across domains" sweeps;
  List.iter
    (fun (gd, gs, ad, as_) ->
      check_bool "gram_tr dense == streamed" true (gd = gs);
      check_bool "argmax dense == streamed" true (ad = as_))
    sweeps;
  true

let prop_column_norms_bitwise seed =
  let _, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let norms =
    with_pools (fun pool ->
        ( Polybasis.Design.column_norms ~pool g,
          P.column_norms ~pool (P.dense g),
          P.column_norms ~pool src_s ))
  in
  all_equal "column norm bits across domains" norms;
  List.iter
    (fun (a, b, c) ->
      check_bool "pooled matrix norms == dense provider" true (a = b);
      check_bool "dense norms == streamed norms" true (a = c))
    norms;
  true

(* --- solver paths --------------------------------------------------- *)

let sparse_response rng src =
  let k = P.rows src and m = P.cols src in
  let f = Array.init k (fun _ -> 0.05 *. Randkit.Gaussian.sample rng) in
  List.iter
    (fun j ->
      let col = P.column src j in
      for i = 0 to k - 1 do
        f.(i) <- f.(i) +. col.(i)
      done)
    [ 1 mod m; m / 2; m - 1 ];
  f

let model_bits (m : Rsm.Model.t) = (m.Rsm.Model.support, Array.copy m.Rsm.Model.coeffs)

let prop_omp_dense_eq_streamed seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let f = sparse_response rng src_s in
  let lambda = min 6 (min (P.rows src_s) (P.cols src_s)) in
  let fits =
    with_pools (fun pool ->
        ( model_bits (Rsm.Omp.fit ~pool g f ~lambda),
          model_bits (Rsm.Omp.fit_p ~pool src_s f ~lambda) ))
  in
  all_equal "OMP bits across domains" fits;
  List.iter
    (fun (d, s) -> check_bool "OMP dense == streamed" true (d = s))
    fits;
  true

let prop_star_dense_eq_streamed seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let f = sparse_response rng src_s in
  let lambda = min 6 (P.cols src_s) in
  let fits =
    with_pools (fun pool ->
        ( model_bits (Rsm.Star.fit ~pool g f ~lambda),
          model_bits (Rsm.Star.fit_p ~pool src_s f ~lambda) ))
  in
  all_equal "STAR bits across domains" fits;
  List.iter
    (fun (d, s) -> check_bool "STAR dense == streamed" true (d = s))
    fits;
  true

let prop_lars_dense_eq_streamed seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let f = sparse_response rng src_s in
  let lambda = min 5 (min (P.rows src_s) (P.cols src_s)) in
  let fits =
    with_pools (fun pool ->
        ( model_bits (Rsm.Lars.fit ~mode:Rsm.Lars.Lar ~pool g f ~lambda),
          model_bits (Rsm.Lars.fit_p ~mode:Rsm.Lars.Lar ~pool src_s f ~lambda)
        ))
  in
  all_equal "LAR bits across domains" fits;
  List.iter
    (fun (d, s) -> check_bool "LAR dense == streamed" true (d = s))
    fits;
  true

let prop_cv_dense_eq_streamed seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let f = sparse_response rng src_s in
  let results =
    with_pools (fun pool ->
        let rd =
          Rsm.Select.omp ~pool (Randkit.Prng.create (seed + 1)) ~max_lambda:5 g
            f
        in
        let rs =
          Rsm.Select.omp_p ~pool
            (Randkit.Prng.create (seed + 1))
            ~max_lambda:5 src_s f
        in
        ( (rd.Rsm.Select.lambda, Array.copy rd.Rsm.Select.curve,
           model_bits rd.Rsm.Select.model),
          (rs.Rsm.Select.lambda, Array.copy rs.Rsm.Select.curve,
           model_bits rs.Rsm.Select.model) ))
  in
  all_equal "CV bits across domains" results;
  List.iter
    (fun (d, s) -> check_bool "CV dense == streamed" true (d = s))
    results;
  true

let prop_select_rows_bitwise seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let k = P.rows src_s in
  let idx =
    Array.init (max 1 (k / 2)) (fun _ -> Randkit.Prng.int rng k)
  in
  let sub_d = Linalg.Mat.select_rows g idx in
  let sub_s = P.select_rows src_s idx in
  check_bool "select_rows streamed == dense" true
    (Linalg.Mat.to_arrays sub_d
    = Linalg.Mat.to_arrays
        (Parallel.Pool.with_pool ~domains:1 (fun pool ->
             P.to_dense ~pool sub_s)));
  true

(* --- block edges ----------------------------------------------------- *)

(* The one-residual streamed sweep takes columns four at a time, the
   lane kernel two at a time in groups of at most five lanes, and the
   dense kernel four visited rows by four columns per pass, each with
   a tail. Every streamed kernel must still equal a dense provider over
   [to_dense], and every dense kernel the per-column [Mat.col_dot] over
   the same rows, bit for bit, on: every tail length (M mod 4 ∈
   {0,1,2,3}, from whole bases and from windows, so chunk widths
   [hi − lo] of every value mod 4), blocks that start off a multiple of
   4 or 2 (odd window starts), blocks holding three-factor [Many] terms
   beside two-factor ones (total degree 3), the dim-0 constant basis,
   K from 0 to 9 and 13, fold row sets of every length from 0 to K
   (so every leftover-row count mod 4), 1–6, 9 and 20 residuals (every
   lane-group width, one lane to four groups) over all rows and fold
   row sets mixed, a set with a single row, and residuals holding +0
   and −0 entries, whose products the lanes' zero rows must not
   disturb. [col_dots] must equal the listed slots of [gram_tr] on
   empty, single-column, random and full index sets. *)
let block_edge_bases =
  [
    Polybasis.Basis.quadratic 3 (* M = 10 *);
    Polybasis.Basis.total_degree 4 3 (* M = 35 *);
    Polybasis.Basis.total_degree 3 3 (* M = 20 *);
    Polybasis.Basis.create 0 [| Polybasis.Term.constant |] (* M = 1 *);
  ]

let block_edge_ks = List.init 10 Fun.id @ [ 13 ]

(* The whole provider, then windows of widths 4–7 at odd starts. *)
let block_edge_windows m =
  (0, m)
  :: List.concat_map
       (fun jlo ->
         List.filter_map
           (fun w -> if jlo + w <= m then Some (jlo, jlo + w) else None)
           [ 4; 5; 6; 7 ])
       [ 1; 3 ]

(* Strictly ascending row sets: the last row, a pattern with gaps, all
   but the first, then n rows for every n from 0 to K (n = K is every
   row) — the first n of the even rows followed by the odd ones,
   sorted, so consecutive entries of a set skip rows. *)
let block_edge_folds k =
  let all = List.init k Fun.id in
  let pick f = Array.of_list (List.filter f all) in
  let order =
    List.filter (fun i -> i mod 2 = 0) all
    @ List.filter (fun i -> i mod 2 = 1) all
  in
  let first n =
    let set = Array.of_list (List.filteri (fun p _ -> p < n) order) in
    Array.sort compare set;
    set
  in
  Array.append
    (if k = 0 then [||]
     else
       [|
         [| k - 1 |];
         pick (fun i -> i mod 3 <> 1);
         pick (fun i -> i > 0);
       |])
    (Array.init (k + 1) first)

let block_edge_lanes = [ 1; 2; 3; 4; 5; 6; 9; 20 ]

(* Gaussian entries, a quarter of them +0 and a quarter −0. *)
let signed_zero_vector rng n =
  Array.init n (fun _ ->
      match Randkit.Prng.int rng 4 with
      | 0 -> 0.
      | 1 -> -0.
      | _ -> Randkit.Gaussian.sample rng)

let prop_block_edges_bitwise seed =
  let rng = Randkit.Prng.create seed in
  let bits = Array.map Int64.bits_of_float in
  let arg_bits (j, c) = (j, Int64.bits_of_float c) in
  let settings =
    List.concat_map
      (fun basis ->
        List.concat_map
          (fun k ->
            let dim = Polybasis.Basis.dim basis in
            let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng dim) in
            let src = P.streamed basis pts in
            List.map
              (fun (jlo, jhi) -> P.window src ~jlo ~jhi)
              (block_edge_windows (P.cols src)))
          block_edge_ks)
      block_edge_bases
  in
  let cases =
    List.map
      (fun win ->
        let k = P.rows win and m = P.cols win in
        let sets = block_edge_folds k in
        let r = signed_zero_vector rng k in
        let skip () = Array.init m (fun _ -> Randkit.Prng.int rng 3 = 0) in
        let multis =
          List.map
            (fun lanes ->
              (* Consecutive sets from a random start, so the 20-lane
                 call visits every set. *)
              let start = Randkit.Prng.int rng (Array.length sets) in
              let rows =
                Array.init lanes (fun q ->
                    sets.((start + q) mod Array.length sets))
              in
              let rs =
                Array.map
                  (fun idx -> signed_zero_vector rng (Array.length idx))
                  rows
              in
              (rows, rs, Array.map (fun _ -> skip ()) rows))
            block_edge_lanes
        in
        (win, r, skip (), multis))
      settings
  in
  ignore
    (with_pools (fun pool ->
         List.iter
           (fun (win, r, skip, multis) ->
             let g = P.to_dense ~pool win in
             let dn = P.dense g in
             let tag what =
               Printf.sprintf "%s: streamed == dense (K=%d, M=%d, %d domains)"
                 what (P.rows win) (P.cols win) (Parallel.Pool.num_domains pool)
             in
             let both f = (f dn, f win) in
             let check what (d, s) = check_bool (tag what) true (d = s) in
             (* The dense kernels against per-column dots over the same
                rows, and the argmax a strict left-to-right scan picks. *)
             let dots g r =
               Array.init (Linalg.Mat.cols g) (fun j ->
                   Linalg.Mat.col_dot g j r)
             in
             let fold_dots idx r = dots (Linalg.Mat.select_rows g idx) r in
             let scan skip d =
               let best = ref (-1, 0.) in
               Array.iteri
                 (fun j c ->
                   if (not skip.(j)) && Float.abs c > snd !best then
                     best := (j, Float.abs c))
                 d;
               arg_bits !best
             in
             let check_dense what (got, want) =
               check_bool
                 (Printf.sprintf "%s: dense == Mat.col_dot (K=%d, M=%d, %d domains)"
                    what (P.rows win) (P.cols win)
                    (Parallel.Pool.num_domains pool))
                 true (got = want)
             in
             check_dense "gram_tr" (bits (P.gram_tr ~pool dn r), bits (dots g r));
             check_dense "argmax_abs"
               ( arg_bits (P.argmax_abs ~pool ~skip dn r),
                 scan skip (dots g r) );
             check "gram_tr" (both (fun p -> bits (P.gram_tr ~pool p r)));
             check "argmax_abs"
               (both (fun p -> arg_bits (P.argmax_abs ~pool ~skip p r)));
             List.iter
               (fun (rows, rs, skips) ->
                 let lanes what =
                   Printf.sprintf "%s, %d residuals" what (Array.length rs)
                 in
                 check_dense (lanes "gram_tr_multi")
                   ( Array.map bits (P.gram_tr_multi ~pool dn ~rows rs),
                     Array.map2 (fun idx r -> bits (fold_dots idx r)) rows rs );
                 check_dense (lanes "argmax_abs_multi")
                   ( Array.map arg_bits
                       (P.argmax_abs_multi ~pool ~skips dn ~rows rs),
                     Array.mapi
                       (fun q idx -> scan skips.(q) (fold_dots idx rs.(q)))
                       rows );
                 check (lanes "gram_tr_multi")
                   (both (fun p ->
                        Array.map bits (P.gram_tr_multi ~pool p ~rows rs)));
                 check (lanes "argmax_abs_multi")
                   (both (fun p ->
                        Array.map arg_bits
                          (P.argmax_abs_multi ~pool ~skips p ~rows rs))))
               multis;
             check "column_norms"
               (both (fun p -> bits (P.column_norms ~pool p)));
             (* col_dots: the listed slots of gram_tr, on the empty set,
                every single column, a random subset (any order,
                repeats allowed) and every column. *)
             let m = P.cols win in
             let sets =
               ([||] :: List.init m (fun j -> [| j |]))
               @ [
                   Array.init (Randkit.Prng.int rng (m + 1)) (fun _ ->
                       Randkit.Prng.int rng m);
                   Array.init m Fun.id;
                 ]
             in
             List.iter
               (fun idx ->
                 let slots p =
                   let g = P.gram_tr ~pool p r in
                   bits (Array.map (fun j -> g.(j)) idx)
                 in
                 let col_dots p =
                   let out = Array.make (Array.length idx) Float.nan in
                   P.col_dots p idx r out;
                   bits out
                 in
                 let what = Printf.sprintf "col_dots of %d columns" (Array.length idx) in
                 check_dense what (col_dots dn, slots dn);
                 check what (both col_dots);
                 check_bool (tag (what ^ " == gram_tr slots")) true
                   (col_dots win = slots win))
               sets;
             (* The dense provider's columns once its column-major
                image is built. *)
             check_dense "column from the image"
               ( Array.init m (fun j -> bits (P.column dn j)),
                 Array.init m (fun j -> bits (Linalg.Mat.col g j)) ))
           cases));
  true

(* The column-major image is built by whichever domain first asks:
   two domains racing on a fresh dense provider, and the 1- and
   2-domain pools asking afterwards, all read gram_tr's slots bit for
   bit, and the provider's columns stay the matrix's. *)
let test_image_race () =
  let rng = rng () in
  let k = 37 and m = 203 in
  let g = Randkit.Gaussian.matrix rng k m in
  let r = Randkit.Gaussian.vector rng k in
  let idx = Array.init 61 (fun _ -> Randkit.Prng.int rng m) in
  let want =
    let full = P.gram_tr (P.dense g) r in
    Array.map (fun j -> Int64.bits_of_float full.(j)) idx
  in
  let dots ?pool p =
    let out = Array.make (Array.length idx) Float.nan in
    P.col_dots ?pool p idx r out;
    Array.map Int64.bits_of_float out
  in
  for _ = 1 to 20 do
    let p = P.dense g in
    let racers = Array.init 2 (fun _ -> Domain.spawn (fun () -> dots p)) in
    Array.iter
      (fun d -> check_bool "raced image == gram_tr slots" true (Domain.join d = want))
      racers;
    List.iter
      (fun got -> check_bool "pooled image == gram_tr slots" true (got = want))
      (with_pools (fun pool -> dots ~pool p));
    check_bool "columns from the image" true
      (List.for_all
         (fun j -> P.column p j = Linalg.Mat.col g j)
         (List.init m Fun.id))
  done

(* --- small deterministic cases -------------------------------------- *)

let test_residual_cols_matches_subset () =
  let rng = rng () in
  let g = Randkit.Gaussian.matrix rng 12 7 in
  let b = Randkit.Gaussian.vector rng 12 in
  let idx = [| 1; 4; 6 |] in
  let x = [| 0.7; 0.; -1.3 |] in
  let cols = Array.map (Linalg.Mat.col g) idx in
  check_bool "residual_cols == residual_subset" true
    (Linalg.Lstsq.residual_cols cols x b
    = Linalg.Lstsq.residual_subset g idx x b)

let test_col_col_dot_matches_vec_dot () =
  let rng = rng () in
  let g = Randkit.Gaussian.matrix rng 9 5 in
  for i = 0 to 4 do
    for j = 0 to 4 do
      check_bool "Mat.col_col_dot == Vec.dot of cols" true
        (Linalg.Mat.col_col_dot g i j
        = Linalg.Vec.dot (Linalg.Mat.col g i) (Linalg.Mat.col g j))
    done
  done

let test_dim_zero_constant_basis () =
  let basis = Polybasis.Basis.create 0 [| Polybasis.Term.constant |] in
  let pts = Array.init 5 (fun _ -> [||]) in
  let src = P.streamed basis pts in
  check_int "one constant column" 1 (P.cols src);
  check_bool "constant column" true (P.column src 0 = Array.make 5 1.)

let test_validation () =
  let basis = Polybasis.Basis.quadratic 3 in
  let pts = [| [| 1.; 2. |] |] in
  check_raises_invalid "sample dim mismatch" (fun () ->
      P.streamed basis pts);
  let src = P.streamed basis [| [| 0.; 0.; 0. |] |] in
  check_raises_invalid "column out of bounds" (fun () ->
      P.column src (P.cols src));
  check_raises_invalid "select_rows out of bounds" (fun () ->
      P.select_rows src [| 1 |])

(* The lane kernel adds x·(+0) for rows outside a lane's set, a no-op
   only for a finite x, so a streamed provider refuses any table entry
   or column product that is not finite, naming the first one; its row
   subsets are built the same way. *)
let test_non_finite_tables () =
  let basis = Polybasis.Basis.quadratic 2 in
  let raises_naming what needle f =
    match f () with
    | exception Invalid_argument msg ->
        let n = String.length msg and m = String.length needle in
        let rec has i =
          i + m <= n && (String.sub msg i m = needle || has (i + 1))
        in
        check_bool (what ^ ": message names " ^ needle) true (has 0)
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  raises_naming "NaN sample" "sample 1, variable 0" (fun () ->
      P.streamed basis [| [| 0.5; 1. |]; [| Float.nan; 0. |]; [| 0.; 0. |] |]);
  raises_naming "infinite sample" "sample 0, variable 1" (fun () ->
      P.streamed basis [| [| 0.5; Float.infinity |] |]);
  raises_naming "square overflows" "He_2(y) = inf at sample 0, variable 0"
    (fun () -> P.streamed basis [| [| 1e200; 0. |] |]);
  (* Every table entry up to He₃ is finite at y = 5.85e102 (He₃ is
     about y³/√6), but the product He₁·He₁·He₁ = y³ is not. *)
  let triple =
    Polybasis.Basis.create 3
      [| Polybasis.Term.make [ (0, 1); (1, 1); (2, 1) ] |]
  in
  raises_naming "triple product overflows" "column 0 can overflow" (fun () ->
      P.streamed triple [| [| 5.85e102; 5.85e102; 5.85e102 |] |]);
  let ok = P.streamed basis [| [| 0.5; 1. |]; [| -2.; 0. |] |] in
  check_int "finite tables build" 2 (P.rows (P.select_rows ok [| 1; 0 |]))

let seed_gen = QCheck.int_range 1 10_000

let suite =
  ( "provider",
    [
      case "residual_cols == residual_subset" test_residual_cols_matches_subset;
      case "Mat.col_col_dot == Vec.dot" test_col_col_dot_matches_vec_dot;
      case "dim-0 constant basis" test_dim_zero_constant_basis;
      case "col_dots: the image raced by two domains == gram_tr" test_image_race;
      case "validation errors" test_validation;
      case "non-finite tables raise" test_non_finite_tables;
      qtest ~count:12 "to_dense: streamed == matrix_rows" seed_gen
        prop_to_dense_bitwise;
      qtest ~count:12 "columns: streamed == dense" seed_gen
        prop_columns_bitwise;
      qtest ~count:12 "sweeps: streamed == dense" seed_gen prop_sweeps_bitwise;
      qtest ~count:12 "column norms: streamed == dense" seed_gen
        prop_column_norms_bitwise;
      qtest ~count:10 "omp: streamed == dense" seed_gen
        prop_omp_dense_eq_streamed;
      qtest ~count:10 "star: streamed == dense" seed_gen
        prop_star_dense_eq_streamed;
      qtest ~count:8 "lar: streamed == dense" seed_gen
        prop_lars_dense_eq_streamed;
      qtest ~count:6 "cv selection: streamed == dense" seed_gen
        prop_cv_dense_eq_streamed;
      qtest ~count:10 "select_rows: streamed == dense" seed_gen
        prop_select_rows_bitwise;
      qtest ~count:4 "block edges: streamed kernels == dense" seed_gen
        prop_block_edges_bitwise;
    ] )
