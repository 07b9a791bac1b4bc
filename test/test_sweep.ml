(* The step-length screen under shard fleets and the fused
   multi-residual CV sweep.

   Contracts under test:
   - Cholesky.Grow.downdate_row equals refactorizing from the surviving
     rows, and raises once too few rows remain.
   - gram_tr_multi / argmax_abs_multi are bitwise equal to the Q
     independent per-fold sweeps, Dense and Streamed, at 1/2/4 domains,
     and on wide dense designs whose chunk edges split the 4-wide
     unroll; one identity-row fold equals the full-provider sweep.
   - the LAR and LASSO walks sharded over 2 and 3 column shards, whose
     step-length screens and carried bounds the fleet answers, are
     bitwise the unscreened reference walk, on dictionaries wide enough
     for the screen to hold, including paths with banned columns
     (linear combinations of dictionary entries) and lasso drops.
   - OMP/STAR checkpoints resume to the same model bytes, unsharded and
     sharded.
   - a dictionary whose every column gets banned terminates with an
     annotated model instead of raising.
   - the λ budget ends a LAR walk one step past λ bases: the capped
     walks (unsharded and sharded path drivers, the fused drivers'
     engine, fit_p) are a prefix of the uncapped walk with bitwise the
     same λ-models and fits, at 1 and 2 domains, dense, streamed and
     with scaled duplicate columns; a lasso walk keeps its step budget
     and still selects a model it returns to after a drop.
   - fused CV selection (streamed design) is bitwise equal to the
     per-job driver (dense design).
   - Pipeline.screen_refit (gram down-date) matches a cold refit on the
     kept rows. *)
open Test_util
module P = Polybasis.Design.Provider

let pool_counts = [ 1; 2; 4 ]

let with_pools f =
  List.map (fun d -> Parallel.Pool.with_pool ~domains:d f) pool_counts

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

let model_bits (m : Rsm.Model.t) =
  (m.Rsm.Model.support, Array.copy m.Rsm.Model.coeffs)

let rel_gap a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  if scale = 0. then 0. else Float.abs (a -. b) /. scale

(* Relative agreement of two models: same support, coefficients within
   tol of each other on the coefficient vector's scale — not each
   coefficient's own magnitude, which would hold ulp-level drift on a
   near-zero coefficient to an impossible standard whenever the model
   also carries O(1) coefficients. *)
let check_model_close msg tol (a : Rsm.Model.t) (b : Rsm.Model.t) =
  check_bool (msg ^ ": same support") true
    (a.Rsm.Model.support = b.Rsm.Model.support);
  let vscale =
    Array.fold_left
      (fun acc c -> Float.max acc (Float.abs c))
      (Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 0. b.Rsm.Model.coeffs)
      a.Rsm.Model.coeffs
  in
  Array.iteri
    (fun i ca ->
      let cb = b.Rsm.Model.coeffs.(i) in
      let gap =
        if vscale = 0. then Float.abs (ca -. cb)
        else Float.abs (ca -. cb) /. vscale
      in
      if gap > tol then
        Alcotest.failf "%s: coeff %d differs: %.17g vs %.17g (rel %.2e)" msg i
          ca cb gap)
    a.Rsm.Model.coeffs

let random_setting seed =
  let rng = Randkit.Prng.create seed in
  let dim = 3 + Randkit.Prng.int rng 3 in
  let basis = Polybasis.Basis.quadratic dim in
  let k = 18 + Randkit.Prng.int rng 16 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng dim) in
  let g =
    Parallel.Pool.with_pool ~domains:1 (fun pool ->
        Polybasis.Design.matrix_rows ~pool basis pts)
  in
  (rng, basis, pts, g)

let sparse_response rng src =
  let k = P.rows src and m = P.cols src in
  let p = 2 + Randkit.Prng.int rng 3 in
  let support = Randkit.Sampling.subsample rng (Array.init m Fun.id) p in
  let f = Array.init k (fun _ -> 0.05 *. Randkit.Gaussian.sample rng) in
  Array.iter
    (fun j ->
      let col = P.column src j in
      for i = 0 to k - 1 do
        f.(i) <- f.(i) +. col.(i)
      done)
    support;
  f

(* --- Cholesky down-date -------------------------------------------- *)

let gram_of_rows cols rows =
  let p = Array.length cols in
  let a = Linalg.Mat.create p p in
  for x = 0 to p - 1 do
    for y = 0 to p - 1 do
      let acc = ref 0. in
      Array.iter (fun i -> acc := !acc +. (cols.(x).(i) *. cols.(y).(i))) rows;
      Linalg.Mat.set a x y !acc
    done
  done;
  a

let test_downdate_matches_refactor () =
  let rng = rng () in
  let k = 30 and p = 6 in
  let cols = Array.init p (fun _ -> Randkit.Gaussian.vector rng k) in
  let g = Linalg.Cholesky.Grow.create p in
  for j = 0 to p - 1 do
    let v = Array.init j (fun a -> Linalg.Vec.dot cols.(a) cols.(j)) in
    Linalg.Cholesky.Grow.append g v (Linalg.Vec.dot cols.(j) cols.(j))
  done;
  let dropped = [| 3; 11; 12; 27 |] in
  Array.iter
    (fun i ->
      Linalg.Cholesky.Grow.downdate_row g
        (Array.map (fun col -> col.(i)) cols))
    dropped;
  let kept =
    Array.of_list
      (List.filter
         (fun i -> not (Array.mem i dropped))
         (List.init k Fun.id))
  in
  let reference = Linalg.Cholesky.factor (gram_of_rows cols kept) in
  let l = Linalg.Cholesky.Grow.factor_copy g in
  check_mat ~eps:1e-8 "down-dated factor == refactorized factor" reference l;
  (* And solving with the down-dated factor matches an LS fit on the
     surviving rows. *)
  let f = Randkit.Gaussian.vector rng k in
  let b =
    Array.init p (fun q ->
        Array.fold_left
          (fun acc i -> acc +. (cols.(q).(i) *. f.(i)))
          0. kept)
  in
  let x = Linalg.Cholesky.Grow.solve g b in
  let x_ref = Linalg.Cholesky.solve reference b in
  check_vec ~eps:1e-8 "down-dated solve == refactorized solve" x_ref x

let test_downdate_raises_when_underdetermined () =
  let rng = rng () in
  let k = 4 and p = 4 in
  let cols = Array.init p (fun _ -> Randkit.Gaussian.vector rng k) in
  let g = Linalg.Cholesky.Grow.create p in
  for j = 0 to p - 1 do
    let v = Array.init j (fun a -> Linalg.Vec.dot cols.(a) cols.(j)) in
    Linalg.Cholesky.Grow.append g v (Linalg.Vec.dot cols.(j) cols.(j))
  done;
  (* Removing a row from a square system leaves a rank-deficient Gram:
     the down-date must detect the lost pivot. *)
  match
    Linalg.Cholesky.Grow.downdate_row g (Array.map (fun col -> col.(0)) cols)
  with
  | () -> Alcotest.fail "expected Not_positive_definite"
  | exception Linalg.Cholesky.Not_positive_definite _ -> ()

let test_downdate_validates_length () =
  let g = Linalg.Cholesky.Grow.create 2 in
  Linalg.Cholesky.Grow.append g [||] 4.;
  check_raises_invalid "row length mismatch" (fun () ->
      Linalg.Cholesky.Grow.downdate_row g [| 1.; 2. |])

(* --- fused multi-residual sweeps ----------------------------------- *)

let fold_rows_of rng k q =
  if q = 1 then [| Array.init k Fun.id |]
  else
    let assignment = Randkit.Sampling.fold_assignment rng ~n:k ~folds:q in
    Array.init q (fun fq -> fst (Randkit.Sampling.fold_split assignment fq))

let prop_multi_bitwise seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let src_d = P.dense g in
  let k = P.rows src_s and m = P.cols src_s in
  let r = Randkit.Gaussian.vector rng k in
  List.iter
    (fun q ->
      let rows = fold_rows_of rng k q in
      let rs = Array.map (fun idx -> Array.map (fun i -> r.(i)) idx) rows in
      let skips =
        Array.init q (fun _ ->
            Array.init m (fun _ -> Randkit.Prng.int rng 5 = 0))
      in
      List.iter
        (fun src ->
          let name = if P.is_streamed src then "streamed" else "dense" in
          let outs =
            with_pools (fun pool ->
                ( P.gram_tr_multi ~pool src ~rows rs,
                  P.argmax_abs_multi ~pool ~skips src ~rows rs ))
          in
          all_equal (Printf.sprintf "%s multi q=%d across domains" name q)
            outs;
          let multi, picks = List.hd outs in
          Array.iteri
            (fun fq idx ->
              let sub = P.select_rows src idx in
              let independent = P.gram_tr sub rs.(fq) in
              check_bool
                (Printf.sprintf "%s gram_tr_multi fold %d/%d bitwise" name fq
                   q)
                true
                (independent = multi.(fq));
              let pick = P.argmax_abs ~skip:skips.(fq) sub rs.(fq) in
              check_bool
                (Printf.sprintf "%s argmax_abs_multi fold %d/%d bitwise" name
                   fq q)
                true
                (pick = picks.(fq)))
            rows)
        [ src_d; src_s ])
    [ 1; 2; 4 ];
  true

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let pick_bits_equal (ja, ca) (jb, cb) = ja = jb && bits_equal [| ca |] [| cb |]

(* Wide dense designs (K = 16–23, M = 4097–4351, never a multiple of
   4): at 2 domains every fused sweep splits its columns into two
   chunks, so chunk edges and the 4-wide unroll's tail fall at
   arbitrary columns. The two columns either side of the split are
   equal and scaled up, so the argmax ties across a chunk edge. *)
let prop_multi_wide_bitwise seed =
  let rng = Randkit.Prng.create seed in
  let k = 16 + Randkit.Prng.int rng 8 in
  let m =
    let m = 4097 + Randkit.Prng.int rng 255 in
    if m mod 4 = 0 then m + 1 else m
  in
  let v = Randkit.Gaussian.vector rng (k * m) in
  let edge = m / 2 in
  let g =
    Linalg.Mat.init k m (fun i j ->
        let j = if j = edge then edge - 1 else j in
        let x = v.((i * m) + j) in
        if j = edge - 1 then 10. *. x else x)
  in
  let src = P.dense g in
  let r = Randkit.Gaussian.vector rng k in
  let domains = [ 1; 2 ] in
  List.iter
    (fun q ->
      let rows = fold_rows_of rng k q in
      let rs = Array.map (fun idx -> Array.map (fun i -> r.(i)) idx) rows in
      let skips =
        Array.init q (fun _ ->
            Array.init m (fun _ -> Randkit.Prng.int rng 5 = 0))
      in
      List.iter
        (fun d ->
          Parallel.Pool.with_pool ~domains:d (fun pool ->
              let multi = P.gram_tr_multi ~pool src ~rows rs in
              let picks = P.argmax_abs_multi ~pool ~skips src ~rows rs in
              Array.iteri
                (fun fq idx ->
                  let sub = P.select_rows src idx in
                  let what = Printf.sprintf "K=%d M=%d fold %d/%d at %d domains" k m fq q d in
                  check_bool ("gram_tr_multi == gram_tr on select_rows, " ^ what)
                    true
                    (bits_equal (P.gram_tr ~pool sub rs.(fq)) multi.(fq));
                  check_bool
                    ("argmax_abs_multi == argmax_abs on select_rows, " ^ what)
                    true
                    (pick_bits_equal
                       (P.argmax_abs ~pool ~skip:skips.(fq) sub rs.(fq))
                       picks.(fq)))
                rows;
              if q = 1 then begin
                let what = Printf.sprintf "K=%d M=%d at %d domains" k m d in
                check_bool ("identity fold == gram_tr on the full provider, " ^ what)
                  true
                  (bits_equal (P.gram_tr ~pool src r) multi.(0));
                check_bool
                  ("identity fold == argmax_abs on the full provider, " ^ what)
                  true
                  (pick_bits_equal
                     (P.argmax_abs ~pool ~skip:skips.(0) src r)
                     picks.(0))
              end))
        domains)
    [ 1; 2; 4 ];
  true

let test_multi_validation () =
  let _, basis, pts, _ = random_setting 7 in
  let src = P.streamed basis pts in
  let k = P.rows src in
  check_raises_invalid "empty fold set" (fun () ->
      P.gram_tr_multi src ~rows:[||] [||]);
  check_raises_invalid "count mismatch" (fun () ->
      P.gram_tr_multi src ~rows:[| [| 0 |] |] [| [| 1. |]; [| 1. |] |]);
  check_raises_invalid "residual length mismatch" (fun () ->
      P.gram_tr_multi src ~rows:[| [| 0; 1 |] |] [| [| 1. |] |]);
  check_raises_invalid "non-ascending rows" (fun () ->
      P.gram_tr_multi src ~rows:[| [| 1; 0 |] |] [| [| 1.; 1. |] |]);
  check_raises_invalid "out-of-range row" (fun () ->
      P.gram_tr_multi src ~rows:[| [| k |] |] [| [| 1. |] |])

(* --- the sharded screen against the unscreened reference ----------- *)

(* A quadratic dictionary over 15 or 20 factors (M = 136 or 231) at
   K = 13 or 40 rows: wide enough for the screen to hold. *)
let wide_setting seed =
  let rng = Randkit.Prng.create seed in
  let dim = if Randkit.Prng.int rng 2 = 0 then 15 else 20 in
  let k = [| 13; 40 |].(Randkit.Prng.int rng 2) in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng dim) in
  (rng, P.streamed (Polybasis.Basis.quadratic dim) pts)

(* The λ-driven walk at 1 (unsharded), 2 and 3 domain shards against
   the unscreened reference walk, every step record bitwise. *)
let check_sharded_screen ~pool ~tag ~mode ~on_singular src f l =
  let bits steps =
    Array.map
      (fun (s : Rsm.Lars.step) ->
        ( s.Rsm.Lars.added,
          s.Rsm.Lars.dropped,
          Int64.bits_of_float s.Rsm.Lars.max_corr,
          model_bits s.Rsm.Lars.model,
          Rsm.Model.notes s.Rsm.Lars.model ))
      steps
  in
  let reference =
    bits (reference_walk ~pool ~mode ~on_singular src f ~max_lambda:l)
  in
  List.iter
    (fun shards ->
      check_bool
        (Printf.sprintf "%s, %d shards, lambda=%d" tag shards l)
        true
        (bits
           (Rsm.Lars.lambda_path_p ~mode ~pool ~on_singular
              ~shards:(plan shards) src f ~max_lambda:l)
        = reference))
    [ 1; 2; 3 ]

let prop_sharded_screen mode seed =
  let rng, streamed = wide_setting seed in
  let dense = P.dense (P.to_dense streamed) in
  let f = sparse_response rng dense in
  let l = 2 + Randkit.Prng.int rng 8 in
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (tag, src) ->
          check_sharded_screen ~pool ~tag ~mode ~on_singular:`Fallback src f l)
        [ ("dense", dense); ("streamed", streamed) ]);
  true

(* A dictionary with columns that are linear combinations of two
   others: once both parents are active (or the combination plus one
   parent), the third is numerically dependent and gets banned under
   `Fallback. 120 Gaussian columns and three combinations over 24 rows,
   so the screen can hold. *)
let combined_problem seed =
  let rng = Randkit.Prng.create seed in
  let k = 24 and m0 = 120 in
  let g0 = Randkit.Gaussian.matrix rng k m0 in
  let cols = Array.init m0 (fun j -> Linalg.Mat.col g0 j) in
  let combos =
    Array.init 3 (fun c ->
        Array.init k (fun i -> cols.(2 * c).(i) +. cols.((2 * c) + 1).(i)))
  in
  let all = Array.append cols combos in
  let g = Linalg.Mat.init k (Array.length all) (fun i j -> all.(j).(i)) in
  let f =
    Array.init k (fun i ->
        (3. *. cols.(0).(i))
        +. (2. *. cols.(1).(i))
        +. (0.5 *. cols.(2).(i))
        +. (0.02 *. Randkit.Gaussian.sample rng))
  in
  (P.dense g, f)

let prop_sharded_screen_with_bans seed =
  let src, f = combined_problem seed in
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun mode ->
          check_sharded_screen ~pool ~tag:"combined columns" ~mode
            ~on_singular:`Fallback src f 8)
        [ Rsm.Lars.Lar; Rsm.Lars.Lasso ]);
  true

(* Every column identical: with `Fallback the first enters and every
   other candidate is banned; the walk must end in an annotated model,
   never a raise, and argmax_abs's (-1, 0.) all-skipped sentinel must
   not be confused with the banned-column zero-step path. *)
let test_all_banned_terminates () =
  List.iter
    (fun seed ->
      let rng = Randkit.Prng.create seed in
      let k = 16 in
      let base = Randkit.Gaussian.vector rng k in
      let m = 5 in
      let g = Linalg.Mat.init k m (fun i _ -> base.(i)) in
      let f = Array.init k (fun i -> base.(i) +. (0.01 *. float_of_int i)) in
      let src = P.dense g in
      Parallel.Pool.with_pool ~domains:2 (fun pool ->
          let steps =
            Rsm.Lars.path_p ~mode:Rsm.Lars.Lar ~pool ~on_singular:`Fallback
              src f ~max_steps:12
          in
          check_bool
            (Printf.sprintf "seed %d: walk terminates with steps" seed)
            true
            (Array.length steps > 0);
          let last = steps.(Array.length steps - 1) in
          check_int
            (Printf.sprintf "seed %d: one column survives" seed)
            1
            (Rsm.Model.nnz last.Rsm.Lars.model)))
    [ 3; 17 ]

let step_bits (s : Rsm.Lars.step) =
  ( s.Rsm.Lars.added,
    s.Rsm.Lars.dropped,
    model_bits s.Rsm.Lars.model,
    Rsm.Model.notes s.Rsm.Lars.model )

let corr_bits (s : Rsm.Lars.step) = Int64.bits_of_float s.Rsm.Lars.max_corr

(* --- the λ budget ends a LAR walk ---------------------------------- *)

(* The dense design plus power-of-two-scaled copies of the three columns
   most correlated with [f] (exact scalings, so each copy normalizes to
   within an ulp of its twin): every copy ties its twin the moment the
   twin enters, and under `Fallback is banned or enters near-singular
   wherever the walk then is — at the λ budget included. *)
let with_scaled_copies src f =
  let m = P.cols src and k = P.rows src in
  let c = P.gram_tr src f in
  let order = Array.init m Fun.id in
  Array.sort (fun a b -> compare (Float.abs c.(b)) (Float.abs c.(a))) order;
  let scales = [| 2.; -0.5; 4. |] in
  let cols = Array.init m (P.column src) in
  P.dense
    (Linalg.Mat.init k (m + 3) (fun i j ->
         if j < m then cols.(j).(i) else scales.(j - m) *. cols.(order.(j - m)).(i)))

let cap_bits (s : Rsm.Lars.step) = (step_bits s, corr_bits s)

(* One capped-walk check against the uncapped [path_p] at the λ grid's
   step budget: the capped steps are its prefix up to and including its
   first step with more than λ bases (the whole walk if it has none),
   so their λ-models are bitwise its λ-models; [fit_p] returns bitwise
   the last model with at most λ bases of the uncapped walk at its own
   first budget 2λ + 8. The step count pins the stop itself: a walk
   that ran on to the full budget would still match every model. *)
let check_lambda_cap ~pool ~tag ~on_singular ~shards src f l =
  let mode = Rsm.Lars.Lar in
  let nnz (s : Rsm.Lars.step) = Rsm.Model.nnz s.Rsm.Lars.model in
  let full =
    Rsm.Lars.path_p ~mode ~pool ~on_singular ~shards:(plan shards) src f
      ~max_steps:(Rsm.Lars.step_budget l)
  in
  let capped =
    Rsm.Lars.lambda_path_p ~mode ~pool ~on_singular ~shards:(plan shards) src
      f ~max_lambda:l
  in
  let rec ends i =
    if i >= Array.length full then i
    else if nnz full.(i) > l then i + 1
    else ends (i + 1)
  in
  let n = ends 0 in
  check_int (tag "walk ends one step past lambda") n (Array.length capped);
  check_bool (tag "capped steps are the uncapped prefix") true
    (Array.map cap_bits capped = Array.map cap_bits (Array.sub full 0 n));
  let models steps =
    Array.map model_bits (Rsm.Lars.lambda_models src ~max_lambda:l steps)
  in
  check_bool (tag "lambda-models") true (models capped = models full);
  let last_within =
    Array.fold_left
      (fun acc (s : Rsm.Lars.step) ->
        if nnz s <= l then Some s.Rsm.Lars.model else acc)
      None
      (Rsm.Lars.path_p ~mode ~pool ~on_singular ~shards:(plan shards)
         src f ~max_steps:((2 * l) + 8))
  in
  Option.iter
    (fun m ->
      check_bool (tag "fit_p") true
        (Rsm.Serialize.to_string
           (Rsm.Lars.fit_p ~mode ~pool ~on_singular ~shards:(plan shards)
              src f ~lambda:l)
        = Rsm.Serialize.to_string m))
    last_within;
  (* The fused drivers' walk: the engine answered from exact sweeps
     walks the same capped steps. *)
  if shards = 1 then
    check_bool (tag "engine walk") true
      (Array.map cap_bits
         (reference_walk ~pool ~mode ~on_singular src f ~max_lambda:l)
      = Array.map cap_bits capped)

let prop_lambda_cap_parity seed =
  let rng, basis, pts, g = random_setting seed in
  let src_d = P.dense g in
  let f = sparse_response rng src_d in
  let lambdas = [ 1; 2 + Randkit.Prng.int rng 5 ] in
  let designs =
    [
      ("dense", src_d, `Stop);
      ("streamed", P.streamed basis pts, `Stop);
      ("scaled copies", with_scaled_copies src_d f, `Fallback);
    ]
  in
  let engines = [ ("unsharded", 1); ("3 shards", 3) ] in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun (dname, src, on_singular) ->
              List.iter
                (fun l ->
                  List.iter
                    (fun (ename, shards) ->
                      let tag what =
                        Printf.sprintf "%s, %s, domains=%d, lambda=%d: %s"
                          dname ename domains l what
                      in
                      check_lambda_cap ~pool ~tag ~on_singular ~shards src f
                        l)
                    engines)
                lambdas)
            designs))
    [ 1; 2 ];
  true

(* Why the λ budget ends only LAR walks. On this design a scaled copy
   of a column sits next to its twin under `Stop, so the lasso walk
   meets steps where nothing may enter; on one of them a drop takes the
   support from 6 bases back to 5. At λ = 5 the walk has been past its
   budget (step 5) and returns to it (step 7), and cross-validation,
   the refit and [fit_p] must all read that later model — a lasso walk
   stopped at step 5 would hand back step 4's. *)
let lasso_drop_problem () =
  let rng = Randkit.Prng.create 306 in
  let k = 30 and m = 12 in
  let w = Randkit.Gaussian.vector rng k in
  let z = Randkit.Gaussian.matrix rng k m in
  let g0 =
    Linalg.Mat.init k m (fun i j -> Linalg.Mat.get z i j +. (0.9 *. w.(i)))
  in
  let g =
    Linalg.Mat.init k (m + 3) (fun i j ->
        if j < m then Linalg.Mat.get g0 i j else 2. *. Linalg.Mat.get g0 i (j - m))
  in
  let f =
    Array.init k (fun i ->
        (3. *. Linalg.Mat.get g i 0)
        -. (2. *. Linalg.Mat.get g i 1)
        +. (1.5 *. Linalg.Mat.get g i 2)
        -. Linalg.Mat.get g i 3
        +. (0.8 *. Linalg.Mat.get g i 4)
        +. (0.1 *. Randkit.Gaussian.sample rng))
  in
  (P.dense g, f)

let test_lasso_keeps_step_budget () =
  let src, f = lasso_drop_problem () in
  let lambda = 5 and mode = Rsm.Lars.Lasso in
  let steps =
    Rsm.Lars.path_p ~mode src f ~max_steps:(Rsm.Lars.step_budget lambda)
  in
  let nnz i = Rsm.Model.nnz steps.(i).Rsm.Lars.model in
  check_int "first step past the budget" 6 (nnz 5);
  check_int "the drop brings the support back" 5 (nnz 7);
  check_bool "later steps stay past the budget" true
    (Array.for_all (fun i -> nnz i > lambda)
       (Array.init (Array.length steps - 8) (fun i -> i + 8)));
  let later = Rsm.Serialize.to_string steps.(7).Rsm.Lars.model in
  check_bool "later model differs from the one before the budget" true
    (later <> Rsm.Serialize.to_string steps.(4).Rsm.Lars.model);
  check_int "the lasso walk keeps its step budget"
    (Array.length steps)
    (Array.length (Rsm.Lars.lambda_path_p ~mode src f ~max_lambda:lambda));
  let r =
    Rsm.Select.lars_p ~mode (Randkit.Prng.create 1) ~max_lambda:lambda src f
  in
  check_int "cross-validation picks the budget" lambda r.Rsm.Select.lambda;
  check_bool "lars_p refits the later model" true
    (Rsm.Serialize.to_string r.Rsm.Select.model = later);
  check_bool "fit_p returns the later model" true
    (Rsm.Serialize.to_string (Rsm.Lars.fit_p ~mode src f ~lambda) = later)

(* --- OMP/STAR checkpoint/resume, unsharded and sharded -------------- *)

(* A checkpoint taken at support size 4, resumed with the same shard
   count, must continue to the same model bytes as the uninterrupted
   run. The resumed path's leading replay step carries the checkpoint's
   model, so the resumed models equal the uninterrupted ones from step
   [prefix − 1] on; the live continuation also reports bitwise-equal
   winning correlations (OMP) and coefficients (STAR). *)
let test_greedy_resume_bitwise () =
  let rng, _, _, g = random_setting 23 in
  let src = P.dense g in
  let f = sparse_response rng src in
  let bits model x = (Rsm.Serialize.to_string model, Int64.bits_of_float x) in
  let omp ~shards ~on_checkpoint ~resume =
    Array.map
      (fun (s : Rsm.Omp.step) -> bits s.model s.correlation)
      (Rsm.Omp.path_p ~shards:(plan shards)
         ~log:(walk_log ~every:2 ~save:on_checkpoint ?resume ())
         src f ~max_lambda:8)
  in
  let star ~shards ~on_checkpoint ~resume =
    Array.map
      (fun (s : Rsm.Star.step) -> bits s.model s.coefficient)
      (Rsm.Star.path_p ~shards:(plan shards)
         ~log:(walk_log ~every:2 ~save:on_checkpoint ?resume ())
         src f ~max_lambda:8)
  in
  let prefix = 4 in
  List.iter
    (fun (name, path) ->
      List.iter
        (fun shards ->
          let tag = Printf.sprintf "%s shards=%d" name shards in
          let saved = ref None in
          let full =
            path ~shards
              ~on_checkpoint:(fun c ->
                if Array.length c.Rsm.Serialize.Checkpoint.active = prefix
                then saved := Some c)
              ~resume:None
          in
          let ck =
            match !saved with
            | Some c -> c
            | None -> Alcotest.failf "%s: no checkpoint at support 4" tag
          in
          let resumed =
            path ~shards ~on_checkpoint:(fun _ -> ()) ~resume:(Some ck)
          in
          let n = Array.length full in
          check_bool (tag ^ ": path continues past the checkpoint") true
            (n > prefix && Array.length resumed = n - prefix + 1);
          check_bool (tag ^ ": replayed model byte-identical") true
            (fst resumed.(0) = fst full.(prefix - 1));
          check_bool (tag ^ ": live continuation bitwise") true
            (Array.sub resumed 1 (n - prefix)
            = Array.sub full prefix (n - prefix)))
        [ 1; 3 ])
    [ ("omp", omp); ("star", star) ]

(* --- fused CV vs per-fold CV --------------------------------------- *)

(* The design's form picks the fold driver (Select.fused_driver): the
   streamed provider runs the fused lockstep driver, the dense one the
   per-job driver, and the two providers give the same bits. *)
let prop_fused_cv_bitwise solver seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let src_d = P.dense g in
  let f = sparse_response rng src_s in
  let fused src =
    Rsm.Select.fused_driver ~streamed:(P.is_streamed src) ~shards:1
  in
  check_bool "streamed design runs the fused driver" true (fused src_s);
  check_bool "dense design runs the per-job driver" false (fused src_d);
  let select pool src =
    let r =
      match solver with
      | `Omp ->
          Rsm.Select.omp_p ~pool (Randkit.Prng.create (seed + 1))
            ~max_lambda:5 src f
      | `Star ->
          (Rsm.Select.star_multi_p ~pool (Randkit.Prng.create (seed + 1))
             ~max_lambda:5 src [| f |]).(0)
    in
    (r.Rsm.Select.lambda, Array.copy r.Rsm.Select.curve,
     model_bits r.Rsm.Select.model)
  in
  let results =
    List.map
      (fun d ->
        Parallel.Pool.with_pool ~domains:d (fun pool ->
            (select pool src_s, select pool src_d)))
      [ 1; 2 ]
  in
  List.iter
    (fun (fused, perfold) ->
      check_bool "fused CV (streamed) == per-fold CV (dense)" true
        (fused = perfold))
    results;
  all_equal "fused CV across domains" results;
  true

(* --- the refit walk in the lockstep -------------------------------- *)

(* A streamed provider whose columns are [g]'s, bit for bit: one linear
   term per column over samples that are [g]'s rows (He₁(y) = y, read
   against the all-ones slice). *)
let streamed_of_matrix g =
  P.streamed
    (Polybasis.Basis.linear_only (Linalg.Mat.cols g))
    (Array.init (Linalg.Mat.rows g) (Linalg.Mat.row g))

(* One method's selector over [fs]: the single-output entry point for
   one response, the multi-output one for several (STAR has only the
   multi-output one). *)
let select_all meth ~pool ~on_singular ~max_lambda src fs =
  let rng = Randkit.Prng.create 11 in
  let lars mode =
    match fs with
    | [| f |] ->
        [| Rsm.Select.lars_p ~pool ~on_singular ~mode rng ~max_lambda
             src f |]
    | _ ->
        Rsm.Select.lars_multi_p ~pool ~on_singular ~mode rng ~max_lambda
          src fs
  in
  match (meth, fs) with
  | `Omp, [| f |] ->
      [| Rsm.Select.omp_p ~pool ~on_singular rng ~max_lambda src f |]
  | `Omp, _ ->
      Rsm.Select.omp_multi_p ~pool ~on_singular rng ~max_lambda src fs
  | `Star, _ -> Rsm.Select.star_multi_p ~pool rng ~max_lambda src fs
  | `Lar, _ -> lars Rsm.Lars.Lar
  | `Lasso, _ -> lars Rsm.Lars.Lasso

let selection_bits (r : Rsm.Select.result) =
  ( r.Rsm.Select.lambda,
    Array.map Int64.bits_of_float r.Rsm.Select.curve,
    Rsm.Serialize.to_string r.Rsm.Select.model )

(* On a streamed design the fused driver also walks each output's
   refit in the lockstep and reads the chosen λ's model from that
   walk's prefix; the dense design runs the per-job driver and walks
   the chosen λ again. Both must give the same λ, curve and model bytes
   for OMP, STAR, LAR and lasso, one output or four, at 1 and 2
   domains — on a random quadratic design, and on the design with
   scaled duplicate columns whose `Fallback bans land at the λ budget.
   Each seed must choose some λ strictly below the λ cap, where the
   prefix is not the whole walk. *)
let refit_setting seed =
  let rng, basis, pts, g = random_setting seed in
  let src_d = P.dense g in
  let fs = Array.init 4 (fun _ -> sparse_response rng src_d) in
  let copies = with_scaled_copies src_d fs.(0) in
  ( fs,
    [
      ("quadratic", P.streamed basis pts, src_d, `Stop);
      ( "scaled copies",
        streamed_of_matrix (P.to_dense copies),
        copies,
        `Fallback );
    ] )

let prop_refit_prefix_bitwise seed =
  let fs, designs = refit_setting seed in
  let below_cap = ref 0 in
  List.iter
    (fun (dname, src_s, src_d, on_singular) ->
      check_bool (dname ^ ": streamed columns == dense") true
        (Linalg.Mat.to_arrays (P.to_dense src_s)
        = Linalg.Mat.to_arrays (P.to_dense src_d));
      List.iter
        (fun meth ->
          List.iter
            (fun outputs ->
              let fs = Array.sub fs 0 outputs in
              let run d src =
                Parallel.Pool.with_pool ~domains:d (fun pool ->
                    Array.map selection_bits
                      (select_all meth ~pool ~on_singular ~max_lambda:12
                         src fs))
              in
              let per_job = run 1 src_d in
              Array.iter
                (fun (lambda, curve, _) ->
                  if lambda < Array.length curve then incr below_cap)
                per_job;
              List.iter
                (fun d ->
                  check_bool
                    (Printf.sprintf
                       "%s, %d output(s), %d domain(s): fused == per-job"
                       dname outputs d)
                    true
                    (run d src_s = per_job))
                [ 1; 2 ])
            [ 1; 4 ])
        [ `Omp; `Star; `Lar; `Lasso ])
    designs;
  check_bool "some chosen lambda lies below the cap" true (!below_cap > 0);
  true

(* Seed 99's scaled-copies design, one output: LAR under `Fallback
   chooses λ = 11 of 12, and the λ = 12 walk records bans past λ = 11's
   step budget with 11 bases active, so read without the cut at
   [Lars.step_budget 11] it hands back a later model, with more ban
   notes, that the λ = 11 walk never reaches. The lockstep refit must
   read the cut walk. *)
let test_refit_prefix_bans_at_budget () =
  let seed = 99 in
  let fs, designs = refit_setting seed in
  let _, _, copies, on_singular = List.nth designs 1 in
  let f = fs.(0) in
  let r =
    Rsm.Select.lars_p ~on_singular (Randkit.Prng.create 11) ~max_lambda:12
      copies f
  in
  check_int "cross-validation chooses 11 of 12" 11 r.Rsm.Select.lambda;
  let steps = Rsm.Lars.lambda_path_p ~on_singular copies f ~max_lambda:12 in
  let read steps =
    Rsm.Serialize.to_string
      (Rsm.Lars.lambda_models copies ~max_lambda:11 steps).(10)
  in
  check_bool "the uncut walk reads a later model at 11" true
    (read steps
    <> read (Array.sub steps 0 (Rsm.Lars.step_budget 11)));
  check_bool "the refit is the cut walk's" true
    (Rsm.Serialize.to_string r.Rsm.Select.model
    = read (Array.sub steps 0 (Rsm.Lars.step_budget 11)));
  ignore (prop_refit_prefix_bitwise seed)

(* Seed 2's scaled-copies design, output 1, lasso under `Stop: the
   full-data walk to the λ cap of 12 fails a Gram rebuild after a drop,
   while cross-validation chooses λ = 6, whose own walk ends before
   that. The lockstep drops its refit walk and walks λ = 6 on its own,
   so the fused selection still equals the per-job one. *)
let test_refit_prefix_drops_failed_walk () =
  let fs, designs = refit_setting 2 in
  let _, src_s, src_d, _ = List.nth designs 1 in
  let f = fs.(1) and mode = Rsm.Lars.Lasso in
  check_bool "the walk to the cap fails" true
    (match Rsm.Lars.lambda_path_p ~mode src_d f ~max_lambda:12 with
    | _ -> false
    | exception Linalg.Cholesky.Not_positive_definite _ -> true);
  let select src =
    selection_bits
      (Rsm.Select.lars_p ~mode (Randkit.Prng.create 11) ~max_lambda:12 src f)
  in
  let ((lambda, _, _) as per_job) = select src_d in
  check_int "cross-validation chooses 6" 6 lambda;
  check_bool "fused == per-job" true (select src_s = per_job)

(* One output's folds handed to one batch call: the grid runner must
   equal the per-fold loop, skip cached folds and catch a batch that
   leaves a fold unfinished. *)
let test_batch_fold_curves () =
  let rng = Randkit.Prng.create 5 in
  let plan = Stat.Crossval.make_plan rng ~n:20 ~folds:4 in
  let curve_of q ~train ~held_out =
    [| float_of_int (q + Array.length train); float_of_int (Array.length held_out) |]
  in
  let reference =
    Array.init 4 (fun q ->
        let train, held_out = Stat.Crossval.fold_indices plan q in
        curve_of q ~train ~held_out)
  in
  let batch seen jobs finish =
    seen := Array.to_list (Array.map (fun (_, q, _, _) -> q) jobs);
    Array.iteri
      (fun i (_, q, train, held_out) -> finish i (curve_of q ~train ~held_out))
      jobs
  in
  let run ?caches seen =
    (Stat.Crossval.run_fold_curves_multi ?caches ~outputs:1 plan
       ~fit_curves:(batch seen)).(0)
  in
  let seen = ref [] in
  check_bool "batched == per-fold" true (run seen = reference);
  check_bool "one batch holds every fold" true (!seen = [ 0; 1; 2; 3 ]);
  (* With a cache covering fold 1, the batch must only see the others. *)
  let cache =
    Stat.Crossval.
      {
        load = (fun q -> if q = 1 then Some reference.(1) else None);
        store = (fun _ _ -> ());
      }
  in
  let cached = run ~caches:[| Some cache |] seen in
  check_bool "cached fold skipped" true (!seen = [ 0; 2; 3 ]);
  check_bool "cached batch == per-fold" true (cached = reference);
  check_raises_invalid "curve count mismatch" (fun () ->
      ignore
        (Stat.Crossval.run_fold_curves_multi ~outputs:1 plan
           ~fit_curves:(fun _ _ -> ())))

(* --- screen_refit -------------------------------------------------- *)

let test_screen_refit_matches_cold () =
  let rng, _, _, g = random_setting 33 in
  let src = P.dense g in
  let f = sparse_response rng src in
  let k = P.rows src in
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      let model = Rsm.Omp.fit_p ~pool src f ~lambda:3 in
      (* Clean residuals: nothing to drop, the model comes back as-is. *)
      let same, none = Robust.Pipeline.screen_refit src f model in
      check_bool "clean data drops nothing" true (none = [||]);
      check_bool "clean data keeps the model" true
        (model_bits same = model_bits model);
      (* Corrupt three responses far outside the residual bulk. *)
      let f2 = Array.copy f in
      let bad = [| 2; 7; k - 1 |] in
      Array.iter (fun i -> f2.(i) <- f2.(i) +. 1e4) bad;
      let refit, dropped = Robust.Pipeline.screen_refit src f2 model in
      check_bool "corrupted rows dropped" true (dropped = bad);
      check_bool "support preserved" true
        (refit.Rsm.Model.support = model.Rsm.Model.support);
      check_bool "rescreen note attached" true
        (Array.exists
           (fun n ->
             String.length n >= 8 && String.sub n 0 8 = "rescreen")
           (Rsm.Model.notes refit));
      (* Reference: cold LS refit of the same support on the kept rows. *)
      let kept =
        Array.of_list
          (List.filter (fun i -> not (Array.mem i bad)) (List.init k Fun.id))
      in
      let cols =
        Array.map
          (fun j ->
            let col = P.column src j in
            Array.map (fun i -> col.(i)) kept)
          model.Rsm.Model.support
      in
      let f_kept = Array.map (fun i -> f2.(i)) kept in
      let reference, _ = Rsm.Refit.solve_cols cols f_kept in
      Array.iteri
        (fun i c ->
          if rel_gap c reference.(i) > 1e-8 then
            Alcotest.failf
              "downdate refit coeff %d: %.17g vs cold %.17g (rel %.2e)" i c
              reference.(i)
              (rel_gap c reference.(i)))
        refit.Rsm.Model.coeffs)

let test_screen_refit_too_few_rows () =
  (* A support wider than the surviving row count: the refit must keep
     the original model and say why. Only a minority of rows may be
     corrupted (the MAD scale breaks down at 50%), so the support has to
     nearly fill the row count. *)
  let rng = Randkit.Prng.create 9 in
  let k = 6 and m = 5 in
  let g = Randkit.Gaussian.matrix rng k m in
  let src = P.dense g in
  let f =
    Array.init k (fun i ->
        let acc = ref (0.001 *. Randkit.Gaussian.sample rng) in
        for j = 0 to m - 1 do
          acc := !acc +. Linalg.Mat.get g i j
        done;
        !acc)
  in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      let model = Rsm.Omp.fit_p ~pool src f ~lambda:m in
      let p = Rsm.Model.nnz model in
      check_int "all columns selected" m p;
      let f2 = Array.copy f in
      f2.(0) <- f2.(0) +. 1e5;
      f2.(1) <- f2.(1) +. 1e5;
      let kept_model, dropped = Robust.Pipeline.screen_refit src f2 model in
      check_bool "flags the corrupted rows" true (dropped = [| 0; 1 |]);
      check_bool "keeps the warm-start coefficients" true
        (kept_model.Rsm.Model.coeffs = model.Rsm.Model.coeffs);
      check_bool "explains why" true
        (Array.exists
           (fun n -> String.length n >= 8 && String.sub n 0 8 = "rescreen")
           (Rsm.Model.notes kept_model)))

let test_screen_refit_validation () =
  let _, _, _, g = random_setting 3 in
  let src = P.dense g in
  let f = Array.make (P.rows src) 1. in
  let model =
    Rsm.Model.make ~basis_size:(P.cols src) ~support:[| 0 |] ~coeffs:[| 1. |]
  in
  check_raises_invalid "bad threshold" (fun () ->
      Robust.Pipeline.screen_refit ~threshold:0. src f model);
  check_raises_invalid "length mismatch" (fun () ->
      Robust.Pipeline.screen_refit src [| 1. |] model)

let seed_gen = QCheck.int_range 1 10_000

let suite =
  ( "sweep",
    [
      case "downdate_row == refactorize" test_downdate_matches_refactor;
      case "downdate_row raises when under-determined"
        test_downdate_raises_when_underdetermined;
      case "downdate_row validates length" test_downdate_validates_length;
      case "multi-sweep validation" test_multi_validation;
      case "all-identical dictionary terminates annotated"
        test_all_banned_terminates;
      case "lasso walk keeps its step budget past lambda"
        test_lasso_keeps_step_budget;
      case "OMP/STAR resume bitwise (exact x shards 1/3)"
        test_greedy_resume_bitwise;
      case "batched fold curves == per-fold" test_batch_fold_curves;
      case "fused refit cuts the walk at the lambda's step budget"
        test_refit_prefix_bans_at_budget;
      case "fused refit drops a walk that fails past the chosen lambda"
        test_refit_prefix_drops_failed_walk;
      case "screen_refit == cold refit" test_screen_refit_matches_cold;
      case "screen_refit keeps model when rows run out"
        test_screen_refit_too_few_rows;
      case "screen_refit validation" test_screen_refit_validation;
      qtest ~count:10 "fused multi == independent sweeps" seed_gen
        prop_multi_bitwise;
      qtest ~count:12 "fused multi == independent sweeps, wide dense"
        seed_gen prop_multi_wide_bitwise;
      qtest ~count:8 "LAR sharded screen == unscreened reference" seed_gen
        (prop_sharded_screen Rsm.Lars.Lar);
      qtest ~count:8 "LASSO sharded screen == unscreened reference" seed_gen
        (prop_sharded_screen Rsm.Lars.Lasso);
      qtest ~count:6 "banned columns: sharded screen == unscreened reference"
        seed_gen prop_sharded_screen_with_bans;
      qtest ~count:10 "LAR lambda budget: capped walk == uncapped prefix"
        seed_gen prop_lambda_cap_parity;
      qtest ~count:6 "OMP fused CV == per-fold CV" seed_gen
        (prop_fused_cv_bitwise `Omp);
      qtest ~count:6 "STAR fused CV == per-fold CV" seed_gen
        (prop_fused_cv_bitwise `Star);
      qtest ~count:4 "fused refit from the lockstep prefix == per-job refit"
        seed_gen prop_refit_prefix_bitwise;
    ] )
