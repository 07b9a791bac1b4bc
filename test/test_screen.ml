(* LAR step-length screening: the exact drivers answer a direction from
   the columns whose candidates can set γ only, and must still walk the
   full scan's steps bit for bit.

   Contracts under test:
   - Provider.col_dots is bitwise the listed slots of gram_tr, dense and
     streamed (the block-edge property in test_provider.ml covers every
     kernel tail).
   - Lars.lambda_path_p and Lars.fit_p (screened, unsharded exact) give
     the steps of the unscreened reference walk (the public Lars.Engine
     with full gram_tr answers), and fit_p's walk log — committed γ
     included — is bitwise the log of the walk a shard fleet answers;
     the fused (streamed) and per-job (dense)
     Select.lars_p match the sharded per-job selector. Cases: dense and
     streamed designs, LAR and lasso, `Stop and `Fallback, duplicate
     columns scaled by powers of two (bans), zero columns, K in
     {1, 2, 5, 13}, dictionaries too small for the screen to hold and
     large enough for it to, a dense design with a NaN entry, 1 and 2
     domains.
   - Wherever the screen holds on the NaN design, the NaN column is
     among the kept columns.
   - The same screened walks answer correlation phases from the
     engine's carried bounds wherever those hold, so every check above
     covers them too; on a wide design they answer some phases, and the
     first phase (no bounds yet) never.
   - Lars.gamma_screen alone: a column it rules out has both
     candidates above the threshold, on columns where the bound is
     tight, and a NaN correlation is never ruled out.
   - A constructed walk whose second step is set by a column outside
     the 8 nearest the tie, which an unsound bound (A in place of ‖u‖)
     rules out: unsharded, over two domain shards and through the fused
     lockstep it walks the unscreened reference's steps. *)
open Test_util
module P = Polybasis.Design.Provider
module Ckpt = Rsm.Serialize.Checkpoint

let model_bits (m : Rsm.Model.t) =
  ( m.Rsm.Model.support,
    Array.map Int64.bits_of_float m.Rsm.Model.coeffs,
    Rsm.Model.notes m )

let step_bits (s : Rsm.Lars.step) =
  ( s.Rsm.Lars.added,
    s.Rsm.Lars.dropped,
    Int64.bits_of_float s.Rsm.Lars.max_corr,
    model_bits s.Rsm.Lars.model )

(* The screened walk driven by hand, counting the step-length screens
   that held (a held one adds its images to the engine's [screened]
   count as it is decided) and the correlation phases the carried
   bounds answered, and checking that a column listed in [must_keep]
   survives every step-length screen that holds. *)
let screened_walk ~pool ~mode ~on_singular ?(must_keep = []) src f
    ~max_lambda =
  let e = Rsm.Lars.Engine.create ~mode ~pool ~on_singular src f ~max_lambda in
  let held = ref 0 and carried = ref 0 in
  let screened () = (Rsm.Lars.Engine.dots e).Rsm.Lars.Engine.screened in
  while not (Rsm.Lars.Engine.finished e) do
    let before = screened () in
    match Rsm.Lars.Engine.screen e with
    | Some kept ->
        if screened () > before then begin
          List.iter
            (fun j ->
              if not (Array.mem j kept) then
                Alcotest.failf "screen skipped column %d" j)
            must_keep;
          incr held
        end
        else incr carried;
        Rsm.Lars.Engine.supply_screened e
    | None ->
        Rsm.Lars.Engine.supply e
          (P.gram_tr ~pool src (Rsm.Lars.Engine.request e))
  done;
  (Rsm.Lars.Engine.steps e, !held, !carried)

(* Either both walks raise [Not_positive_definite] or neither does. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Linalg.Cholesky.Not_positive_definite _ -> Error "non-SPD"

let check_same tag a b =
  match (a, b) with
  | Ok x, Ok y -> check_bool tag true (x = y)
  | Error _, Error _ -> ()
  | Ok _, Error e | Error e, Ok _ -> Alcotest.failf "%s: one walk raised %s" tag e

(* Test_sweep's duplicates of the three columns most correlated with
   [f], scaled by 2, −0.5 and 4, then two columns of zeros. *)
let with_copies_and_zeros src f =
  let g = P.to_dense (Test_sweep.with_scaled_copies src f) in
  let m = Linalg.Mat.cols g in
  P.dense
    (Linalg.Mat.init (Linalg.Mat.rows g) (m + 2) (fun i j ->
         if j < m then Linalg.Mat.get g i j else 0.))

(* One design's checks at one λ, mode and policy. [select] adds the CV
   selectors (they need K ≥ 8 for four folds with training rows). *)
let check_design ~pool ~tag ?must_keep ~select ~mode ~on_singular src f l =
  let tag what = tag ^ ": " ^ what in
  let reference =
    outcome (fun () ->
        Array.map step_bits
          (reference_walk ~pool ~mode ~on_singular src f ~max_lambda:l))
  in
  check_same (tag "lambda_path_p == reference walk") reference
    (outcome (fun () ->
         Array.map step_bits
           (Rsm.Lars.lambda_path_p ~mode ~pool ~on_singular src f
              ~max_lambda:l)));
  check_same (tag "hand-driven screen == reference walk") reference
    (outcome (fun () ->
         let steps, _, _ =
           screened_walk ~pool ~mode ~on_singular ?must_keep src f
             ~max_lambda:l
         in
         Array.map step_bits steps));
  (* fit_p's model and last walk log against the sharded engine's. *)
  let fit shards =
    outcome (fun () ->
        let last = ref None in
        let log = walk_log ~every:1 ~save:(fun c -> last := Some c) () in
        let m =
          Rsm.Lars.fit_p ~mode ~pool ~on_singular ~log ?shards src f ~lambda:l
        in
        ( Rsm.Serialize.to_string m,
          Option.map Ckpt.to_string !last,
          Option.map
            (fun c ->
              Array.map
                (fun (e : Ckpt.event) -> Int64.bits_of_float e.Ckpt.gamma)
                c.Ckpt.events)
            !last ))
  in
  check_same (tag "fit_p: model, walk log and gammas == sharded")
    (fit (Some (plan 2))) (fit None);
  if select then begin
    let sel shards =
      outcome (fun () ->
          let r =
            Rsm.Select.lars_p ~folds:4 ~mode ~pool ~on_singular ?shards
              (Randkit.Prng.create 5) ~max_lambda:l src f
          in
          ( r.Rsm.Select.lambda,
            Array.map Int64.bits_of_float r.Rsm.Select.curve,
            model_bits r.Rsm.Select.model ))
    in
    check_same (tag "Select.lars_p == sharded per-job selector")
      (sel (Some (plan 2))) (sel None)
  end

let prop_step_screen_bitwise seed =
  let rng = Randkit.Prng.create seed in
  let k = [| 1; 2; 5; 13 |].(Randkit.Prng.int rng 4) in
  (* M = 10 (the screen cannot hold: its eight nearest columns exceed a
     quarter of M) or M = 136. *)
  let dim = if Randkit.Prng.int rng 2 = 0 then 3 else 15 in
  let basis = Polybasis.Basis.quadratic dim in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng dim) in
  let streamed = P.streamed basis pts in
  let dense = P.dense (P.to_dense streamed) in
  let f = Test_sweep.sparse_response rng dense in
  let l = 1 + Randkit.Prng.int rng 6 in
  let nan =
    let g = Linalg.Mat.copy (P.to_dense streamed) in
    let j = Randkit.Prng.int rng (P.cols dense) in
    Linalg.Mat.set g (Randkit.Prng.int rng k) j Float.nan;
    (P.dense g, j)
  in
  let designs =
    [
      ("dense", dense, None, true);
      ("streamed", streamed, None, true);
      ("scaled copies + zero columns", with_copies_and_zeros dense f, None, true);
      ("NaN entry", fst nan, Some [ snd nan ], false);
    ]
  in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun (dname, src, must_keep, select) ->
              List.iter
                (fun (mode, on_singular) ->
                  let tag =
                    Printf.sprintf "%s, K=%d, M=%d, %s, %s, lambda=%d, %d domains"
                      dname k (P.cols src)
                      (match mode with Rsm.Lars.Lar -> "lar" | Lasso -> "lasso")
                      (match on_singular with
                      | `Stop -> "stop"
                      | `Fallback -> "fallback")
                      l domains
                  in
                  check_design ~pool ~tag ?must_keep
                    ~select:(select && k >= 8) ~mode ~on_singular src f l)
                [
                  (Rsm.Lars.Lar, `Stop);
                  (Rsm.Lars.Lasso, `Stop);
                  (Rsm.Lars.Lar, `Fallback);
                  (Rsm.Lars.Lasso, `Fallback);
                ])
            designs))
    [ 1; 2 ];
  true

(* The screen must actually run: on a wide design it answers most
   steps, and where the columns it must keep exceed a quarter of M it
   leaves every step to the full sweep. *)
let test_screen_holds_and_falls_back () =
  let rng = Randkit.Prng.create 11 in
  let run dim max_lambda =
    let basis = Polybasis.Basis.quadratic dim in
    let pts = Array.init 40 (fun _ -> Randkit.Gaussian.vector rng dim) in
    let src = P.streamed basis pts in
    let f = Test_sweep.sparse_response rng src in
    Parallel.Pool.with_pool ~domains:1 (fun pool ->
        let steps, held, carried =
          screened_walk ~pool ~mode:Rsm.Lars.Lar ~on_singular:`Stop src f
            ~max_lambda
        in
        (Array.length steps, held, carried))
  in
  let steps, held, carried = run 20 10 in
  check_bool
    (Printf.sprintf "M = 231: screen answers most steps (%d of %d)" held steps)
    true
    (2 * held > steps);
  check_bool
    (Printf.sprintf "M = 231: carried bounds answer some correlations (%d)"
       carried)
    true (carried > 0);
  (* At most four of ten columns active: the eight nearest the tie
     alone exceed a quarter of M. *)
  let steps, held, _ = run 3 3 in
  check_int "M = 10: screen never holds" 0 held;
  check_bool "M = 10: the walk steps" true (steps > 0)

(* The first correlation phase has no carried bounds yet: no screen,
   and nothing for supply_screened to answer from. *)
let test_screen_outside_dir () =
  let rng = Randkit.Prng.create 3 in
  let basis = Polybasis.Basis.quadratic 4 in
  let pts = Array.init 12 (fun _ -> Randkit.Gaussian.vector rng 4) in
  let src = P.streamed basis pts in
  let f = Test_sweep.sparse_response rng src in
  let e = Rsm.Lars.Engine.create src f ~max_lambda:3 in
  check_bool "first correlation phase: no screen" true
    (Rsm.Lars.Engine.screen e = None);
  check_raises_invalid "supply_screened in the first correlation phase" (fun () ->
      Rsm.Lars.Engine.supply_screened e)

(* The screen's rule on its own: whatever [thr] is, every column it
   rules out has both step candidates above [thr], computed from the
   column's real image a_j = (Gᵀu)_j/‖g_j‖ with the scan's arithmetic.
   The columns are ±u scaled by powers of two (|a_j| = ‖u‖ up to the
   rounding of the dot and the norms, so the bound is tight), u plus a
   perturbation of 1e-8, Gaussian, mixtures of u and noise, and a zero
   column; A is a random fraction of ‖u‖, as in a walk (A ≤ ‖u‖);
   correlations are uniform in (−C, C), at ±C, or NaN (always kept).
   Each column's own smallest candidate serves as [thr] in turn, so the
   rule is tried exactly at the values it must not rule out. *)
let prop_screen_sound seed =
  let rng = Randkit.Prng.create seed in
  let k = [| 1; 2; 5; 13; 40 |].(Randkit.Prng.int rng 5) in
  let m = 48 in
  let gauss n = Array.init n (fun _ -> Randkit.Gaussian.sample rng) in
  let u =
    Array.map (fun x -> x *. Float.ldexp 1. (Randkit.Prng.int rng 9 - 4)) (gauss k)
  in
  let cols =
    Array.init m (fun j ->
        match j mod 5 with
        | 0 ->
            let s = Float.ldexp 1. (Randkit.Prng.int rng 7 - 3) in
            let s = if Randkit.Prng.int rng 2 = 0 then s else -.s in
            Array.map (fun x -> s *. x) u
        | 1 -> gauss k
        | 2 ->
            let noise = gauss k in
            Array.mapi (fun i x -> x +. (1e-8 *. noise.(i))) u
        | 3 when j = 3 -> Array.make k 0.
        | _ ->
            let alpha = Randkit.Prng.float rng and noise = gauss k in
            Array.mapi (fun i x -> (alpha *. x) +. ((1. -. alpha) *. noise.(i))) u)
  in
  let src = P.dense (Linalg.Mat.init k m (fun i j -> cols.(j).(i))) in
  let norms = P.column_norms src in
  Array.iteri (fun j x -> if x <= 0. then norms.(j) <- 1.) norms;
  let gu = P.gram_tr src u in
  let u_norm = sqrt (Linalg.Vec.nrm2_sq u) in
  let cc = 0.5 +. Randkit.Prng.float rng in
  let a_a = u_norm *. (0.05 +. (0.95 *. Randkit.Prng.float rng)) in
  let c =
    Array.init m (fun _ ->
        match Randkit.Prng.int rng 8 with
        | 0 -> cc
        | 1 -> -.cc
        | 2 when Randkit.Prng.int rng 4 = 0 -> Float.nan
        | _ -> cc *. ((2. *. Randkit.Prng.float rng) -. 1.))
  in
  let active = Array.init m (fun _ -> Randkit.Prng.int rng 10 = 0) in
  let banned = Array.init m (fun j -> (not active.(j)) && Randkit.Prng.int rng 12 = 0) in
  let cand j =
    Rsm.Lars.gamma_scan_at ~norms ~c ~cc ~a_a [| j |] [| gu.(j) |]
  in
  let thrs = cc /. a_a :: List.init m cand in
  List.iter
    (fun thr ->
      if Float.is_finite thr then
        match
          Rsm.Lars.gamma_screen ~active ~banned
            ~hi:(Array.map Float.abs c) ~cc ~a_a ~u_norm ~thr
            ~top:[||] ~limit:m
        with
        | None -> Alcotest.fail "gamma_screen: limit M reached"
        | Some kept ->
            for j = 0 to m - 1 do
              if (not active.(j)) && (not banned.(j)) && not (Array.mem j kept)
              then begin
                if Float.is_nan c.(j) then
                  Alcotest.failf "K=%d: NaN column %d ruled out" k j;
                if not (cand j > thr) then
                  Alcotest.failf
                    "K=%d: column %d ruled out at thr %h with candidate %h \
                     (c=%h, a=%h, A=%h, |u|=%h)"
                    k j thr (cand j) c.(j) (gu.(j) /. norms.(j)) a_a u_norm
              end
            done)
    thrs;
  true

(* The design of a walk whose step is set by a column outside the 8
   nearest the tie (its columns, response and target column).
   Over orthonormal directions q_0 … q_39 of R^640, each the normalized
   indicator of its own 16 rows — so they stay orthogonal on a CV
   fold's rows too — with q_0, q_1 also the columns e1, e2,
   ê = (q_0 + q_1)/√2 and ě = (q_0 − q_1)/√2, the
   response is f = 10·q_0 + 9·q_1 + 48.6·q_2. Step 1 enters e1 and runs
   γ = 1 to e2's tie; step 2 moves along u = ê with C = 9 and A = 1/√2.
   There, 16 decoys 0.5·ě + s_i·q_2 + o_i·q_(4+i) have a_j = 0 and
   |c_j| ≈ 5.9–6.14, so candidates (C − |c_j|)/A ≈ 4.05–4.38; the
   target 0.95·ê − 0.3·q_2 + 0.087·q_3 has c_j ≈ −2.49 and a_j = 0.95,
   so its candidate (C + c_j)/(A + a_j) ≈ 3.93 sets the step, and 110
   fillers in the span of q_20 … q_39 correlate with nothing. thr is
   the nearest decoys' ≈ 4.05: the sound bound gap/(A + ‖u‖) ≈ 3.81
   keeps the target, the unsound gap/(2A) ≈ 4.61 would rule it out.
   Columns 3–10 hold eight decoys, 64–71 the other eight (the nearest
   the tie) and 72 the target, so a two-shard fleet holds the target
   and the nearest decoys in its second shard. The columns are the
   coordinates of a linear-only streamed basis. *)
let beyond_nearest () =
  let k = 640 and m = 128 and target = 72 in
  let rng = Randkit.Prng.create 29 in
  let q =
    Array.init 40 (fun d ->
        Array.init k (fun i -> if i / 16 = d then 0.25 else 0.))
  in
  let comb terms =
    Array.init k (fun i ->
        List.fold_left (fun acc (w, v) -> acc +. (w *. v.(i))) 0. terms)
  in
  let r2 = 1. /. sqrt 2. in
  let h = 48.6 in
  let decoy i =
    let s = (5.90 +. (0.016 *. float_of_int i)) /. h in
    comb
      [ (0.5 *. r2, q.(0)); (-0.5 *. r2, q.(1)); (s, q.(2));
        (sqrt (0.75 -. (s *. s)), q.(4 + i)) ]
  in
  let cols =
    Array.init m (fun j ->
        if j = 1 then q.(0)
        else if j = 2 then q.(1)
        else if j >= 3 && j <= 10 then decoy (j - 3)
        else if j >= 64 && j <= 71 then decoy (j - 56)
        else if j = target then
          comb
            [ (0.95 *. r2, q.(0)); (0.95 *. r2, q.(1)); (-0.3, q.(2));
              (sqrt (1. -. 0.9025 -. 0.09), q.(3)) ]
        else comb (List.init 20 (fun d -> (Randkit.Gaussian.sample rng, q.(20 + d)))))
  in
  let f = comb [ (10., q.(0)); (9., q.(1)); (h, q.(2)) ] in
  let src =
    P.streamed (Polybasis.Basis.linear_only m)
      (Array.init k (fun i -> Array.init m (fun j -> cols.(j).(i))))
  in
  (src, cols, f, target)

let test_step_set_beyond_nearest () =
  let src, cols, f, target = beyond_nearest () in
  let m = P.cols src in
  let max_lambda = 4 in
  let bits steps = Array.map step_bits steps in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      let walk ?shards () =
        Rsm.Lars.lambda_path_p ~pool ~on_singular:`Fallback ?shards src f
          ~max_lambda
      in
      let reference =
        reference_walk ~pool ~on_singular:`Fallback src f ~max_lambda
      in
      (* The case holds what it claims: e1 and e2 enter, the target
         comes third, and at step 2 at least eight inactive columns lie
         nearer the tie than it. *)
      check_bool "steps 1-3 enter e1, e2, the target" true
        (Array.length reference >= 3
        && Array.map (fun (s : Rsm.Lars.step) -> s.Rsm.Lars.added)
             (Array.sub reference 0 3)
           = [| Some 1; Some 2; Some target |]);
      let r =
        Linalg.Vec.sub f (Rsm.Model.predict_p reference.(0).Rsm.Lars.model src)
      in
      let c j =
        Float.abs (Linalg.Vec.dot cols.(j) r) /. sqrt (Linalg.Vec.nrm2_sq cols.(j))
      in
      let nearer =
        List.length
          (List.filter
             (fun j -> j > 2 && j <> target && c j > c target)
             (List.init m Fun.id))
      in
      check_bool
        (Printf.sprintf "%d inactive columns nearer the tie than the target"
           nearer)
        true (nearer >= 8);
      check_bool "unsharded == reference" true (bits (walk ()) = bits reference);
      check_bool "two domain shards == reference" true
        (bits (walk ~shards:(plan 2) ()) = bits reference);
      (* The fused lockstep: a streamed design's CV grid, whose refit is
         read from its all-rows walk. At λ ≥ 2 the refit model carries
         step 2's length. *)
      check_bool "the grid runs fused" true
        (Rsm.Select.fused_driver ~streamed:(P.is_streamed src) ~shards:1);
      let sel =
        Rsm.Select.lars_p ~pool ~on_singular:`Fallback (Randkit.Prng.create 3)
          ~max_lambda src f
      in
      let l = sel.Rsm.Select.lambda in
      check_bool (Printf.sprintf "CV picks lambda %d >= 2" l) true (l >= 2);
      let expected =
        Rsm.Lars.lambda_models src ~max_lambda:l
          (Array.sub reference 0
             (min (Array.length reference) (Rsm.Lars.step_budget l)))
      in
      check_bool "fused lockstep refit == reference model" true
        (model_bits sel.Rsm.Select.model = model_bits expected.(l - 1)))

let seed_gen = QCheck.int_range 1 10_000

let suite =
  ( "screen",
    [
      case "screen holds on wide designs, falls back on narrow ones"
        test_screen_holds_and_falls_back;
      case "no screen outside the direction phase" test_screen_outside_dir;
      case "a step set beyond the 8 nearest the tie == reference"
        test_step_set_beyond_nearest;
      qtest ~count:12 "prop_step_screen_bitwise: screened walks == full scan"
        seed_gen prop_step_screen_bitwise;
      qtest ~count:200 "prop_screen_sound: a ruled-out column cannot set the step"
        seed_gen prop_screen_sound;
    ] )
