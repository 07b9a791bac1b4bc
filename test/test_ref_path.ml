(* The LAR drivers against the textbook reference path (Ref_path).

   Contracts under test:
   - On random designs whose decisions keep a gap (every entry and
     every committed step at least 1e-6 relative from its nearest
     rival), Lars.path_p over a dense design, over two domain shards,
     over the streamed design and resumed from a walk log written
     halfway enter and drop the reference's columns in its order, with
     each step length and every coefficient within a relative 1e-7 of
     the reference's; the fused lockstep's refit lane (Select.lars_p on
     a streamed design) returns the reference's model at the chosen λ.
     LAR and lasso, a lasso walk through every drop: the column a drop
     removes does not enter at the next step.
   - A constructed walk in which a column's correlation is only bounded
     — carried over steps 2 to 4 — and then sets step 4's length and
     enters at step 5: every driver walks the reference's steps. A
     carried bound without its path-length term would rule the column
     out and commit another step.
   - Test_screen's walk whose step is set by a column outside the 8
     nearest the tie: every driver walks the reference's steps. A
     step-length screen with A in place of ‖u‖ would rule that column
     out. *)
open Test_util
module P = Polybasis.Design.Provider
module Ckpt = Rsm.Serialize.Checkpoint

let tol = 1e-7

let close a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* Coefficients agree to [tol] relative to the largest of them. *)
let coeffs_close (model : Rsm.Model.t) (ref_coeffs : float array) =
  let dense = Rsm.Model.to_dense model in
  let scale = Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 1. ref_coeffs in
  Array.length dense = Array.length ref_coeffs
  && Array.for_all2 (fun a b -> Float.abs (a -. b) <= tol *. scale) dense ref_coeffs

(* A driver's steps and step lengths against the reference's: same
   entries and drops in the same order, γ and coefficients close. *)
let check_walk what (reference : Ref_path.step array) (steps : Rsm.Lars.step array)
    gammas =
  let n = Array.length reference in
  if Array.length steps < n then
    Alcotest.failf "%s: %d steps, the reference walks %d" what (Array.length steps) n;
  Array.iteri
    (fun i (r : Ref_path.step) ->
      let s = steps.(i) in
      if s.Rsm.Lars.added <> r.Ref_path.added || s.Rsm.Lars.dropped <> r.Ref_path.dropped
      then Alcotest.failf "%s: step %d enters or drops another column" what (i + 1);
      if not (close gammas.(i) r.Ref_path.gamma) then
        Alcotest.failf "%s: step %d has gamma %.17g, the reference %.17g" what (i + 1)
          gammas.(i) r.Ref_path.gamma;
      if not (coeffs_close s.Rsm.Lars.model r.Ref_path.coeffs) then
        Alcotest.failf "%s: step %d's coefficients differ from the reference" what (i + 1))
    reference

(* [path_p] with every step's walk log kept: the steps, the step
   lengths of the final log, and the logs in order. *)
let logged_walk ?shards ?resume ~mode ~pool src f ~max_steps =
  let logs = ref [] in
  let log = walk_log ~every:1 ~save:(fun c -> logs := c :: !logs) ?resume () in
  let steps =
    Rsm.Lars.path_p ~mode ~pool ~on_singular:`Fallback ~log ?shards src f ~max_steps
  in
  let logs = List.rev !logs in
  let final = List.nth logs (List.length logs - 1) in
  (steps, Array.map (fun (e : Ckpt.event) -> e.Ckpt.gamma) final.Ckpt.events, logs)

(* Every driver against the reference on one design. [max_steps] stays
   below saturation; the CV check reads the refit at the chosen λ. *)
let check_drivers ~tag ~mode ~lasso ~pool streamed f ~max_steps =
  let dense = P.dense (P.to_dense streamed) in
  let reference = Ref_path.path ~lasso (P.to_dense streamed) f ~steps:max_steps in
  let walk what ?shards ?resume src =
    let steps, gammas, logs = logged_walk ?shards ?resume ~mode ~pool src f ~max_steps in
    check_walk (tag ^ ": " ^ what) reference steps gammas;
    logs
  in
  let logs = walk "dense" dense in
  ignore (walk "two domain shards" ~shards:(plan 2) dense);
  ignore (walk "streamed" streamed);
  (* Resumed from the log written halfway. *)
  let half = List.nth logs ((List.length logs - 1) / 2) in
  ignore (walk "resumed" ~resume:half dense);
  reference

(* The fused lockstep's refit lane: the model at the chosen λ is the
   reference's last model with at most λ bases. *)
let check_lockstep ~tag ~mode ~pool streamed f (reference : Ref_path.step array)
    ~max_lambda =
  check_bool (tag ^ ": the grid runs fused") true
    (Rsm.Select.fused_driver ~streamed:(P.is_streamed streamed) ~shards:1);
  let sel =
    Rsm.Select.lars_p ~mode ~pool ~on_singular:`Fallback (Randkit.Prng.create 3)
      ~max_lambda streamed f
  in
  let l = sel.Rsm.Select.lambda in
  let nnz (s : Ref_path.step) =
    Array.fold_left (fun acc c -> if c <> 0. then acc + 1 else acc) 0 s.Ref_path.coeffs
  in
  (* The λ-model is settled once a later step holds more than λ
     bases (a lasso walk may come back under λ: then it is not). *)
  if mode = Rsm.Lars.Lar && Array.exists (fun s -> nnz s > l) reference then begin
    let best = ref None in
    Array.iter (fun s -> if nnz s <= l then best := Some s) reference;
    match !best with
    | Some s ->
        check_bool
          (Printf.sprintf "%s: fused refit at lambda %d == reference" tag l)
          true
          (coeffs_close sel.Rsm.Select.model s.Ref_path.coeffs)
    | None -> ()
  end

(* One random case: K in [30, 60] rows over a quadratic basis in 8 to
   12 factors (M = 45 to 91), a sparse response, LAR or lasso, and a
   walk length below saturation. *)
let random_case seed =
  let rng = Randkit.Prng.create seed in
  let k = 30 + Randkit.Prng.int rng 31 in
  let dim = 8 + Randkit.Prng.int rng 5 in
  let basis = Polybasis.Basis.quadratic dim in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng dim) in
  let streamed = P.streamed basis pts in
  let f = Test_sweep.sparse_response rng streamed in
  let lasso = Randkit.Prng.int rng 2 = 0 in
  (k, streamed, f, lasso, min 14 (k / 3))

let prop_oracle seed =
  let k, streamed, f, lasso, max_steps = random_case seed in
  let mode = if lasso then Rsm.Lars.Lasso else Rsm.Lars.Lar in
  let reference = Ref_path.path ~lasso (P.to_dense streamed) f ~steps:max_steps in
  QCheck.assume
    (Array.length reference = max_steps
    && Array.for_all (fun (s : Ref_path.step) -> s.Ref_path.gap > 1e-6) reference);
  let tag =
    Printf.sprintf "seed %d, K=%d, M=%d, %s" seed k (P.cols streamed)
      (if lasso then "lasso" else "lar")
  in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      let reference = check_drivers ~tag ~mode ~lasso ~pool streamed f ~max_steps in
      check_lockstep ~tag ~mode ~pool streamed f reference ~max_lambda:(max_steps / 2));
  true

(* Seed 5269 (K = 35, M = 91, lasso): the reference drops column 26 at
   step 6 and, with 26 barred, enters no column at step 7. A walk that
   let 26 enter again at once would add it at step 7, where its
   correlation still ties C. *)
let test_drop_waits () =
  let _, streamed, f, lasso, max_steps = random_case 5269 in
  let reference = Ref_path.path ~lasso (P.to_dense streamed) f ~steps:max_steps in
  check_bool "a lasso case over 91 columns" true (lasso && P.cols streamed = 91);
  check_bool "step 6 drops column 26" true (reference.(5).Ref_path.dropped = Some 26);
  check_bool "step 7 enters none" true (reference.(6).Ref_path.added = None);
  check_bool "every driver walks the reference through the drop" true (prop_oracle 5269)

(* The OMP drivers against Ref_path.omp: same selections in the same
   order and every coefficient within [tol] of the reference's, the
   step [from + i] of the reference being the driver's step [i]. *)
let check_omp_walk what (reference : Ref_path.omp_step array) ~from
    (steps : Rsm.Omp.step array) =
  if Array.length steps <> Array.length reference - from then
    Alcotest.failf "%s: %d steps, the reference walks %d" what (Array.length steps)
      (Array.length reference - from);
  Array.iteri
    (fun i (s : Rsm.Omp.step) ->
      let r = reference.(from + i) in
      if s.Rsm.Omp.index <> r.Ref_path.index then
        Alcotest.failf "%s: step %d selects column %d, the reference %d" what
          (from + i + 1) s.Rsm.Omp.index r.Ref_path.index;
      if not (coeffs_close s.Rsm.Omp.model r.Ref_path.omp_coeffs) then
        Alcotest.failf "%s: step %d's coefficients differ from the reference" what
          (from + i + 1))
    steps

(* Omp.path_p over the dense design, the streamed design, two domain
   shards and resumed from the walk log written halfway, and the fused
   lockstep's refit lane (Select.omp_p on the streamed design) at the
   chosen λ, against the textbook OMP. The generator keeps a gap of
   1e-6 relative between each winner and the next column. *)
let prop_omp_oracle seed =
  let k, streamed, f, _, max_steps = random_case seed in
  let dense = P.dense (P.to_dense streamed) in
  let reference = Ref_path.omp (P.to_dense streamed) f ~steps:max_steps in
  QCheck.assume
    (Array.length reference = max_steps
    && Array.for_all (fun (s : Ref_path.omp_step) -> s.Ref_path.omp_gap > 1e-6) reference);
  let tag = Printf.sprintf "seed %d, K=%d, M=%d, omp" seed k (P.cols streamed) in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      let walk what ?shards ?log src =
        let steps = Rsm.Omp.path_p ~pool ?shards ?log src f ~max_lambda:max_steps in
        check_omp_walk (tag ^ ": " ^ what) reference ~from:0 steps
      in
      let logs = ref [] in
      walk "dense" ~log:(walk_log ~every:1 ~save:(fun c -> logs := c :: !logs) ()) dense;
      walk "streamed" streamed;
      walk "two domain shards" ~shards:(plan 2) dense;
      (* Resumed from the log written halfway: its leading step is the
         replayed state. *)
      let logs = Array.of_list (List.rev !logs) in
      let half = logs.((Array.length logs - 1) / 2) in
      let replayed = Array.length half.Ckpt.events in
      check_omp_walk (tag ^ ": resumed") reference ~from:(replayed - 1)
        (Rsm.Omp.path_p ~pool ~log:(walk_log ~resume:half ()) dense f
           ~max_lambda:max_steps);
      check_bool (tag ^ ": the grid runs fused") true
        (Rsm.Select.fused_driver ~streamed:true ~shards:1);
      let sel =
        Rsm.Select.omp_p ~pool (Randkit.Prng.create 3) ~max_lambda:(max_steps / 2)
          streamed f
      in
      let l = sel.Rsm.Select.lambda in
      check_bool
        (Printf.sprintf "%s: fused refit at lambda %d == reference" tag l)
        true
        (coeffs_close sel.Rsm.Select.model reference.(l - 1).Ref_path.omp_coeffs));
  true

(* Orthonormal q_0 … q_39 of R^640, each the normalized indicator of
   its own 16 rows. The response is
   f = 10·q_0 + 9.5·q_1 + 9·q_2 + 8.5·q_3 + 23·q_5 + 10·q_6, and the
   columns are q_0 … q_3 (columns 0–3, entering in that order at steps
   1–4, each step lowering the residual's q_0 … q_3 part by 0.5), the
   target t = −0.8·q_0 + 0.6·q_5 (column 4), sixteen decoys
   s_i·q_6 + √(1 − s_i²)·q_(7+i) with c_j = 10·s_i ∈ [7.62, 7.655]
   and a_j = 0 (columns 5–20), and fillers in the span of
   q_20 … q_39, which correlate with nothing.

   The target's correlation c_t = −0.8·r_0 + 13.8 rises from 5.8 to
   7.0 while steps 1–3 run (a_t < 0), so its exact value from step 1's
   full sweep plus the path walked since is what bounds it; that bound
   stays below C at steps 2–4, so the target is carried there. At step
   4 (C = 8.5, A = 1/2, a_t = −0.4) its candidate 1.5/0.9 ≈ 1.667 sets
   the step, below every decoy's (8.5 − c_j)/A ≥ 1.69, and it enters
   at step 5. A bound without the path term stays at 5.8: the screen's
   gap/(A + ‖u‖) = 2.7/1.5 = 1.8 would exceed the decoys' threshold
   and rule the target out. *)
let test_carried_sets_step () =
  let k = 640 and m = 128 and target = 4 in
  let rng = Randkit.Prng.create 31 in
  let q = Array.init 40 (fun d -> Array.init k (fun i -> if i / 16 = d then 0.25 else 0.)) in
  let comb terms =
    Array.init k (fun i -> List.fold_left (fun acc (w, v) -> acc +. (w *. v.(i))) 0. terms)
  in
  let cols =
    Array.init m (fun j ->
        if j < 4 then q.(j)
        else if j = target then comb [ (-0.8, q.(0)); (0.6, q.(5)) ]
        else if j <= 20 then
          let s = 0.762 +. (0.00023 *. float_of_int (j - 5)) in
          comb [ (s, q.(6)); (sqrt (1. -. (s *. s)), q.(7 + j - 5)) ]
        else comb (List.init 20 (fun d -> (Randkit.Gaussian.sample rng, q.(20 + d)))))
  in
  let f = comb [ (10., q.(0)); (9.5, q.(1)); (9., q.(2)); (8.5, q.(3)); (23., q.(5)); (10., q.(6)) ] in
  let streamed =
    P.streamed (Polybasis.Basis.linear_only m)
      (Array.init k (fun i -> Array.init m (fun j -> cols.(j).(i))))
  in
  let max_steps = 6 in
  let reference = Ref_path.path (P.to_dense streamed) f ~steps:max_steps in
  (* The case holds what it claims: columns 0-3 enter at steps 1-4,
     the target at step 5, and its step-1 correlation plus the path
     walked since stays below C through step 4's correlation phase. *)
  check_bool "steps 1-5 enter q0, q1, q2, q3, the target" true
    (Array.map (fun (s : Ref_path.step) -> s.Ref_path.added) (Array.sub reference 0 5)
    = [| Some 0; Some 1; Some 2; Some 3; Some target |]);
  let c_t0 = Linalg.Vec.dot cols.(target) f in
  let path = ref 0. and big_c = ref 10. in
  Array.iteri
    (fun i (s : Ref_path.step) ->
      if i < 3 then begin
        (* C after step i + 1: the active columns' common correlation. *)
        let a_a = 1. /. sqrt (float_of_int (i + 1)) in
        path := !path +. s.Ref_path.gamma;
        big_c := !big_c -. (s.Ref_path.gamma *. a_a);
        check_bool
          (Printf.sprintf "step %d: the carried bound %.3f stays below C = %.3f" (i + 2)
             (c_t0 +. !path) !big_c)
          true
          (c_t0 +. !path < !big_c)
      end)
    reference;
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      ignore
        (check_drivers ~tag:"carried target" ~mode:Rsm.Lars.Lar ~lasso:false ~pool streamed
           f ~max_steps);
      check_bool "unscreened reference walk == textbook" true
        (let steps =
           reference_walk ~pool ~on_singular:`Fallback streamed f ~max_lambda:max_steps
         in
         Array.length steps >= 5
         && Array.for_all2
              (fun (s : Rsm.Lars.step) (r : Ref_path.step) -> s.Rsm.Lars.added = r.Ref_path.added)
              (Array.sub steps 0 5) (Array.sub reference 0 5));
      check_lockstep ~tag:"carried target" ~mode:Rsm.Lars.Lar ~pool streamed f reference
        ~max_lambda:5)

(* Test_screen's walk whose second step is set by a column outside the
   8 nearest the tie, which a screen with A in place of ‖u‖ rules
   out. *)
let test_beyond_nearest () =
  let streamed, _, f, target = Test_screen.beyond_nearest () in
  let max_steps = 4 in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      let reference =
        check_drivers ~tag:"beyond the nearest" ~mode:Rsm.Lars.Lar ~lasso:false ~pool
          streamed f ~max_steps
      in
      check_bool "the target enters third" true
        (reference.(2).Ref_path.added = Some target);
      check_lockstep ~tag:"beyond the nearest" ~mode:Rsm.Lars.Lar ~pool streamed f
        reference ~max_lambda:3)

let seed_gen = QCheck.int_range 1 10_000

let suite =
  ( "ref_path",
    [
      case "a carried column sets the step and enters == textbook"
        test_carried_sets_step;
      case "a step set beyond the 8 nearest the tie == textbook"
        test_beyond_nearest;
      qtest ~count:100 "prop_oracle: every LAR driver == the textbook path" seed_gen
        prop_oracle;
      case "a lasso drop's column waits a step == textbook" test_drop_waits;
      qtest ~count:100 "prop_omp_oracle: every OMP driver == Algorithm 1" seed_gen
        prop_omp_oracle;
    ] )
