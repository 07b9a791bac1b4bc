(* The fault-tolerant pipeline: injection determinism, retry accounting,
   the MAD screen, the numerical fallback ladder, checkpoint/resume and
   the structured error surface. *)
open Test_util
module Simulator = Circuit.Simulator

let pool_counts = [ 1; 2; 4 ]

let small_sim () =
  let amp = Circuit.Opamp.build ~n_parasitics:15 () in
  (Circuit.Opamp.simulator amp Circuit.Opamp.Offset, Circuit.Opamp.dim amp)

let faults_10pct =
  Simulator.fault_plan ~rate:0.10 ~outlier_scale:500. ()

(* --- fault injection and retry ------------------------------------- *)

let test_no_faults_matches_run () =
  let sim, _ = small_sim () in
  let d = Simulator.run sim (Randkit.Prng.create 42) ~k:60 in
  let d', report =
    Simulator.run_robust ~faults:Simulator.no_faults
      sim (Randkit.Prng.create 42) ~k:60
  in
  check_bool "points bitwise" true (d.Simulator.points = d'.Simulator.points);
  check_bool "values bitwise" true (d.Simulator.values = d'.Simulator.values);
  check_int "all delivered" 60 report.Simulator.delivered;
  check_int "no faults" 0 report.Simulator.faults_injected;
  check_int "no retries" 0 report.Simulator.retries

let test_robust_run_pool_parity () =
  (* The faulty run must be bitwise identical at every domain count and
     without a pool: fault decisions are split per sample up front. *)
  let sim, _ = small_sim () in
  let sequential =
    Simulator.run_robust ~faults:faults_10pct
      sim (Randkit.Prng.create 7) ~k:80
  in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          let d, r =
            Simulator.run_robust ~pool ~faults:faults_10pct
              sim (Randkit.Prng.create 7) ~k:80
          in
          let d0, r0 = sequential in
          check_bool
            (Printf.sprintf "points bitwise (domains=%d)" domains)
            true (d.Simulator.points = d0.Simulator.points);
          check_bool
            (Printf.sprintf "values bitwise (domains=%d)" domains)
            true (d.Simulator.values = d0.Simulator.values);
          check_bool
            (Printf.sprintf "report identical (domains=%d)" domains)
            true (r = r0)))
    pool_counts

let test_retry_recovers_transients () =
  (* A transient-only fault mix: every fault is retryable, so with
     enough attempts everything is delivered; with none, the abandoned
     samples are recorded rather than raised. *)
  let sim, _ = small_sim () in
  let faults =
    Simulator.fault_plan ~rate:0.3
      ~mix:[| (Simulator.Transient, 1.) |] ()
  in
  let _, with_retry =
    Simulator.run_robust ~faults
      ~retry:(Simulator.retry_policy ~max_attempts:8 ())
      sim (Randkit.Prng.create 11) ~k:100
  in
  check_int "retries recover everything" 100 with_retry.Simulator.delivered;
  check_bool "faults were actually injected" true
    (with_retry.Simulator.faults_injected > 0);
  check_bool "retries were charged" true (with_retry.Simulator.retries > 0);
  check_bool "backoff accounted" true
    (with_retry.Simulator.accounted_extra_seconds > 0.);
  let d, no_retry =
    Simulator.run_robust ~faults ~retry:Simulator.no_retry
      sim (Randkit.Prng.create 11) ~k:100
  in
  let abandoned = Array.length no_retry.Simulator.failed in
  check_bool "some samples abandoned without retry" true (abandoned > 0);
  check_int "delivered + failed = requested" 100
    (no_retry.Simulator.delivered + abandoned);
  check_int "dataset matches the report" no_retry.Simulator.delivered
    (Simulator.dataset_size d)

let test_fault_accounting_consistent () =
  let sim, _ = small_sim () in
  let _, r =
    Simulator.run_robust ~faults:faults_10pct
      ~retry:(Simulator.retry_policy ())
      sim (Randkit.Prng.create 3) ~k:200
  in
  check_int "fault modes sum to the total"
    r.Simulator.faults_injected
    (r.Simulator.nonfinite_faults + r.Simulator.outliers_injected
    + r.Simulator.transient_faults + r.Simulator.hang_faults);
  check_bool "summary is one line" true
    (not (String.contains (Simulator.report_summary r) '\n'))

let test_fault_plan_validation () =
  check_raises_invalid "rate 1.0" (fun () ->
      Simulator.fault_plan ~rate:1.0 ());
  check_raises_invalid "negative rate" (fun () ->
      Simulator.fault_plan ~rate:(-0.1) ());
  check_raises_invalid "empty mix" (fun () ->
      Simulator.fault_plan ~mix:[||] ());
  check_raises_invalid "zero attempts" (fun () ->
      Simulator.retry_policy ~max_attempts:0 ())

(* --- sample screening ---------------------------------------------- *)

let screen_dataset values =
  {
    Simulator.points = Array.map (fun _ -> [| 0.5; -0.5 |]) values;
    values;
  }

let screen_ok ?threshold d =
  match Robust.Screen.screen ?threshold d with
  | Ok r -> r
  | Error e -> Alcotest.fail ("screen failed: " ^ Robust.Error.to_string e)

let test_screen_drops_non_finite () =
  let d = screen_dataset [| 1.0; Float.nan; 2.0; Float.infinity; 1.5 |] in
  d.Simulator.points.(2) <- [| Float.nan; 0. |];
  let kept, report = screen_ok d in
  check_int "kept count" 2 (Simulator.dataset_size kept);
  check_bool "kept indices" true (report.Robust.Screen.kept = [| 0; 4 |]);
  let reasons = Array.map snd report.Robust.Screen.dropped in
  check_bool "NaN value dropped" true
    (Array.exists (( = ) Robust.Screen.Non_finite_value) reasons);
  check_bool "NaN point dropped" true
    (Array.exists (( = ) Robust.Screen.Non_finite_point) reasons);
  check_int "three dropped" 3 (Array.length report.Robust.Screen.dropped)

let test_screen_drops_outlier () =
  (* A tight bulk plus one absurd value: the robust z-score must flag
     exactly the absurd one, and the recorded z must cross the cut. *)
  let bulk = Array.init 40 (fun i -> float_of_int (i mod 7) /. 10.) in
  let values = Array.append bulk [| 1e6 |] in
  let kept, report = screen_ok (screen_dataset values) in
  check_int "one dropped" 1 (Array.length report.Robust.Screen.dropped);
  let idx, reason = report.Robust.Screen.dropped.(0) in
  check_int "the outlier row" 40 idx;
  (match reason with
  | Robust.Screen.Outlier z ->
      check_bool "z beyond threshold" true
        (z > report.Robust.Screen.threshold)
  | _ -> Alcotest.fail "expected an Outlier reason");
  check_int "bulk kept" 40 (Simulator.dataset_size kept);
  check_bool "summary mentions the drop" true
    (String.length (Robust.Screen.report_summary report) > 0)

let test_screen_zero_spread_guard () =
  (* Over half the responses identical -> MAD = 0: no finite row can be
     z-scored, so the outlier screen must stand down rather than drop
     everything that differs from the median. *)
  let values = Array.append (Array.make 30 5.0) [| 999.0; Float.nan |] in
  let kept, report = screen_ok (screen_dataset values) in
  check_float ~eps:0. "spread is zero" 0. report.Robust.Screen.spread;
  check_int "only the NaN dropped" 1 (Array.length report.Robust.Screen.dropped);
  check_int "the finite oddball survives" 31 (Simulator.dataset_size kept)

let test_screen_validation () =
  check_raises_invalid "zero threshold" (fun () ->
      Robust.Screen.screen ~threshold:0. (screen_dataset [| 1. |]));
  check_raises_invalid "empty dataset" (fun () ->
      Robust.Screen.screen (screen_dataset [||]))

(* --- numerical fallback ladder ------------------------------------- *)

let test_refit_direct_on_clean_cols () =
  let c0 = [| 1.; 0.; 0.; 1. |] and c1 = [| 0.; 1.; 1.; 0. |] in
  let f = [| 2.; -3.; -3.; 2. |] in
  let x, rung = Rsm.Refit.solve_cols [| c0; c1 |] f in
  check_bool "clean columns stay on the fast path" true
    (rung = Rsm.Refit.Direct);
  check_float "x0" 2. x.(0);
  check_float "x1" (-3.) x.(1);
  check_bool "no note for Direct" true (Rsm.Refit.note rung = None)

let test_refit_ladder_on_duplicate_cols () =
  (* An exactly duplicated column makes the Gram matrix singular:
     Cholesky must fail, and whichever rung answers must still produce
     a least-squares-quality residual. *)
  let rng = Randkit.Prng.create 5 in
  let c0 = Randkit.Gaussian.vector rng 12 in
  let f = Array.map (fun v -> 3. *. v) c0 in
  let x, rung = Rsm.Refit.solve_cols [| c0; Array.copy c0; |] f in
  check_bool "a fallback rung fired" true (rung <> Rsm.Refit.Direct);
  (match Rsm.Refit.note rung with
  | Some note -> check_bool "note non-empty" true (String.length note > 0)
  | None -> Alcotest.fail "fallback must carry a note");
  let residual =
    Array.mapi (fun i fi -> fi -. ((x.(0) +. x.(1)) *. c0.(i))) f
  in
  check_bool "residual still tiny" true (Linalg.Vec.nrm2 residual < 1e-6)

let duplicate_column_problem () =
  (* Two identical columns and a response that is not exhausted by one
     of them: after the first selection the other duplicate is the only
     column left, so OMP is forced into the singular Gram matrix. *)
  let rng = Randkit.Prng.create 17 in
  let c = Randkit.Gaussian.vector rng 20 in
  let f =
    Array.mapi (fun i v -> (3. *. v) +. (0.05 *. float_of_int (i mod 3))) c
  in
  (Linalg.Mat.init 20 2 (fun i _ -> c.(i)), f)

let test_omp_on_singular_stop_vs_fallback () =
  (* [tol = 0.] disables the relative-correlation stop so the sweep is
     forced to hand the duplicate to the Gram update. *)
  let g, f = duplicate_column_problem () in
  let stop_path = Rsm.Omp.path ~tol:0. g f ~max_lambda:2 in
  check_int "`Stop truncates the path at the singular step" 1
    (Array.length stop_path);
  let fb_path = Rsm.Omp.path ~tol:0. ~on_singular:`Fallback g f ~max_lambda:2 in
  check_int "`Fallback completes the path" 2 (Array.length fb_path);
  let m = fb_path.(1).Rsm.Omp.model in
  check_bool "degradation recorded in the model notes" true
    (Array.length (Rsm.Model.notes m) > 0);
  check_bool "degraded fit is still finite" true
    (Array.for_all Float.is_finite m.Rsm.Model.coeffs)

let test_lars_on_singular_bans_column () =
  let g, f = duplicate_column_problem () in
  (* Both policies must terminate; `Fallback additionally records the
     ban in the final model's notes. *)
  let r_stop = Rsm.Lars.fit ~tol:0. g f ~lambda:2 in
  check_bool "`Stop returns a finite model" true
    (Array.for_all Float.is_finite r_stop.Rsm.Model.coeffs);
  let r = Rsm.Lars.fit ~tol:0. ~on_singular:`Fallback g f ~lambda:2 in
  check_bool "`Fallback returns a finite model" true
    (Array.for_all Float.is_finite r.Rsm.Model.coeffs);
  check_bool "ban recorded in notes" true
    (Array.exists
       (fun n ->
         (* The banned-column note names the lars solver. *)
         String.length n >= 5 && String.sub n 0 5 = "lars:")
       (Rsm.Model.notes r))

(* --- checkpoint / resume ------------------------------------------- *)

let test_checkpoint_string_roundtrip () =
  let c =
    {
      Rsm.Serialize.Checkpoint.solver = "omp";
      k = 120;
      m = 300;
      scale = 17.25;
      support = [| 4; 0; 299 |];
    }
  in
  (match Rsm.Serialize.Checkpoint.of_string
           (Rsm.Serialize.Checkpoint.to_string c)
   with
  | Ok c' -> check_bool "record round-trips" true (c = c')
  | Error e -> Alcotest.failf "roundtrip: %s" e);
  (match Rsm.Serialize.Checkpoint.of_string "not-a-checkpoint" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage header must not parse");
  let tmp = Filename.temp_file "ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Rsm.Serialize.Checkpoint.save tmp c;
      match Rsm.Serialize.Checkpoint.load tmp with
      | Ok c' -> check_bool "file round-trips" true (c = c')
      | Error e -> Alcotest.failf "load: %s" e)

let sparse_problem ~k ~m seed =
  let rng = Randkit.Prng.create seed in
  let g = Randkit.Gaussian.matrix rng k m in
  let f =
    Array.init k (fun i ->
        (2. *. Linalg.Mat.get g i 1)
        -. (1.5 *. Linalg.Mat.get g i (m / 2))
        +. Linalg.Mat.get g i (m - 1)
        +. (0.05 *. Randkit.Gaussian.sample rng))
  in
  (Polybasis.Design.Provider.dense g, f)

let resume_bitwise ~fit_p ~interrupted_path ~lambda ~kill_at src f =
  let full = fit_p ?resume:None src f ~lambda in
  let last = ref None in
  interrupted_path ~on_checkpoint:(fun c -> last := Some c) ~max_lambda:kill_at
    src f;
  match !last with
  | None -> Alcotest.fail "no checkpoint was emitted"
  | Some ckpt ->
      let resumed = fit_p ?resume:(Some ckpt) src f ~lambda in
      check_bool "resumed model is bitwise identical" true
        (Rsm.Serialize.to_string resumed = Rsm.Serialize.to_string full)

let test_omp_resume_bitwise () =
  let src, f = sparse_problem ~k:40 ~m:25 901 in
  resume_bitwise
    ~fit_p:(fun ?resume src f ~lambda -> Rsm.Omp.fit_p ?resume src f ~lambda)
    ~interrupted_path:(fun ~on_checkpoint ~max_lambda src f ->
      ignore (Rsm.Omp.path_p ~checkpoint_every:2 ~on_checkpoint src f ~max_lambda))
    ~lambda:6 ~kill_at:4 src f

let test_star_resume_bitwise () =
  let src, f = sparse_problem ~k:40 ~m:25 902 in
  resume_bitwise
    ~fit_p:(fun ?resume src f ~lambda -> Rsm.Star.fit_p ?resume src f ~lambda)
    ~interrupted_path:(fun ~on_checkpoint ~max_lambda src f ->
      ignore
        (Rsm.Star.path_p ~checkpoint_every:2 ~on_checkpoint src f ~max_lambda))
    ~lambda:6 ~kill_at:4 src f

let check_raises_message msg expected f =
  match f () with
  | exception Invalid_argument s when s = expected -> ()
  | exception Invalid_argument s ->
      Alcotest.failf "%s: message %S, expected %S" msg s expected
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let test_resume_validation () =
  let src, f = sparse_problem ~k:40 ~m:25 903 in
  let ckpt solver support =
    { Rsm.Serialize.Checkpoint.solver; k = 40; m = 25; scale = 1.; support }
  in
  check_raises_invalid "wrong solver tag" (fun () ->
      Rsm.Omp.fit_p ~resume:(ckpt "star" [| 0 |]) src f ~lambda:4);
  check_raises_invalid "wrong shape" (fun () ->
      Rsm.Omp.fit_p
        ~resume:{ (ckpt "omp" [| 0 |]) with Rsm.Serialize.Checkpoint.m = 99 }
        src f ~lambda:4);
  check_raises_invalid "duplicate support" (fun () ->
      Rsm.Omp.fit_p ~resume:(ckpt "omp" [| 3; 3 |]) src f ~lambda:4);
  check_raises_invalid "support out of range" (fun () ->
      Rsm.Omp.fit_p ~resume:(ckpt "omp" [| 25 |]) src f ~lambda:4);
  (* STAR resumes through the same driver; both solvers also cap the
     support length and name the out-of-range error. *)
  let omp support =
    Rsm.Omp.fit_p ~resume:(ckpt "omp" support) src f ~lambda:4
  in
  let star support =
    Rsm.Star.fit_p ~resume:(ckpt "star" support) src f ~lambda:4
  in
  check_raises_invalid "star: wrong solver tag" (fun () ->
      Rsm.Star.fit_p ~resume:(ckpt "omp" [| 0 |]) src f ~lambda:4);
  check_raises_invalid "star: wrong shape" (fun () ->
      Rsm.Star.fit_p
        ~resume:{ (ckpt "star" [| 0 |]) with Rsm.Serialize.Checkpoint.m = 99 }
        src f ~lambda:4);
  check_raises_invalid "star: duplicate support" (fun () -> star [| 3; 3 |]);
  check_raises_invalid "star: support out of range" (fun () -> star [| 25 |]);
  List.iter
    (fun (solver, fit) ->
      check_raises_message (solver ^ ": support longer than max_lambda")
        (solver ^ ".path: checkpoint support exceeds max_lambda")
        (fun () -> fit [| 0; 1; 2; 3; 4 |]);
      List.iter
        (fun j ->
          check_raises_message
            (Printf.sprintf "%s: support index %d out of range" solver j)
            (solver ^ ".path: checkpoint support index out of range")
            (fun () -> fit [| 0; j |]))
        [ 25; -1 ])
    [ ("Omp", omp); ("Star", star) ]

let test_terminal_checkpoint_emitted () =
  (* A path whose length is not a multiple of the cadence must still
     leave a checkpoint of its completed self; and a callback with the
     cadence off gets exactly the terminal one. *)
  let src, f = sparse_problem ~k:40 ~m:25 908 in
  let terminal name path_with =
    let supports = ref [] in
    path_with ~on_checkpoint:(fun (c : Rsm.Serialize.Checkpoint.t) ->
        supports := Array.length c.Rsm.Serialize.Checkpoint.support :: !supports);
    match !supports with
    | last :: _ -> check_int (name ^ ": terminal checkpoint is full") 5 last
    | [] -> Alcotest.fail (name ^ ": no checkpoint emitted")
  in
  terminal "omp" (fun ~on_checkpoint ->
      ignore
        (Rsm.Omp.path_p ~checkpoint_every:2 ~on_checkpoint src f ~max_lambda:5));
  terminal "star" (fun ~on_checkpoint ->
      ignore
        (Rsm.Star.path_p ~checkpoint_every:2 ~on_checkpoint src f
           ~max_lambda:5));
  let count = ref 0 in
  ignore (Rsm.Omp.path_p ~on_checkpoint:(fun _ -> incr count) src f ~max_lambda:5);
  check_int "cadence off: exactly the terminal checkpoint" 1 !count

(* --- LARS checkpoint / resume -------------------------------------- *)

module LarsCkpt = Rsm.Serialize.Checkpoint.Lars
module CvCkpt = Rsm.Serialize.Checkpoint.Cv

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let near_tie_ban_problem seed =
  (* Column 1 duplicates column 0 exactly; column 2 carries real signal.
     The duplicate ties with its twin at every enter scan, so under
     `Fallback it is banned the moment it tries to enter — with the
     true entrant already sitting at the correlation tie. *)
  let k = 20 in
  let rng = Randkit.Prng.create seed in
  let c0 = Randkit.Gaussian.vector rng k in
  let c2 = Randkit.Gaussian.vector rng k in
  let g =
    Linalg.Mat.init k 3 (fun i j ->
        match j with 0 | 1 -> c0.(i) | _ -> c2.(i))
  in
  let f = Array.init k (fun i -> (3. *. c0.(i)) +. c2.(i)) in
  (g, f)

let test_lars_ban_zero_step_regression () =
  (* Regression for the two banned-column bugs: the γ scan letting a
     banned column bound the step, and the ban iteration advancing with
     an unbounded γ (the true entrant already ties, so its candidate ~0
     is rejected by the scan).  Either bug leaves the walk
     non-equicorrelated: it oscillates forever instead of reaching the
     LS point of the planted support {0, 2}. *)
  List.iter
    (fun seed ->
      let tag msg = Printf.sprintf "seed %d: %s" seed msg in
      let g, f = near_tie_ban_problem seed in
      let steps =
        Rsm.Lars.path ~tol:0. ~on_singular:`Fallback g f ~max_steps:8
      in
      let last = steps.(Array.length steps - 1) in
      check_bool (tag "path reaches the LS point") true
        (last.Rsm.Lars.max_corr < 1e-8);
      check_bool (tag "support is the planted {0,2}") true
        (last.Rsm.Lars.model.Rsm.Model.support = [| 0; 2 |]);
      check_bool (tag "ban recorded in the notes") true
        (Array.exists
           (( = ) "lars: banned dependent column 1")
           (Rsm.Model.notes last.Rsm.Lars.model));
      (* The ban iteration itself must not move the coefficients. *)
      let ban_idx = ref (-1) in
      Array.iteri
        (fun i (s : Rsm.Lars.step) ->
          if
            !ban_idx < 0
            && Array.length (Rsm.Model.notes s.Rsm.Lars.model) > 0
          then ban_idx := i)
        steps;
      check_bool (tag "ban happens after the first entry") true (!ban_idx > 0);
      check_vec ~eps:0. (tag "ban step is zero-length")
        (Rsm.Model.to_dense steps.(!ban_idx - 1).Rsm.Lars.model)
        (Rsm.Model.to_dense steps.(!ban_idx).Rsm.Lars.model))
    [ 4; 5 ]

let test_lars_checkpoint_roundtrip () =
  (* A consistent little walk: add 3, ban 2 (zero-length step), add 0,
     then a lasso drop of 3 — final active {0}. *)
  let c =
    {
      LarsCkpt.mode = "lasso";
      k = 20;
      m = 6;
      scale = 4.5;
      active = [| 0 |];
      signs = [| -1. |];
      banned = [| 2 |];
      events =
        [|
          { LarsCkpt.added = 3; banned = -1; dropped = -1; gamma = 0.25 };
          { LarsCkpt.added = -1; banned = 2; dropped = -1; gamma = 0. };
          { LarsCkpt.added = 0; banned = -1; dropped = -1; gamma = 0.125 };
          { LarsCkpt.added = -1; banned = -1; dropped = 3; gamma = 1e-3 };
        |];
      notes = [| "lars: banned dependent column 2" |];
      mu_digest = LarsCkpt.digest [| 0.5; -1.25 |];
      beta_digest = LarsCkpt.digest [| 0.; 3.5 |];
    }
  in
  (match LarsCkpt.of_string (LarsCkpt.to_string c) with
  | Ok c' -> check_bool "lars record round-trips" true (c = c')
  | Error e -> Alcotest.failf "lars roundtrip: %s" e);
  (match LarsCkpt.of_string "not-a-checkpoint" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse");
  (match
     LarsCkpt.of_string (Rsm.Serialize.Checkpoint.to_string
        { Rsm.Serialize.Checkpoint.solver = "omp"; k = 20; m = 6; scale = 1.;
          support = [| 0 |] })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a v1 checkpoint must not parse as a LARS log");
  let tmp = Filename.temp_file "lars-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      LarsCkpt.save tmp c;
      match LarsCkpt.load tmp with
      | Ok c' -> check_bool "lars file round-trips" true (c = c')
      | Error e -> Alcotest.failf "lars load: %s" e)

let test_cv_checkpoint_roundtrip () =
  check_bool "fold file naming" true
    (CvCkpt.fold_file "/tmp/x/cv" 3 = "/tmp/x/cv.fold3");
  let c =
    {
      CvCkpt.fold = 1;
      folds = 4;
      n = 80;
      max_lambda = 6;
      plan_digest = CvCkpt.plan_digest [| 0; 1; 2; 3; 0; 1 |];
      curve = [| 0.5; 0.25; 0.125; 0.1; 0.25; 0.5 |];
    }
  in
  (match CvCkpt.of_string (CvCkpt.to_string c) with
  | Ok c' -> check_bool "cv record round-trips" true (c = c')
  | Error e -> Alcotest.failf "cv roundtrip: %s" e);
  (match CvCkpt.of_string "rsm-cv-ckpt 9\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown cv version must not parse");
  let tmp = Filename.temp_file "cv-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      CvCkpt.save tmp c;
      match CvCkpt.load tmp with
      | Ok c' -> check_bool "cv file round-trips" true (c = c')
      | Error e -> Alcotest.failf "cv load: %s" e)

(* Hex floats + the serialized model make the comparison bitwise. *)
let lars_steps_fingerprint steps =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun (s : Rsm.Lars.step) ->
            Printf.sprintf "%d %d %h %s"
              (match s.Rsm.Lars.added with Some j -> j | None -> -1)
              (match s.Rsm.Lars.dropped with Some j -> j | None -> -1)
              s.Rsm.Lars.max_corr
              (Rsm.Serialize.to_string s.Rsm.Lars.model))
          steps))

let test_lars_resume_bitwise () =
  let src, f = sparse_problem ~k:40 ~m:25 904 in
  List.iter
    (fun mode ->
      let full =
        Rsm.Lars.path_p ~mode ~on_singular:`Fallback src f ~max_steps:8
      in
      let ckpts = ref [] in
      ignore
        (Rsm.Lars.path_p ~mode ~on_singular:`Fallback ~checkpoint_every:2
           ~on_checkpoint:(fun c -> ckpts := c :: !ckpts)
           src f ~max_steps:8);
      (* "Kill" after the first cadence checkpoint (two events in). *)
      let kill = List.hd (List.rev !ckpts) in
      check_int "kill point is mid-path" 2 (Array.length kill.LarsCkpt.events);
      let resumed =
        Rsm.Lars.path_p ~mode ~on_singular:`Fallback ~resume:kill src f
          ~max_steps:8
      in
      check_bool "resumed path is bitwise identical" true
        (lars_steps_fingerprint resumed = lars_steps_fingerprint full);
      let m_full =
        Rsm.Lars.fit_p ~mode ~on_singular:`Fallback src f ~lambda:3
      in
      let m_res =
        Rsm.Lars.fit_p ~mode ~on_singular:`Fallback ~resume:kill src f
          ~lambda:3
      in
      check_bool "resumed fit is bitwise identical" true
        (Rsm.Serialize.to_string m_res = Rsm.Serialize.to_string m_full))
    [ Rsm.Lars.Lar; Rsm.Lars.Lasso ]

let test_lars_resume_with_ban_event () =
  (* The event log must replay a ban — a zero-length step — exactly. *)
  let g, f = near_tie_ban_problem 4 in
  let src = Polybasis.Design.Provider.dense g in
  let full =
    Rsm.Lars.path_p ~tol:0. ~on_singular:`Fallback src f ~max_steps:6
  in
  let ckpts = ref [] in
  ignore
    (Rsm.Lars.path_p ~tol:0. ~on_singular:`Fallback ~checkpoint_every:1
       ~on_checkpoint:(fun c -> ckpts := c :: !ckpts)
       src f ~max_steps:6);
  let ordered = List.rev !ckpts in
  (* The second checkpoint sits right after the ban's zero-length step. *)
  let kill = List.nth ordered 1 in
  check_bool "checkpoint carries the ban" true
    (kill.LarsCkpt.banned = [| 1 |]
    && Array.exists (fun (e : LarsCkpt.event) -> e.LarsCkpt.banned = 1)
         kill.LarsCkpt.events);
  let resumed =
    Rsm.Lars.path_p ~tol:0. ~on_singular:`Fallback ~resume:kill src f
      ~max_steps:6
  in
  check_bool "path with a replayed ban is bitwise identical" true
    (lars_steps_fingerprint resumed = lars_steps_fingerprint full)

let test_lars_resume_validation () =
  let src, f = sparse_problem ~k:40 ~m:25 905 in
  let ck = ref None in
  ignore
    (Rsm.Lars.path_p ~on_singular:`Fallback ~checkpoint_every:2
       ~on_checkpoint:(fun c -> ck := Some c)
       src f ~max_steps:4);
  let ck = Option.get !ck in
  check_raises_invalid "wrong mode" (fun () ->
      Rsm.Lars.path_p ~mode:Rsm.Lars.Lasso ~on_singular:`Fallback ~resume:ck
        src f ~max_steps:8);
  check_raises_invalid "wrong shape" (fun () ->
      Rsm.Lars.path_p ~on_singular:`Fallback
        ~resume:{ ck with LarsCkpt.m = 99 }
        src f ~max_steps:8);
  check_raises_invalid "different data" (fun () ->
      let src2, _ = sparse_problem ~k:40 ~m:25 906 in
      Rsm.Lars.path_p ~on_singular:`Fallback ~resume:ck src2 f ~max_steps:8);
  let g, fb = near_tie_ban_problem 4 in
  let srcb = Polybasis.Design.Provider.dense g in
  let ckb = ref None in
  ignore
    (Rsm.Lars.path_p ~tol:0. ~on_singular:`Fallback ~checkpoint_every:2
       ~on_checkpoint:(fun c -> ckb := Some c)
       srcb fb ~max_steps:4);
  check_raises_invalid "ban event under `Stop" (fun () ->
      Rsm.Lars.path_p ~tol:0. ~on_singular:`Stop ~resume:(Option.get !ckb)
        srcb fb ~max_steps:6)

(* A LAR fit stops one step past its λ budget, so its terminal
   checkpoint holds a prefix of the log an uncapped walk writes. A log
   that runs past the budget, as a walk to the full step budget writes
   it, still resumes to the same model, and a kill-and-resume under
   the budget stays bitwise. *)
let test_lars_checkpoint_at_budget () =
  let src, f = sparse_problem ~k:40 ~m:25 908 in
  let lambda = 3 in
  let fit ?resume () =
    let last = ref None in
    let m =
      Rsm.Lars.fit_p ~on_singular:`Fallback
        ~on_checkpoint:(fun c -> last := Some c)
        ?resume src f ~lambda
    in
    (Rsm.Serialize.to_string m, !last)
  in
  let model, capped = fit () in
  let capped = Option.get capped in
  let uncapped = ref None in
  let full =
    Rsm.Lars.path_p ~on_singular:`Fallback
      ~on_checkpoint:(fun c -> uncapped := Some c)
      src f ~max_steps:((2 * lambda) + 8)
  in
  let uncapped = Option.get !uncapped in
  let n = Array.length capped.LarsCkpt.events in
  let nnz i = Rsm.Model.nnz full.(i).Rsm.Lars.model in
  check_bool "capped log ends at the first step past lambda" true
    (nnz (n - 1) > lambda && nnz (n - 2) <= lambda);
  check_bool "uncapped log runs further" true
    (Array.length uncapped.LarsCkpt.events > n);
  check_bool "capped events are a prefix of the uncapped log" true
    (capped.LarsCkpt.events = Array.sub uncapped.LarsCkpt.events 0 n);
  let resumed, after = fit ~resume:uncapped () in
  check_bool "uncapped checkpoint resumes to the same model" true
    (resumed = model);
  check_bool "a replayed finished walk writes no checkpoint" true
    (after = None);
  let ckpts = ref [] in
  ignore
    (Rsm.Lars.fit_p ~on_singular:`Fallback ~checkpoint_every:1
       ~on_checkpoint:(fun c -> ckpts := c :: !ckpts)
       src f ~lambda);
  let kill = List.nth (List.rev !ckpts) 1 in
  check_int "kill point is mid-walk" 2 (Array.length kill.LarsCkpt.events);
  let resumed, terminal = fit ~resume:kill () in
  check_bool "resumed capped fit is bitwise identical" true (resumed = model);
  check_bool "resumed walk ends with the same checkpoint" true
    (terminal = Some capped)

let test_lars_fit_empty_path_note () =
  (* A zero response stops the walk before any step: the fit must say
     so on the returned model instead of handing back a bare zero. *)
  let src, _ = sparse_problem ~k:30 ~m:10 907 in
  let f = Array.make 30 0. in
  let m = Rsm.Lars.fit_p src f ~lambda:3 in
  check_int "no bases selected" 0 (Rsm.Model.nnz m);
  check_bool "note explains the empty model" true
    (Array.exists
       (fun n -> contains n "no model of at most 3 bases")
       (Rsm.Model.notes m))

let test_screen_all_non_finite_error () =
  let d = screen_dataset [| Float.nan; Float.infinity; Float.nan |] in
  (match Robust.Screen.screen d with
  | Error (Robust.Error.Simulation msg) ->
      check_bool "message counts the rows" true (contains msg "3 rows")
  | Error e -> Alcotest.failf "wrong category: %s" (Robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "all-non-finite dataset must not screen Ok");
  (* Belt and braces: a non-finite center prints n/a, never nan. *)
  let r =
    {
      Robust.Screen.total = 3;
      kept = [||];
      dropped = [||];
      center = Float.nan;
      spread = Float.nan;
      threshold = 6.;
    }
  in
  let s = Robust.Screen.report_summary r in
  check_bool "summary prints n/a" true (contains s "n/a");
  check_bool "summary never prints nan" true (not (contains s "nan"))

let with_temp_dir f =
  let dir = Filename.temp_file "rsm-cv" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun fn -> Sys.remove (Filename.concat dir fn))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let select_fingerprint (r : Rsm.Select.result) =
  Printf.sprintf "%d|%s|%s" r.Rsm.Select.lambda
    (String.concat ","
       (Array.to_list (Array.map (Printf.sprintf "%h") r.Rsm.Select.curve)))
    (Rsm.Serialize.to_string r.Rsm.Select.model)

let test_cv_fold_checkpoint_resume () =
  let src, f = sparse_problem ~k:48 ~m:12 909 in
  let run ?checkpoint ?resume () =
    Rsm.Select.omp_p ?checkpoint ?resume ~folds:4
      (Randkit.Prng.create 77)
      ~max_lambda:5 src f
  in
  let full = run () in
  with_temp_dir (fun dir ->
      let base = Filename.concat dir "cv" in
      let ck_run = run ~checkpoint:base () in
      check_bool "checkpointed sweep bitwise equals the plain sweep" true
        (select_fingerprint ck_run = select_fingerprint full);
      for q = 0 to 3 do
        check_bool
          (Printf.sprintf "fold %d checkpoint written" q)
          true
          (Sys.file_exists (CvCkpt.fold_file base q))
      done;
      (* Kill after two folds: later fold files never made it to disk. *)
      Sys.remove (CvCkpt.fold_file base 2);
      Sys.remove (CvCkpt.fold_file base 3);
      let resumed = run ~checkpoint:base ~resume:true () in
      check_bool "resumed sweep bitwise equals the full sweep" true
        (select_fingerprint resumed = select_fingerprint full);
      (* A fold record written under a different plan must be rejected,
         not silently averaged in. *)
      (match CvCkpt.load (CvCkpt.fold_file base 0) with
      | Error e -> Alcotest.failf "reload: %s" e
      | Ok c ->
          CvCkpt.save (CvCkpt.fold_file base 0)
            { c with CvCkpt.plan_digest = Int64.lognot c.CvCkpt.plan_digest });
      check_raises_invalid "foreign plan digest rejected" (fun () ->
          run ~checkpoint:base ~resume:true ()))

let test_model_notes_roundtrip () =
  let m =
    Rsm.Model.make ~basis_size:10 ~support:[| 1; 7 |] ~coeffs:[| 0.5; -2. |]
  in
  let m = Rsm.Model.add_note m "refit: qr fallback" in
  let m = Rsm.Model.add_note m "refit: qr fallback" (* deduplicated *) in
  let m = Rsm.Model.add_note m "lars: banned dependent column 3" in
  check_int "notes deduplicated" 2 (Array.length (Rsm.Model.notes m));
  match Rsm.Serialize.of_string (Rsm.Serialize.to_string m) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok m' ->
      check_bool "notes round-trip through the model file" true
        (Rsm.Model.notes m = Rsm.Model.notes m');
      check_vec ~eps:0. "coefficients exact" (Rsm.Model.to_dense m)
        (Rsm.Model.to_dense m')

(* --- pipeline and errors ------------------------------------------- *)

let test_pipeline_config_validation () =
  let expect_invalid name r =
    match r with
    | Error (Robust.Error.Invalid_input _) -> ()
    | Error e ->
        Alcotest.failf "%s: wrong category %s" name (Robust.Error.to_string e)
    | Ok _ -> Alcotest.failf "%s: expected an error" name
  in
  expect_invalid "samples 0" (Robust.Pipeline.config ~samples:0 ());
  expect_invalid "folds 1" (Robust.Pipeline.config ~folds:1 ());
  expect_invalid "max_lambda 0" (Robust.Pipeline.config ~max_lambda:0 ());
  expect_invalid "threshold 0" (Robust.Pipeline.config ~screen_threshold:0. ());
  expect_invalid "min_samples > samples"
    (Robust.Pipeline.config ~samples:50 ~min_samples:51 ());
  (* The incremental sweep serves the LAR/lasso walk only. *)
  let sweep = Rsm.Corr_sweep.incremental () in
  List.iter
    (fun m ->
      expect_invalid
        ("incremental " ^ Rsm.Solver.name m)
        (Robust.Pipeline.config ~method_:m ~sweep ()))
    [ Rsm.Solver.Omp; Rsm.Solver.Star; Rsm.Solver.Ls ];
  List.iter
    (fun m ->
      check_bool
        ("incremental " ^ Rsm.Solver.name m ^ " accepted")
        true
        (Result.is_ok (Robust.Pipeline.config ~method_:m ~sweep ())))
    [ Rsm.Solver.Lar; Rsm.Solver.Lasso ]

let test_pipeline_end_to_end_with_faults () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg =
    match
      Robust.Pipeline.config ~samples:150 ~folds:3 ~max_lambda:6
        ~faults:faults_10pct
        ~retry:(Simulator.retry_policy ())
        ~min_samples:75 ()
    with
    | Ok cfg -> cfg
    | Error e -> Alcotest.failf "config: %s" (Robust.Error.to_string e)
  in
  match Robust.Pipeline.fit cfg sim basis (rng ()) with
  | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
  | Ok o ->
      let r = o.Robust.Pipeline.run_report in
      check_bool "faults were injected" true (r.Simulator.faults_injected > 0);
      check_bool "survivors above the floor" true
        (Simulator.dataset_size o.Robust.Pipeline.dataset >= 75);
      check_bool "model selected something" true
        (Array.length o.Robust.Pipeline.model.Rsm.Model.support > 0);
      check_bool "coefficients finite" true
        (Array.for_all Float.is_finite o.Robust.Pipeline.model.Rsm.Model.coeffs);
      (match o.Robust.Pipeline.screen_report with
      | None -> Alcotest.fail "screening was on: report expected"
      | Some s ->
          check_int "screen saw every delivered row"
            r.Simulator.delivered s.Robust.Screen.total);
      check_bool "summary non-empty" true
        (String.length (Robust.Pipeline.outcome_summary o) > 0)

(* A point the screens would drop reaches the matrix-free design when
   screening is off: here the simulator returns a finite value but
   writes a NaN into the point it was handed, which the dataset keeps.
   The streamed provider refuses the non-finite Hermite table entry
   and the pipeline reports it as invalid input instead of fitting
   on it. *)
let test_pipeline_streamed_nan_point () =
  let sim =
    Simulator.make ~name:"nan-point" ~dim:3 ~seconds_per_sample:1. (fun p ->
        let v = p.(0) -. (0.5 *. p.(1)) in
        if p.(2) > 1.5 then p.(1) <- Float.nan;
        v)
  in
  let cfg =
    match
      Robust.Pipeline.config ~samples:80 ~folds:3 ~max_lambda:4 ~screen:false
        ~streamed:true ()
    with
    | Ok cfg -> cfg
    | Error e -> Alcotest.failf "config: %s" (Robust.Error.to_string e)
  in
  match
    Robust.Pipeline.fit cfg sim (Polybasis.Basis.quadratic 3) (rng ())
  with
  | Error (Robust.Error.Invalid_input msg) ->
      check_bool "diagnostic names the table entry" true
        (contains msg "non-finite Hermite table entry")
  | Error e -> Alcotest.failf "wrong category: %s" (Robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "expected an Invalid_input error"

let test_pipeline_min_samples_failure () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg =
    match
      Robust.Pipeline.config ~samples:40
        ~faults:(Simulator.fault_plan ~rate:0.5
                   ~mix:[| (Simulator.Transient, 1.) |] ())
        ~retry:Simulator.no_retry ~min_samples:40 ()
    with
    | Ok cfg -> cfg
    | Error e -> Alcotest.failf "config: %s" (Robust.Error.to_string e)
  in
  match Robust.Pipeline.fit cfg sim basis (rng ()) with
  | Error (Robust.Error.Simulation msg) ->
      check_bool "diagnostic names the shortfall" true (String.length msg > 0)
  | Error e ->
      Alcotest.failf "wrong category: %s" (Robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "expected a Simulation error"

let test_error_classification () =
  let open Robust.Error in
  (match of_exn (Invalid_argument "x") with
  | Invalid_input _ -> ()
  | e -> Alcotest.failf "Invalid_argument -> %s" (to_string e));
  (match of_exn (Sys_error "disk on fire") with
  | Io _ -> ()
  | e -> Alcotest.failf "Sys_error -> %s" (to_string e));
  (match of_exn (Linalg.Cholesky.Not_positive_definite 3) with
  | Numerical _ -> ()
  | e -> Alcotest.failf "NPD -> %s" (to_string e));
  (match of_exn Exit with
  | Internal _ -> ()
  | e -> Alcotest.failf "unknown exn -> %s" (to_string e));
  (match guard (fun () -> 41 + 1) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "guard must pass values through");
  (match guard (fun () -> failwith "nope") with
  | Error (Invalid_input _) -> ()
  | _ -> Alcotest.fail "guard must classify Failure");
  check_bool "to_string prefixes the category" true
    (to_string (Numerical "x") = "numerical: x")

let suite =
  ( "robust",
    [
      case "injection off: run_robust == run bitwise" test_no_faults_matches_run;
      case "injection: pool parity at 1/2/4 domains"
        test_robust_run_pool_parity;
      case "retry recovers transients; abandonment recorded"
        test_retry_recovers_transients;
      case "fault accounting is self-consistent"
        test_fault_accounting_consistent;
      case "fault plan validation" test_fault_plan_validation;
      case "screen: non-finite rows dropped" test_screen_drops_non_finite;
      case "screen: MAD outlier dropped with its z-score"
        test_screen_drops_outlier;
      case "screen: zero-spread guard" test_screen_zero_spread_guard;
      case "screen: validation" test_screen_validation;
      case "refit: clean columns stay Direct" test_refit_direct_on_clean_cols;
      case "refit: duplicate columns ride the ladder"
        test_refit_ladder_on_duplicate_cols;
      case "omp: on_singular Stop vs Fallback"
        test_omp_on_singular_stop_vs_fallback;
      case "lars: on_singular bans the dependent column"
        test_lars_on_singular_bans_column;
      case "checkpoint: string and file round-trip"
        test_checkpoint_string_roundtrip;
      case "omp: killed-then-resumed fit is bitwise identical"
        test_omp_resume_bitwise;
      case "star: killed-then-resumed fit is bitwise identical"
        test_star_resume_bitwise;
      case "resume: checkpoint validation" test_resume_validation;
      case "omp/star: terminal checkpoint always emitted"
        test_terminal_checkpoint_emitted;
      case "lars: banned column takes a zero-length step"
        test_lars_ban_zero_step_regression;
      case "lars: checkpoint record round-trips"
        test_lars_checkpoint_roundtrip;
      case "cv: fold checkpoint record round-trips"
        test_cv_checkpoint_roundtrip;
      case "lars: killed-then-resumed path and fit are bitwise identical"
        test_lars_resume_bitwise;
      case "lars: ban event replays bitwise" test_lars_resume_with_ban_event;
      case "lars: resume validation" test_lars_resume_validation;
      case "lars: empty path is annotated" test_lars_fit_empty_path_note;
      case "lars: checkpoints end at the lambda budget"
        test_lars_checkpoint_at_budget;
      case "screen: all-non-finite dataset is a typed error"
        test_screen_all_non_finite_error;
      case "cv: killed-then-resumed sweep is bitwise identical"
        test_cv_fold_checkpoint_resume;
      case "model notes round-trip through serialization"
        test_model_notes_roundtrip;
      case "pipeline: config validation" test_pipeline_config_validation;
      case "pipeline: end-to-end fit under 10% faults"
        test_pipeline_end_to_end_with_faults;
      case "pipeline: min_samples shortfall is a Simulation error"
        test_pipeline_min_samples_failure;
      case "pipeline: streamed NaN point is a typed error"
        test_pipeline_streamed_nan_point;
      case "errors: classification and guard" test_error_classification;
    ] )
