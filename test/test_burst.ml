(* Burst-fault resilience: the Markov outage model, adaptive
   backoff/breaker driver, Mahalanobis point screen and quorum-degraded
   fitting — determinism at every domain count throughout. *)
open Test_util
module Simulator = Circuit.Simulator
module Markov = Randkit.Markov
module Retry = Robust.Retry

let pool_counts = [ 1; 2; 4 ]

let small_sim () =
  let amp = Circuit.Opamp.build ~n_parasitics:15 () in
  (Circuit.Opamp.simulator amp Circuit.Opamp.Offset, Circuit.Opamp.dim amp)

let burst_faults =
  Simulator.fault_plan ~rate:0.05
    ~burst:(Simulator.burst_model ~entry:0.04 ~len:12. ())
    ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Markov outage chains ------------------------------------------ *)

let test_markov_states_deterministic () =
  let c = Markov.of_mean_len ~entry:0.05 ~mean_len:10. () in
  let a = Markov.states c ~seed:99 500 in
  let b = Markov.states c ~seed:99 500 in
  check_bool "states are a pure function of (chain, seed, n)" true (a = b);
  check_bool "a different seed gives a different chain" true
    (a <> Markov.states c ~seed:100 500);
  check_float ~eps:1e-12 "mean burst length" 10. (Markov.mean_burst_len c)

let test_markov_windows_consistent () =
  let c = Markov.of_mean_len ~entry:0.05 ~mean_len:8. () in
  let states = Markov.states c ~seed:3 400 in
  let windows = Markov.windows states in
  check_int "window lengths sum to the burst count" (Markov.count states)
    (Array.fold_left (fun acc (_, len) -> acc + len) 0 windows);
  Array.iter
    (fun (start, len) ->
      check_bool "window is maximal on the left" true
        (start = 0 || not states.(start - 1));
      check_bool "window is maximal on the right" true
        (start + len = 400 || not states.(start + len));
      for i = start to start + len - 1 do
        check_bool "window is solid" true states.(i)
      done)
    windows

let test_markov_degenerate_chains () =
  let never = Markov.chain ~entry:0. ~exit:0.5 () in
  check_bool "entry 0 never bursts" true
    (Array.for_all not (Markov.states never ~seed:1 200));
  check_int "no windows" 0 (Array.length (Markov.windows (Array.make 50 false)));
  check_raises_invalid "entry > 1" (fun () -> Markov.chain ~entry:1.5 ~exit:0.5 ());
  check_raises_invalid "mean_len < 1" (fun () ->
      Markov.of_mean_len ~entry:0.1 ~mean_len:0.5 ())

let test_burst_states_of_plan () =
  check_bool "no burst model: all Good" true
    (Array.for_all not (Simulator.burst_states Simulator.no_faults ~k:100));
  let states = Simulator.burst_states burst_faults ~k:2000 in
  check_bool "burst model produces outage windows" true
    (Markov.count states > 0);
  check_bool "pure function of the plan" true
    (states = Simulator.burst_states burst_faults ~k:2000)

(* --- burst-mode injection determinism ------------------------------ *)

let test_burst_run_pool_parity () =
  let sim, _ = small_sim () in
  let d0, r0 =
    Simulator.run_robust ~faults:burst_faults sim (Randkit.Prng.create 7)
      ~k:300
  in
  check_bool "bursts intersect the run" true (r0.Simulator.burst_windows > 0);
  check_bool "burst samples counted" true
    (r0.Simulator.burst_samples >= r0.Simulator.burst_windows);
  check_bool "faults attributed to bursts" true
    (r0.Simulator.burst_faults > 0);
  check_bool "summary mentions the windows" true
    (contains (Simulator.report_summary r0) "burst window");
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          let d, r =
            Simulator.run_robust ~pool ~faults:burst_faults sim
              (Randkit.Prng.create 7) ~k:300
          in
          check_bool
            (Printf.sprintf "dataset bitwise (domains=%d)" domains)
            true
            (d.Simulator.points = d0.Simulator.points
            && d.Simulator.values = d0.Simulator.values);
          check_bool
            (Printf.sprintf "report identical (domains=%d)" domains)
            true (r = r0)))
    pool_counts

let test_burst_off_is_bitwise_legacy () =
  (* A plan without a burst model must behave exactly as before the
     burst layer existed: same draws, same dataset, same report. *)
  let sim, _ = small_sim () in
  let plain = Simulator.fault_plan ~rate:0.10 ~outlier_scale:500. () in
  let d, r = Simulator.run_robust ~faults:plain sim (Randkit.Prng.create 5) ~k:150 in
  check_int "no burst windows" 0 r.Simulator.burst_windows;
  check_int "no burst samples" 0 r.Simulator.burst_samples;
  check_int "no burst faults" 0 r.Simulator.burst_faults;
  check_int "no breaker trips" 0 r.Simulator.breaker_trips;
  check_bool "summary stays burst-free" true
    (not (contains (Simulator.report_summary r) "burst"));
  check_bool "dataset non-empty" true (Simulator.dataset_size d > 0)

(* --- adaptive retry: backoff, breaker ------------------------------ *)

let test_retry_clean_matches_run () =
  let sim, _ = small_sim () in
  let d = Simulator.run sim (Randkit.Prng.create 42) ~k:80 in
  let d', report =
    Retry.run (Retry.policy ()) sim (Randkit.Prng.create 42) ~k:80
  in
  check_bool "clean adaptive run == run bitwise" true
    (d.Simulator.points = d'.Simulator.points
    && d.Simulator.values = d'.Simulator.values);
  check_int "all delivered" 80 report.Retry.run.Simulator.delivered;
  check_int "no events" 0 (Array.length report.Retry.events);
  check_int "no trips" 0 report.Retry.run.Simulator.breaker_trips

let test_retry_pool_parity () =
  let sim, _ = small_sim () in
  let policy = Retry.policy ~breaker_threshold:4 () in
  let d0, r0 =
    Retry.run ~faults:burst_faults policy sim (Randkit.Prng.create 13) ~k:250
  in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          let d, r =
            Retry.run ~pool ~faults:burst_faults policy sim
              (Randkit.Prng.create 13) ~k:250
          in
          check_bool
            (Printf.sprintf "adaptive dataset bitwise (domains=%d)" domains)
            true
            (d.Simulator.points = d0.Simulator.points
            && d.Simulator.values = d0.Simulator.values);
          check_bool
            (Printf.sprintf "adaptive report identical (domains=%d)" domains)
            true (r = r0)))
    pool_counts

let test_breaker_trips_and_recovers () =
  (* A hard outage window: every attempt inside it fails, so the breaker
     must trip, fail fast through the window, and close again on the
     other side — delivering the post-burst samples. *)
  let sim, _ = small_sim () in
  let faults =
    Simulator.fault_plan ~rate:0.
      ~burst:(Simulator.burst_model ~entry:0.05 ~len:25. ~rate:1. ())
      ()
  in
  let policy = Retry.policy ~max_attempts:3 ~breaker_threshold:3 () in
  let d, r = Retry.run ~faults policy sim (Randkit.Prng.create 21) ~k:300 in
  let run = r.Retry.run in
  check_bool "bursts hit the run" true (run.Simulator.burst_windows > 0);
  check_bool "breaker tripped" true (run.Simulator.breaker_trips > 0);
  let has p = Array.exists p r.Retry.events in
  check_bool "a Tripped event was logged" true
    (has (function Retry.Tripped _ -> true | _ -> false));
  check_bool "fast-fails while open" true
    (has (function Retry.Fast_fail _ -> true | _ -> false));
  check_bool "breaker closed again" true
    (has (function Retry.Closed _ -> true | _ -> false));
  check_int "delivered + failed = requested" 300
    (run.Simulator.delivered + Array.length run.Simulator.failed);
  check_int "dataset matches the report" run.Simulator.delivered
    (Simulator.dataset_size d);
  (* Fail-fast means abandoned burst samples each burned one attempt,
     not the full retry allowance: strictly cheaper than fixed retry. *)
  let _, fixed =
    Simulator.run_robust ~faults
      ~retry:(Simulator.retry_policy ~max_attempts:3 ())
      sim (Randkit.Prng.create 21) ~k:300
  in
  check_bool "adaptive charges less accounted time than fixed retry" true
    (run.Simulator.accounted_extra_seconds
    < fixed.Simulator.accounted_extra_seconds)

let test_retry_policy_validation () =
  check_raises_invalid "zero attempts" (fun () -> Retry.policy ~max_attempts:0 ());
  check_raises_invalid "negative threshold" (fun () ->
      Retry.policy ~breaker_threshold:(-1) ());
  check_raises_invalid "k = 0" (fun () ->
      let sim, _ = small_sim () in
      Retry.run (Retry.policy ()) sim (Randkit.Prng.create 1) ~k:0)

(* --- Mahalanobis point screen -------------------------------------- *)

let gaussian_dataset ?(dim = 3) ~k seed =
  let g = Randkit.Prng.create seed in
  {
    Simulator.points = Array.init k (fun _ -> Randkit.Gaussian.vector g dim);
    values = Array.init k (fun _ -> Randkit.Gaussian.sample g);
  }

let mahal_ok ?confidence d =
  match Robust.Screen.mahalanobis ?confidence d with
  | Ok r -> r
  | Error e -> Alcotest.fail ("mahalanobis failed: " ^ Robust.Error.to_string e)

let test_mahalanobis_flags_far_point () =
  let d = gaussian_dataset ~k:80 11 in
  (* A corrupted coordinate vector whose response is unremarkable — the
     response screen cannot see it, the point screen must. *)
  d.Simulator.points.(17) <- [| 40.; -35.; 50. |];
  let kept, report = mahal_ok d in
  let far =
    Array.exists
      (fun (i, why) ->
        i = 17
        && match why with Robust.Screen.Far_point dist ->
             dist > report.Robust.Screen.p_threshold
           | _ -> false)
      report.Robust.Screen.p_dropped
  in
  check_bool "the planted far point is dropped with its distance" true far;
  check_bool "the bulk survives" true (Simulator.dataset_size kept >= 75);
  check_bool "summary renders" true
    (contains (Robust.Screen.point_report_summary report) "point screen")

let test_mahalanobis_clean_bulk_survives () =
  let d = gaussian_dataset ~k:120 13 in
  let kept, report = mahal_ok d in
  (* At 99.9% confidence a clean Gaussian batch loses at most a row or
     two; the exact count is deterministic for the seed. *)
  check_bool "nearly everything kept" true
    (Simulator.dataset_size kept >= 118);
  check_bool "shrinkage from the ladder" true
    (Array.exists
       (fun g -> g = report.Robust.Screen.p_shrinkage)
       [| 0.05; 0.1; 0.2; 0.4; 0.8; 1.0 |])

let test_mahalanobis_degenerate_and_errors () =
  let two = gaussian_dataset ~k:2 17 in
  let kept, report = mahal_ok two in
  check_int "two rows stand down to finiteness-only" 2
    (Simulator.dataset_size kept);
  check_float ~eps:0. "degenerate shrinkage reported" 1.0
    report.Robust.Screen.p_shrinkage;
  let bad =
    {
      Simulator.points = [| [| Float.nan; 0. |]; [| 0.; Float.infinity |] |];
      values = [| 1.; 2. |];
    }
  in
  (match Robust.Screen.mahalanobis bad with
  | Error (Robust.Error.Simulation _) -> ()
  | Error e -> Alcotest.failf "wrong category: %s" (Robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "all-non-finite points must not screen Ok");
  check_raises_invalid "confidence 1" (fun () ->
      Robust.Screen.mahalanobis ~confidence:1. (gaussian_dataset ~k:10 1));
  check_raises_invalid "empty dataset" (fun () ->
      Robust.Screen.mahalanobis { Simulator.points = [||]; values = [||] })

let test_chi2_quantile_sanity () =
  (* Wilson–Hilferty against table values. *)
  check_float ~eps:0.2 "chi2_10(0.95)" 18.307
    (Robust.Screen.chi2_quantile ~dof:10 0.95);
  check_float ~eps:0.3 "chi2_20(0.999)" 45.315
    (Robust.Screen.chi2_quantile ~dof:20 0.999);
  check_bool "monotone in p" true
    (Robust.Screen.chi2_quantile ~dof:5 0.99
    > Robust.Screen.chi2_quantile ~dof:5 0.9)

let test_chi2_quantile_low_dof_exact () =
  (* Regression for the Wilson–Hilferty cube at dof 1–2: it was off by
     several percent there (−3.6% at dof 1, p = 0.999), skewing the
     factor-screen cut for 1–2 variable designs. The closed forms must
     now match reference quantiles to the inverse-normal's accuracy. *)
  let q = Robust.Screen.chi2_quantile in
  check_float ~eps:1e-6 "chi2_1(0.95)" 3.8414588206941254 (q ~dof:1 0.95);
  check_float ~eps:1e-6 "chi2_1(0.99)" 6.6348966010212145 (q ~dof:1 0.99);
  check_float ~eps:1e-6 "chi2_1(0.999)" 10.827566170662733 (q ~dof:1 0.999);
  check_float ~eps:1e-9 "chi2_2(0.95)" 5.991464547107979 (q ~dof:2 0.95);
  check_float ~eps:1e-9 "chi2_2(0.99)" 9.210340371976182 (q ~dof:2 0.99);
  check_float ~eps:1e-9 "chi2_2(0.999)" 13.815510557964274 (q ~dof:2 0.999);
  (* dof 2 closed form is exactly −2·ln(1−p); p = 0.75 keeps 1−p exact
     in binary so the comparison can be bitwise. *)
  check_float ~eps:0. "chi2_2 closed form" (-2. *. log 0.25) (q ~dof:2 0.75);
  (* dof >= 3 still goes through Wilson–Hilferty (within a few permil of
     the reference value, but not exact). *)
  check_float ~eps:0.05 "chi2_3(0.95) approx" 7.814727903251179
    (q ~dof:3 0.95);
  check_bool "dof 3 stays Wilson-Hilferty" true
    (Float.abs (q ~dof:3 0.95 -. 7.814727903251179) > 1e-9)

let test_response_screen_two_sample_standdown () =
  (* Two rows an ocean apart: their MAD is |v1-v2|/2, putting each a
     constant 0.674 robust sigma from the midpoint — the old screen
     silently passed everything while appearing to have run. It must
     stand down with the zero-spread verdict instead. *)
  let d =
    {
      Simulator.points = [| [| 0.1 |]; [| 0.2 |] |];
      values = [| 0.; 1e9 |];
    }
  in
  (match Robust.Screen.screen d with
  | Ok (kept, report) ->
      check_float ~eps:0. "spread reports the stand-down" 0.
        report.Robust.Screen.spread;
      check_int "both rows kept" 2 (Simulator.dataset_size kept);
      check_int "nothing silently dropped" 0
        (Array.length report.Robust.Screen.dropped)
  | Error e -> Alcotest.fail ("screen failed: " ^ Robust.Error.to_string e));
  match
    Robust.Screen.screen
      { Simulator.points = [| [| 0.5 |] |]; values = [| 3.25 |] }
  with
  | Ok (_, report) ->
      check_float ~eps:0. "single row also stands down" 0.
        report.Robust.Screen.spread
  | Error e -> Alcotest.fail ("screen failed: " ^ Robust.Error.to_string e)

(* --- quorum-degraded fitting --------------------------------------- *)

let transient_storm =
  Simulator.fault_plan ~rate:0.45 ~mix:[| (Simulator.Transient, 1.) |] ()

let pipeline_cfg ?adaptive ?(quorum = Robust.Pipeline.default_quorum)
    ?(screen_space = Robust.Pipeline.Response) ?(faults = Simulator.no_faults)
    ?(retry = Simulator.no_retry) () =
  match
    Robust.Pipeline.config ~samples:150 ~folds:3 ~max_lambda:5 ~min_samples:10
      ~quorum ~screen_space ~faults ~retry ?adaptive ()
  with
  | Ok cfg -> cfg
  | Error e -> Alcotest.failf "config: %s" (Robust.Error.to_string e)

let test_quorum_shortfall_is_typed () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg = pipeline_cfg ~faults:transient_storm ~quorum:0.9 () in
  match Robust.Pipeline.fit cfg sim basis (rng ()) with
  | Error (Robust.Error.Simulation msg) ->
      check_bool "diagnostic names the quorum" true (contains msg "quorum")
  | Error e -> Alcotest.failf "wrong category: %s" (Robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "sub-quorum run must not fit"

let test_degraded_fit_notes_and_roundtrip () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg = pipeline_cfg ~faults:transient_storm ~quorum:0.4 () in
  match Robust.Pipeline.fit cfg sim basis (rng ()) with
  | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
  | Ok o ->
      let notes = Rsm.Model.notes o.Robust.Pipeline.model in
      let degraded =
        Array.to_list notes
        |> List.filter (fun n -> contains n "degraded: ")
      in
      check_int "exactly one degraded note" 1 (List.length degraded);
      let note = List.hd degraded in
      check_bool "note counts the kept rows" true
        (contains note
           (Printf.sprintf "kept %d of 150"
              (Simulator.dataset_size o.Robust.Pipeline.dataset)));
      check_bool "note is one line" true (not (String.contains note '\n'));
      (* Provenance must survive the model file. *)
      (match
         Rsm.Serialize.of_string
           (Rsm.Serialize.to_string o.Robust.Pipeline.model)
       with
      | Error e -> Alcotest.failf "parse: %s" e
      | Ok m' ->
          check_bool "degraded note round-trips through serialization" true
            (Array.exists (( = ) note) (Rsm.Model.notes m')))

let test_full_delivery_carries_no_note () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg = pipeline_cfg () in
  match Robust.Pipeline.fit cfg sim basis (rng ()) with
  | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
  | Ok o ->
      check_bool "no degraded note on a clean run" true
        (not
           (Array.exists
              (fun n -> contains n "degraded")
              (Rsm.Model.notes o.Robust.Pipeline.model)))

let test_pipeline_screen_spaces () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let outcome space =
    match
      Robust.Pipeline.fit
        (pipeline_cfg ~screen_space:space ())
        sim basis (rng ())
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
  in
  let o = outcome Robust.Pipeline.Both in
  check_bool "Both: response report present" true
    (o.Robust.Pipeline.screen_report <> None);
  check_bool "Both: point report present" true
    (o.Robust.Pipeline.point_report <> None);
  let o = outcome Robust.Pipeline.Factor in
  check_bool "Factor: response report absent" true
    (o.Robust.Pipeline.screen_report = None);
  check_bool "Factor: point report present" true
    (o.Robust.Pipeline.point_report <> None);
  check_bool "parse round-trips" true
    (List.for_all
       (fun s ->
         Robust.Pipeline.screen_space_of_string
           (Robust.Pipeline.screen_space_to_string s)
         = Some s)
       [ Robust.Pipeline.Response; Robust.Pipeline.Factor; Robust.Pipeline.Both ])

let test_pipeline_adaptive_deterministic () =
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg =
    pipeline_cfg ~quorum:0.3
      ~faults:burst_faults
      ~adaptive:(Retry.policy ~breaker_threshold:4 ())
      ()
  in
  let fit () =
    match Robust.Pipeline.fit cfg sim basis (rng ()) with
    | Ok o -> o
    | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
  in
  let a = fit () and b = fit () in
  check_bool "adaptive report surfaced" true
    (a.Robust.Pipeline.adaptive_report <> None);
  check_bool "adaptive burst fit is reproducible" true
    (Rsm.Serialize.to_string a.Robust.Pipeline.model
    = Rsm.Serialize.to_string b.Robust.Pipeline.model);
  check_bool "hygiene shows the adaptive line" true
    (List.exists
       (fun l -> contains l "adaptive retry")
       (Robust.Pipeline.hygiene_lines ~names:[||]
          (Robust.Pipeline.outcome_hygiene a)))

let test_burst_fit_pool_parity () =
  (* The acceptance gate in miniature: a quorate burst-mode CV fit is
     bitwise identical at 1, 2 and 4 domains. *)
  let sim, dim = small_sim () in
  let basis = Polybasis.Basis.constant_linear dim in
  let cfg =
    pipeline_cfg ~quorum:0.3 ~faults:burst_faults
      ~retry:(Simulator.retry_policy ()) ()
  in
  let fit pool =
    match Robust.Pipeline.fit ?pool cfg sim basis (rng ()) with
    | Ok o -> Rsm.Serialize.to_string o.Robust.Pipeline.model
    | Error e -> Alcotest.failf "fit: %s" (Robust.Error.to_string e)
  in
  let reference = fit None in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          check_bool
            (Printf.sprintf "burst fit bitwise (domains=%d)" domains)
            true
            (fit (Some pool) = reference)))
    pool_counts

let test_burst_cv_resume_bitwise () =
  (* Killed-then-resumed under burst faults: the training data comes out
     of a bursty delivery, the CV sweep checkpoints per fold, two fold
     files are lost in the "crash", and the resumed sweep must replay
     byte-identically. *)
  let sim, _ = small_sim () in
  let data, report =
    Simulator.run_robust ~faults:burst_faults
      ~retry:(Simulator.retry_policy ())
      sim (Randkit.Prng.create 23) ~k:120
  in
  check_bool "the delivery really was bursty" true
    (report.Simulator.burst_windows > 0);
  let basis =
    Polybasis.Basis.constant_linear (Array.length data.Simulator.points.(0))
  in
  let src =
    Polybasis.Design.Provider.dense
      (Polybasis.Design.matrix_rows basis data.Simulator.points)
  in
  let f = data.Simulator.values in
  let run ?checkpoint ?resume () =
    Rsm.Select.omp_p ?store:(store ?resume checkpoint) ~folds:4
      (Randkit.Prng.create 77)
      ~max_lambda:5 src f
  in
  let fingerprint (r : Rsm.Select.result) =
    Printf.sprintf "%d|%s" r.Rsm.Select.lambda
      (Rsm.Serialize.to_string r.Rsm.Select.model)
  in
  let full = run () in
  let dir = Filename.temp_file "burst-cv" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun fn -> Sys.remove (Filename.concat dir fn))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let base = Filename.concat dir "cv" in
      ignore (run ~checkpoint:base ());
      Sys.remove (Rsm.Serialize.Checkpoint.Cell.file base ~outputs:1 0 2);
      Sys.remove (Rsm.Serialize.Checkpoint.Cell.file base ~outputs:1 0 3);
      let resumed = run ~checkpoint:base ~resume:true () in
      check_bool "burst-trained sweep resumes bitwise" true
        (fingerprint resumed = fingerprint full))

(* --- Point-screen oracle ---------------------------------------------- *)

(* The element-wise point screen the library's version replaced, kept as
   the oracle: every [Mat.get]/[set] per entry, [standardize] run twice
   per row, and the reference Cholesky kernels. The library must return
   the same report bit for bit. *)
let ref_mahalanobis ?(confidence = Robust.Screen.default_confidence)
    (d : Simulator.dataset) =
  let open Robust.Screen in
  let shrinkage_ladder = [| 0.05; 0.1; 0.2; 0.4; 0.8; 1.0 |] in
  let n = Array.length d.Simulator.values in
  let dim = if n > 0 then Array.length d.points.(0) else 0 in
  let finite_row = Array.make n true in
  let dropped = ref [] in
  for i = 0 to n - 1 do
    if Array.exists (fun x -> not (Float.is_finite x)) d.points.(i) then begin
      finite_row.(i) <- false;
      dropped := (i, Non_finite_point) :: !dropped
    end
    else if not (Float.is_finite d.values.(i)) then begin
      finite_row.(i) <- false;
      dropped := (i, Non_finite_value) :: !dropped
    end
  done;
  let finite = ref [] in
  for i = n - 1 downto 0 do
    if finite_row.(i) then finite := i :: !finite
  done;
  let finite = Array.of_list !finite in
  let nf = Array.length finite in
  if nf = 0 then Error (Robust.Error.Simulation "no finite row")
  else begin
    let threshold = sqrt (chi2_quantile ~dof:dim confidence) in
    let sorted_dropped () =
      let a = Array.of_list !dropped in
      Array.sort (fun (i, _) (j, _) -> compare i j) a;
      a
    in
    if nf <= 2 || dim = 0 then
      Ok
        ( Simulator.split d finite,
          {
            p_total = n;
            p_kept = finite;
            p_dropped = sorted_dropped ();
            p_dim = dim;
            p_threshold = threshold;
            p_shrinkage = 1.0;
          } )
    else begin
      let canon = Array.copy finite in
      Array.sort (fun i j -> compare d.points.(i) d.points.(j)) canon;
      let coord = Array.make nf 0. in
      let center = Array.make dim 0. in
      let scale = Array.make dim 1. in
      for j = 0 to dim - 1 do
        for r = 0 to nf - 1 do
          coord.(r) <- d.points.(canon.(r)).(j)
        done;
        let med = Stat.Descriptive.median coord in
        center.(j) <- med;
        for r = 0 to nf - 1 do
          coord.(r) <- Float.abs (coord.(r) -. med)
        done;
        let s = mad_consistency *. Stat.Descriptive.median coord in
        scale.(j) <- (if s > 0. then s else 1.)
      done;
      let standardize i =
        Array.init dim (fun j -> (d.points.(i).(j) -. center.(j)) /. scale.(j))
      in
      let s = Linalg.Mat.create dim dim in
      Array.iter
        (fun i ->
          let z = standardize i in
          for a = 0 to dim - 1 do
            for b = 0 to a do
              Linalg.Mat.set s a b (Linalg.Mat.get s a b +. (z.(a) *. z.(b)))
            done
          done)
        canon;
      let inv_n = 1. /. float_of_int nf in
      for a = 0 to dim - 1 do
        for b = 0 to a do
          Linalg.Mat.set s a b (Linalg.Mat.get s a b *. inv_n)
        done
      done;
      let rec factor_at idx =
        let gamma = shrinkage_ladder.(idx) in
        let sg =
          Linalg.Mat.init dim dim (fun a b ->
              if a < b then 0.
              else
                let v = (1. -. gamma) *. Linalg.Mat.get s a b in
                if a = b then v +. gamma else v)
        in
        match Ref_kernels.factor sg with
        | l -> (l, gamma)
        | exception Linalg.Cholesky.Not_positive_definite _
          when idx + 1 < Array.length shrinkage_ladder ->
            factor_at (idx + 1)
      in
      let l, gamma = factor_at 0 in
      let kept = ref [] in
      for r = nf - 1 downto 0 do
        let i = finite.(r) in
        let z = standardize i in
        let dist = sqrt (Linalg.Vec.dot z (Ref_kernels.solve l z)) in
        if dist > threshold then dropped := (i, Far_point dist) :: !dropped
        else kept := i :: !kept
      done;
      let kept = Array.of_list !kept in
      Ok
        ( Simulator.split d kept,
          {
            p_total = n;
            p_kept = kept;
            p_dropped = sorted_dropped ();
            p_dim = dim;
            p_threshold = threshold;
            p_shrinkage = gamma;
          } )
    end
  end

let same_point_report (a : Robust.Screen.point_report)
    (b : Robust.Screen.point_report) =
  let same_bits = Ref_kernels.same_bits in
  let same_drop (i, why) (j, why') =
    i = j
    &&
    match (why, why') with
    | Robust.Screen.Far_point x, Robust.Screen.Far_point y -> same_bits x y
    | Robust.Screen.Far_point _, _ | _, Robust.Screen.Far_point _ -> false
    | r, r' -> r = r'
  in
  a.p_total = b.p_total && a.p_kept = b.p_kept && a.p_dim = b.p_dim
  && same_bits a.p_threshold b.p_threshold
  && same_bits a.p_shrinkage b.p_shrinkage
  && Array.length a.p_dropped = Array.length b.p_dropped
  && Array.for_all2 same_drop a.p_dropped b.p_dropped

let screen_matches_oracle ?confidence d =
  match (Robust.Screen.mahalanobis ?confidence d, ref_mahalanobis ?confidence d) with
  | Ok (kept, r), Ok (kept', r') -> same_point_report r r' && kept = kept'
  | Error _, Error _ -> true
  | _ -> false

(* Oracle datasets. [dup] copies a heavy-tailed coordinate (zero MAD,
   a few rows at 1e15) into its neighbour: the two standardized columns
   are equal and so large that the shrunk scatter loses positive
   definiteness in rounding, which pushes the factor past the first
   rungs of the shrinkage ladder. *)
let oracle_dataset ~dim ~k ?(zero_mad = false) ?(non_finite = false)
    ?(far = false) ?(dup = false) seed =
  let d = gaussian_dataset ~dim ~k seed in
  let pts = d.Simulator.points in
  if zero_mad then
    Array.iteri
      (fun i p ->
        if i mod 5 <> 0 then begin
          p.(0) <- 0.25;
          p.(dim - 1) <- 0.25
        end)
      pts;
  if dup && dim >= 2 then
    Array.iteri
      (fun i p ->
        p.(0) <- (if i mod 7 = 3 then 1e15 *. float_of_int (i + 1) else 0.);
        p.(1) <- p.(0))
      pts;
  if far then begin
    pts.(0) <- Array.init dim (fun j -> if j mod 2 = 0 then 60. else -45.);
    pts.(k / 2) <- Array.map (fun x -> (40. *. x) +. 25.) pts.(k / 2)
  end;
  if non_finite && k > 6 then begin
    pts.(1).(dim / 2) <- Float.nan;
    d.values.(3) <- Float.infinity;
    pts.(5).(0) <- Float.neg_infinity
  end;
  d

let oracle_shapes = [| (1, 30); (2, 30); (6, 60); (12, 40); (40, 25) |]

let test_oracle_rank_deficient_every_row () =
  (* nf < dim, as in the 630-factor op-amp: at confidence 1e-12 every
     row is dropped, so every distance is compared. *)
  let d = oracle_dataset ~dim:40 ~k:25 41 in
  let _, r = mahal_ok ~confidence:1e-12 d in
  check_int "every row reports a distance" 25 (Array.length r.p_dropped);
  check_bool "rank-deficient screen == oracle" true
    (screen_matches_oracle ~confidence:1e-12 d);
  let d2 = oracle_dataset ~dim:2 ~k:30 43 in
  let _, r2 = mahal_ok ~confidence:1e-12 d2 in
  check_int "dim 2: every row reports a distance" 30
    (Array.length r2.p_dropped);
  check_bool "dim 2 screen == oracle" true
    (screen_matches_oracle ~confidence:1e-12 d2)

let test_oracle_shrinkage_rungs () =
  let d = oracle_dataset ~dim:6 ~k:60 ~dup:true 5 in
  let _, r = mahal_ok d in
  check_bool "duplicated heavy coordinates climb past the first rung" true
    (r.p_shrinkage > 0.05);
  check_bool "escalated screen == oracle" true (screen_matches_oracle d)

let test_point_screen_allocation () =
  (* At 200×150 the screen allocates ~0.1 M minor words, mostly its
     standardized rows; the element-wise version (the oracle above,
     which boxes a float per [Mat.get]/[set]) allocates ~24 M. Tests
     build without cross-module inlining, so a per-element accessor
     call back in a hot loop fails this bound. *)
  let d = gaussian_dataset ~dim:150 ~k:200 47 in
  let before = Gc.minor_words () in
  ignore (mahal_ok d);
  let words = Gc.minor_words () -. before in
  if words >= 1e6 then
    Alcotest.failf "point screen allocated %.0f minor words (bound 1e6)" words

let test_dense_multi_sweep_allocation () =
  (* K = 400, M = 300, Q = 4 training folds on a dense provider at one
     domain. The row-streaming kernel writes every fold's dots straight
     into float arrays (M > 256 floats, so they are major-heap blocks),
     leaving a few hundred minor words of closures and per-fold argmax
     pairs per call. A kernel that hands each (fold, column) dot to a
     closure boxes it in this build: at least 2·Q·M = 2400 words. *)
  let k = 400 and m = 300 and nq = 4 in
  let rng = Randkit.Prng.create 53 in
  let v = Randkit.Gaussian.vector rng (k * m) in
  let src =
    Polybasis.Design.Provider.dense
      (Linalg.Mat.init k m (fun i j -> v.((i * m) + j)))
  in
  let rows =
    Array.init nq (fun q ->
        Array.of_list
          (List.filter (fun i -> i mod nq <> q) (List.init k Fun.id)))
  in
  let rs =
    Array.map (fun idx -> Randkit.Gaussian.vector rng (Array.length idx)) rows
  in
  let skips = Array.init nq (fun _ -> Array.make m false) in
  let bound = float_of_int (nq * m) in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      let measure name = check_minor_words ("dense " ^ name) ~bound in
      measure "gram_tr_multi" (fun () ->
          ignore (Polybasis.Design.Provider.gram_tr_multi ~pool src ~rows rs));
      measure "argmax_abs_multi" (fun () ->
          ignore
            (Polybasis.Design.Provider.argmax_abs_multi ~pool ~skips src ~rows
               rs)))

let test_streamed_sweep_allocation () =
  (* K = 400, M = 300 (the quadratic basis over 23 factors), Q = 4
     training folds on a streamed provider at one domain. The kernel
     keeps its four column accumulators unboxed and stores them straight
     into float arrays, leaving a few hundred minor words of closures,
     scratch look-ups and argmax pairs per call. A kernel that boxes the
     four dots, or returns them as a tuple, allocates at least
     2·Q·M = 2400 words per fused call and 2·M = 600 per single one. *)
  let k = 400 and nq = 4 in
  let basis = Polybasis.Basis.quadratic 23 in
  let m = Polybasis.Basis.size basis in
  let rng = Randkit.Prng.create 59 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng 23) in
  let src = Polybasis.Design.Provider.streamed basis pts in
  let rows =
    Array.init nq (fun q ->
        Array.of_list
          (List.filter (fun i -> i mod nq <> q) (List.init k Fun.id)))
  in
  let rs =
    Array.map (fun idx -> Randkit.Gaussian.vector rng (Array.length idx)) rows
  in
  let r = Randkit.Gaussian.vector rng k in
  let skip = Array.make m false in
  let skips = Array.init nq (fun _ -> skip) in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      let measure name q =
        check_minor_words ("streamed " ^ name) ~bound:(float_of_int (q * m))
      in
      measure "gram_tr" 1 (fun () ->
          ignore (Polybasis.Design.Provider.gram_tr ~pool src r));
      measure "argmax_abs" 1 (fun () ->
          ignore (Polybasis.Design.Provider.argmax_abs ~pool ~skip src r));
      measure "gram_tr_multi" nq (fun () ->
          ignore (Polybasis.Design.Provider.gram_tr_multi ~pool src ~rows rs));
      measure "argmax_abs_multi" nq (fun () ->
          ignore
            (Polybasis.Design.Provider.argmax_abs_multi ~pool ~skips src ~rows
               rs)))

let qtest_point_screen_oracle =
  qtest ~count:80 "point screen bitwise == element-wise oracle (qcheck)"
    QCheck.(triple small_nat (int_bound (Array.length oracle_shapes - 1)) (int_bound 31))
    (fun (seed0, shape, flags) ->
      let dim, k = oracle_shapes.(shape) in
      let bit b = flags land (1 lsl b) <> 0 in
      let d =
        oracle_dataset ~dim ~k ~zero_mad:(bit 0) ~non_finite:(bit 1)
          ~far:(bit 2) ~dup:(bit 3) (1 + seed0)
      in
      let confidence = if bit 4 then 1e-12 else Robust.Screen.default_confidence in
      screen_matches_oracle ~confidence d)

(* --- qcheck properties --------------------------------------------- *)

let qtest_burst_domain_parity =
  qtest ~count:12 "burst runs bitwise at 1/2/4 domains (qcheck)"
    QCheck.(pair small_nat small_nat)
    (fun (seed0, k0) ->
      let sim, _ = small_sim () in
      let seed = 1 + seed0 and k = 40 + k0 in
      let base =
        Simulator.run_robust ~faults:burst_faults sim
          (Randkit.Prng.create seed) ~k
      in
      List.for_all
        (fun domains ->
          Parallel.Pool.with_pool ~domains (fun pool ->
              Simulator.run_robust ~pool ~faults:burst_faults sim
                (Randkit.Prng.create seed) ~k
              = base))
        [ 2; 4 ])

let qtest_mahalanobis_order_invariant =
  qtest ~count:30 "point-screen verdicts invariant to sample order (qcheck)"
    QCheck.small_nat
    (fun seed0 ->
      let seed = 1 + seed0 in
      let d = gaussian_dataset ~dim:3 ~k:50 seed in
      (* Plant one far point so both verdict classes are exercised. *)
      d.Simulator.points.(seed mod 50) <- [| 30.; -30.; 30. |];
      let perm = Randkit.Prng.permutation (Randkit.Prng.create (seed + 999)) 50 in
      let permuted =
        {
          Simulator.points = Array.map (fun j -> d.Simulator.points.(j)) perm;
          values = Array.map (fun j -> d.Simulator.values.(j)) perm;
        }
      in
      let kept_of data =
        match Robust.Screen.mahalanobis data with
        | Ok (_, r) -> r.Robust.Screen.p_kept
        | Error e -> Alcotest.fail (Robust.Error.to_string e)
      in
      let kept = kept_of d in
      let kept_p = kept_of permuted in
      (* Map the permuted verdicts back to original row identities. *)
      let back = Array.map (fun j -> perm.(j)) kept_p in
      Array.sort compare back;
      back = kept)

let qtest_response_screen_order_invariant =
  qtest ~count:30 "response-screen verdicts invariant to sample order (qcheck)"
    QCheck.small_nat
    (fun seed0 ->
      let seed = 1 + seed0 in
      let d = gaussian_dataset ~dim:2 ~k:41 seed in
      d.Simulator.values.(seed mod 41) <- 1e7;
      let perm = Randkit.Prng.permutation (Randkit.Prng.create (seed + 7)) 41 in
      let permuted =
        {
          Simulator.points = Array.map (fun j -> d.Simulator.points.(j)) perm;
          values = Array.map (fun j -> d.Simulator.values.(j)) perm;
        }
      in
      let kept_of data =
        match Robust.Screen.screen data with
        | Ok (_, r) -> r.Robust.Screen.kept
        | Error e -> Alcotest.fail (Robust.Error.to_string e)
      in
      let kept = kept_of d in
      let back = Array.map (fun j -> perm.(j)) (kept_of permuted) in
      Array.sort compare back;
      back = kept)

let suite =
  ( "burst",
    [
      case "markov: states are deterministic" test_markov_states_deterministic;
      case "markov: windows partition the burst steps"
        test_markov_windows_consistent;
      case "markov: degenerate chains and validation"
        test_markov_degenerate_chains;
      case "burst_states: pure function of the plan" test_burst_states_of_plan;
      case "burst injection: pool parity at 1/2/4 domains"
        test_burst_run_pool_parity;
      case "burst off: legacy plans unchanged" test_burst_off_is_bitwise_legacy;
      case "adaptive retry: clean run == run bitwise"
        test_retry_clean_matches_run;
      case "adaptive retry: pool parity at 1/2/4 domains"
        test_retry_pool_parity;
      case "breaker: trips, fails fast, recovers, costs less"
        test_breaker_trips_and_recovers;
      case "adaptive retry: validation" test_retry_policy_validation;
      case "mahalanobis: plants and flags a far point"
        test_mahalanobis_flags_far_point;
      case "mahalanobis: clean bulk survives" test_mahalanobis_clean_bulk_survives;
      case "mahalanobis: degenerate inputs and errors"
        test_mahalanobis_degenerate_and_errors;
      case "chi2 quantile: Wilson-Hilferty sanity" test_chi2_quantile_sanity;
      case "chi2 quantile: exact closed forms at dof 1-2"
        test_chi2_quantile_low_dof_exact;
      case "screen: two-sample MAD stands down"
        test_response_screen_two_sample_standdown;
      case "quorum: shortfall is a typed Simulation error"
        test_quorum_shortfall_is_typed;
      case "quorum: degraded fit notes the model and round-trips"
        test_degraded_fit_notes_and_roundtrip;
      case "quorum: full delivery carries no note"
        test_full_delivery_carries_no_note;
      case "pipeline: screen spaces compose" test_pipeline_screen_spaces;
      case "pipeline: adaptive burst fit is reproducible"
        test_pipeline_adaptive_deterministic;
      slow_case "pipeline: burst fit bitwise at 1/2/4 domains"
        test_burst_fit_pool_parity;
      case "cv: killed-then-resumed burst-trained sweep is bitwise"
        test_burst_cv_resume_bitwise;
      qtest_burst_domain_parity;
      qtest_mahalanobis_order_invariant;
      case "point screen oracle: nf < dim, every row reports"
        test_oracle_rank_deficient_every_row;
      case "point screen oracle: shrinkage past the first rung"
        test_oracle_shrinkage_rungs;
      case "point screen: minor allocation bound" test_point_screen_allocation;
      case "dense fused sweeps: minor allocation bound"
        test_dense_multi_sweep_allocation;
      case "streamed sweeps: minor allocation bound"
        test_streamed_sweep_allocation;
      qtest_point_screen_oracle;
      qtest_response_screen_order_invariant;
    ] )
