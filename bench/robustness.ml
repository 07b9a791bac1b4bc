(* Robustness scenario: the fault-tolerant pipeline under fire.

   Three claims are checked, PASS/FAIL per line:

   1. With 10% injected simulator faults (NaN returns, gross outliers,
      transient crashes), OMP and LAR still complete through the
      [Robust.Pipeline] and land within 2x of the clean-run testing
      error on the same seed.
   2. A checkpointed OMP, STAR or LAR fit killed mid-path and resumed
      from the last checkpoint produces a bitwise-identical model
      ([Rsm.Serialize.to_string] equality) to an uninterrupted run; a
      4-fold LAR CV sweep killed after two folds resumes from its
      per-fold checkpoint files to the same selection, bit for bit.
   3. Overheads are measured and printed (screening cost, injection +
      retry cost, LAR event-log checkpoint write and replay cost) so
      PERFORMANCE.md numbers stay reproducible.
   4. Under a correlated outage (a ~20-sample burst window where every
      attempt fails), the quorum-degraded pipeline still lands within
      2x of the clean testing error, and the adaptive breaker policy
      ([Robust.Retry]) spends measurably less accounted farm time than
      fixed retry — with the breaker recovery latency printed so
      PERFORMANCE.md stays reproducible. The burst numbers are merged
      into BENCH_speed.json under the "robustness" key. *)

open Bench_util
module Simulator = Circuit.Simulator
module Retry = Robust.Retry

let offset_sim ~quick =
  let amp = Circuit.Opamp.build ~n_parasitics:(if quick then 60 else 200) () in
  (Circuit.Opamp.simulator amp Circuit.Opamp.Offset, Circuit.Opamp.dim amp)

(* Outliers far outside any plausible bulk (offset >= 500 against a
   response spread of ~12), so the MAD screen must catch every one —
   borderline outliers inside the screen band are a statistics question,
   not a robustness one. *)
let bench_faults =
  Simulator.fault_plan ~rate:0.10 ~outlier_scale:500. ()

let pipeline_error ?(quorum = Robust.Pipeline.default_quorum) ?adaptive ~faults
    ~method_ ~samples ~test ~max_lambda sim basis =
  let cfg =
    match
      Robust.Pipeline.config ~method_ ~max_lambda ~samples ~faults
        ~retry:(Simulator.retry_policy ())
        ?adaptive ~quorum
        ~min_samples:(samples / 2) ()
    with
    | Ok cfg -> cfg
    | Error e -> failwith (Robust.Error.to_string e)
  in
  let rng = Randkit.Prng.create default_seed in
  match Robust.Pipeline.fit cfg sim basis rng with
  | Error e -> Error (Robust.Error.to_string e)
  | Ok o ->
      (* Fresh clean test set, decoupled from the training stream. *)
      let test_rng = Randkit.Prng.create (default_seed + 1) in
      let td = Simulator.run sim test_rng ~k:test in
      let src_te =
        Polybasis.Design.Provider.dense
          (Polybasis.Design.matrix_rows basis td.Simulator.points)
      in
      Ok (Rsm.Model.error_on_p o.Robust.Pipeline.model src_te td.Simulator.values, o)

let check failures name ok detail =
  Printf.printf "  [%s] %s%s\n"
    (if ok then "PASS" else "FAIL")
    name
    (if detail = "" then "" else " — " ^ detail);
  if not ok then failures := name :: !failures

(* Claim 2: kill the fit at [kill_at] selections (keeping the last
   checkpoint), resume, and compare the final model byte-for-byte with
   an uninterrupted run — for a greedy solver given by its [fit_p]
   (with or without a resume checkpoint) and [path_p]. *)
let checkpoint_roundtrip ~fit_p ~path_p ~lambda ~kill_at =
  let full = fit_p None ~lambda in
  let last = ref None in
  ignore
    (path_p
       ~log:(walk_log ~every:5 ~save:(fun c -> last := Some c) ())
       ~max_lambda:kill_at);
  match !last with
  | None -> false
  | Some ckpt ->
      let resumed = fit_p (Some ckpt) ~lambda in
      Rsm.Serialize.to_string resumed = Rsm.Serialize.to_string full

(* LAR walks an equiangular path, so its checkpoint is an event log
   replayed against the provider rather than a support list. *)
let checkpoint_roundtrip_lar src f ~lambda ~kill_at =
  let full = Rsm.Lars.fit_p ~on_singular:`Fallback src f ~lambda in
  let last = ref None in
  let _interrupted : Rsm.Lars.step array =
    Rsm.Lars.path_p ~on_singular:`Fallback
      ~log:(walk_log ~every:5 ~save:(fun c -> last := Some c) ())
      src f ~max_steps:kill_at
  in
  match !last with
  | None -> false
  | Some ckpt ->
      let resumed =
        Rsm.Lars.fit_p ~on_singular:`Fallback ~log:(walk_log ~resume:ckpt ())
          src f ~lambda
      in
      Rsm.Serialize.to_string resumed = Rsm.Serialize.to_string full

(* A 4-fold CV sweep killed after two folds: the surviving per-fold
   checkpoint files must carry the resumed sweep to the same bits. *)
let cv_resume_roundtrip src f ~max_lambda =
  let run ?checkpoint ?resume () =
    Rsm.Select.lars_p
      ?store:(ok (Rsm.Select.store ?resume checkpoint))
      ~on_singular:`Fallback
      (Randkit.Prng.create default_seed)
      ~max_lambda src f
  in
  let fingerprint (r : Rsm.Select.result) =
    ( r.Rsm.Select.lambda,
      Array.copy r.Rsm.Select.curve,
      Rsm.Serialize.to_string r.Rsm.Select.model )
  in
  let full = fingerprint (run ()) in
  let dir = Filename.temp_file "rsm-bench-cv" "" in
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
      fingerprint (run ~checkpoint:base ~resume:true ()) = full)

let run ~quick () =
  let samples = if quick then 200 else 500 in
  let test = if quick then 400 else 1000 in
  let max_lambda = if quick then 12 else 25 in
  let sim, dim = offset_sim ~quick in
  let basis = Polybasis.Basis.constant_linear dim in
  Printf.printf
    "\n=== Robustness: 10%% fault injection, screening, checkpoint/resume ===\n";
  Printf.printf
    "OpAmp offset, %d factors, K = %d training / %d testing samples\n" dim
    samples test;
  let failures = ref [] in

  (* --- Claim 1: fit quality under faults, OMP and LAR. --- *)
  List.iter
    (fun method_ ->
      let name = Rsm.Solver.name method_ in
      match
        pipeline_error ~faults:Simulator.no_faults ~method_ ~samples ~test
          ~max_lambda sim basis
      with
      | Error e -> check failures (name ^ " clean fit") false e
      | Ok (clean_err, _) -> (
          match
            pipeline_error ~faults:bench_faults ~method_ ~samples ~test
              ~max_lambda sim basis
          with
          | Error e -> check failures (name ^ " faulty fit") false e
          | Ok (fault_err, o) ->
              let r = o.Robust.Pipeline.run_report in
              let hygiene =
                match o.Robust.Pipeline.screen_report with
                | Some s -> Robust.Screen.report_summary s
                | None -> "screen: off"
              in
              Printf.printf "  %-5s clean %.2f%%  faulty %.2f%%  (%d faults, \
                             %d retries; %s)\n"
                name (100. *. clean_err) (100. *. fault_err)
                r.Simulator.faults_injected r.Simulator.retries hygiene;
              check failures
                (name ^ " within 2x of clean error under 10% faults")
                (Float.is_finite fault_err
                && fault_err <= (2. *. clean_err) +. 1e-12)
                (Printf.sprintf "%.2f%% vs %.2f%%" (100. *. fault_err)
                   (100. *. clean_err))))
    [ Rsm.Solver.Omp; Rsm.Solver.Lar ];

  (* --- Claim 2: bitwise checkpoint/resume. --- *)
  let rng = Randkit.Prng.create default_seed in
  let data = Simulator.run sim rng ~k:samples in
  let src =
    Polybasis.Design.Provider.dense
      (Polybasis.Design.matrix_rows basis data.Simulator.points)
  in
  let f = data.Simulator.values in
  let lambda = min max_lambda (min samples (Polybasis.Basis.size basis)) in
  check failures "OMP killed-at-10-then-resumed fit is bitwise identical"
    (checkpoint_roundtrip
       ~fit_p:(fun resume -> Rsm.Omp.fit_p ~log:(walk_log ?resume ()) src f)
       ~path_p:(fun ~log -> Rsm.Omp.path_p ~log src f)
       ~lambda ~kill_at:(min 10 lambda))
    "";
  check failures "STAR killed-at-10-then-resumed fit is bitwise identical"
    (checkpoint_roundtrip
       ~fit_p:(fun resume -> Rsm.Star.fit_p ~log:(walk_log ?resume ()) src f)
       ~path_p:(fun ~log -> Rsm.Star.path_p ~log src f)
       ~lambda ~kill_at:(min 10 lambda))
    "";
  check failures "LAR killed-at-10-then-resumed fit is bitwise identical"
    (checkpoint_roundtrip_lar src f ~lambda ~kill_at:(min 10 lambda))
    "";
  check failures "LAR 4-fold CV killed-after-2-folds resumes bitwise"
    (cv_resume_roundtrip src f ~max_lambda:(min 8 lambda))
    "";

  (* --- Claim 3: measured overheads. --- *)
  let reps = if quick then 10 else 20 in
  let timed_mean f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let t_clean =
    timed_mean (fun () ->
        let rng = Randkit.Prng.create default_seed in
        ignore (Simulator.run sim rng ~k:samples))
  in
  let t_robust =
    timed_mean (fun () ->
        let rng = Randkit.Prng.create default_seed in
        ignore
          (Simulator.run_robust ~faults:bench_faults
             ~retry:(Simulator.retry_policy ()) sim rng ~k:samples))
  in
  let t_screen = timed_mean (fun () -> ignore (Robust.Screen.screen data)) in
  Printf.printf
    "  overhead: clean sampling %.2f ms, 10%%-fault sampling+retry %.2f ms \
     (%+.0f%%), MAD screen of %d rows %.3f ms (means of %d runs)\n"
    (1e3 *. t_clean) (1e3 *. t_robust)
    (100. *. ((t_robust /. Float.max t_clean 1e-9) -. 1.))
    samples (1e3 *. t_screen) reps;
  (* LARS walk-log checkpointing: per-step capture + atomic file write
     on the walk, and full-log replay against the provider on resume. *)
  let ckpt_file = Filename.temp_file "rsm-bench-lar" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists ckpt_file then Sys.remove ckpt_file)
    (fun () ->
      let t_lar_plain =
        timed_mean (fun () ->
            ignore
              (Rsm.Lars.path_p ~on_singular:`Fallback src f ~max_steps:lambda))
      in
      let t_lar_ckpt =
        timed_mean (fun () ->
            ignore
              (Rsm.Lars.path_p ~on_singular:`Fallback
                 ~log:
                   (walk_log ~every:1
                      ~save:(Rsm.Serialize.Checkpoint.save ckpt_file) ())
                 src f ~max_steps:lambda))
      in
      let terminal =
        match Rsm.Serialize.Checkpoint.load ckpt_file with
        | Ok c -> c
        | Error e -> failwith e
      in
      let t_lar_replay =
        timed_mean (fun () ->
            ignore
              (Rsm.Lars.path_p ~on_singular:`Fallback
                 ~log:(walk_log ~resume:terminal ())
                 src f ~max_steps:lambda))
      in
      Printf.printf
        "  checkpoint: LAR %d-step path %.2f ms plain, %.2f ms with \
         every-step file checkpoints (%+.0f%%), %.2f ms full-log replay on \
         resume (means of %d runs)\n"
        lambda (1e3 *. t_lar_plain) (1e3 *. t_lar_ckpt)
        (100. *. ((t_lar_ckpt /. Float.max t_lar_plain 1e-9) -. 1.))
        (1e3 *. t_lar_replay) reps);

  (* --- Claim 4: correlated burst outages, quorum, adaptive breaker. --- *)
  (* A burst model sized so a handful of ~20-sample outage windows fall
     inside the run: every attempt inside a window fails (rate 1), so
     fixed retry burns its full allowance per burst sample while the
     breaker fails fast through the window. *)
  let burst =
    Simulator.burst_model ~entry:(2.5 /. float_of_int samples) ~len:20. ()
  in
  let burst_faults = Simulator.fault_plan ~rate:0.02 ~burst () in
  (match
     pipeline_error ~faults:Simulator.no_faults ~method_:Rsm.Solver.Omp
       ~samples ~test ~max_lambda sim basis
   with
  | Error e -> check failures "OMP clean fit (burst baseline)" false e
  | Ok (clean_err, _) -> (
      match
        pipeline_error ~quorum:0.7 ~faults:burst_faults ~method_:Rsm.Solver.Omp
          ~samples ~test ~max_lambda sim basis
      with
      | Error e -> check failures "OMP burst fit" false e
      | Ok (burst_err, o) ->
          let r = o.Robust.Pipeline.run_report in
          let degraded =
            Array.exists
              (fun n ->
                String.length n >= 9 && String.sub n 0 9 = "degraded:")
              (Rsm.Model.notes o.Robust.Pipeline.model)
          in
          Printf.printf
            "  burst: %d window(s) over %d sample(s), %d delivered of %d \
             requested%s\n"
            r.Simulator.burst_windows r.Simulator.burst_samples
            r.Simulator.delivered samples
            (if degraded then " (fit degraded, noted on the model)" else "");
          check failures "burst run really hit an outage window"
            (r.Simulator.burst_windows > 0)
            (Printf.sprintf "%d windows" r.Simulator.burst_windows);
          check failures
            "OMP within 2x of clean error under a 20-sample burst outage"
            (Float.is_finite burst_err
            && burst_err <= (2. *. clean_err) +. 1e-12)
            (Printf.sprintf "%.2f%% vs %.2f%%" (100. *. burst_err)
               (100. *. clean_err));
          check failures "sub-full delivery is noted on the model"
            (r.Simulator.delivered >= samples || degraded)
            "";

          (* Adaptive breaker vs fixed retry under a hard outage: same
             plan, same attempt ceiling, compare accounted farm seconds
             (the metric a real flow pays) and local wall-clock. *)
          let storm =
            Simulator.fault_plan ~rate:0.
              ~burst:
                (Simulator.burst_model ~entry:(3. /. float_of_int samples)
                   ~len:25. ())
              ()
          in
          let fixed_retry = Simulator.retry_policy ~max_attempts:4 () in
          let adaptive =
            Retry.policy ~max_attempts:4 ~breaker_threshold:3 ()
          in
          let _, fixed_report =
            Simulator.run_robust ~faults:storm ~retry:fixed_retry sim
              (Randkit.Prng.create default_seed)
              ~k:samples
          in
          let _, adaptive_report =
            Retry.run ~faults:storm adaptive sim
              (Randkit.Prng.create default_seed)
              ~k:samples
          in
          let ar = adaptive_report.Retry.run in
          let t_fixed =
            timed_mean (fun () ->
                ignore
                  (Simulator.run_robust ~faults:storm ~retry:fixed_retry sim
                     (Randkit.Prng.create default_seed)
                     ~k:samples))
          in
          let t_adaptive =
            timed_mean (fun () ->
                ignore
                  (Retry.run ~faults:storm adaptive sim
                     (Randkit.Prng.create default_seed)
                     ~k:samples))
          in
          (* Breaker recovery latency: samples from each trip to the
             breaker closing again (cooldown + the half-open probe). *)
          let recovery =
            let events = adaptive_report.Retry.events in
            let total = ref 0 and n = ref 0 and open_at = ref (-1) in
            Array.iter
              (fun e ->
                match e with
                | Retry.Tripped { sample; _ } ->
                    if !open_at < 0 then open_at := sample
                | Retry.Closed { sample } when !open_at >= 0 ->
                    total := !total + (sample - !open_at);
                    incr n;
                    open_at := -1
                | _ -> ())
              events;
            if !n = 0 then Float.nan
            else float_of_int !total /. float_of_int !n
          in
          Printf.printf
            "  backoff: fixed retry %.0f accounted s, adaptive breaker %.0f \
             accounted s (%.0f%% saved; %d trip(s), mean recovery %.1f \
             samples); wall %.2f ms vs %.2f ms (means of %d runs)\n"
            fixed_report.Simulator.accounted_extra_seconds
            ar.Simulator.accounted_extra_seconds
            (100.
            *. (1.
               -. ar.Simulator.accounted_extra_seconds
                  /. Float.max fixed_report.Simulator.accounted_extra_seconds
                       1e-9))
            ar.Simulator.breaker_trips recovery (1e3 *. t_fixed)
            (1e3 *. t_adaptive) reps;
          check failures
            "adaptive breaker charges less accounted time than fixed retry"
            (ar.Simulator.accounted_extra_seconds
            < fixed_report.Simulator.accounted_extra_seconds)
            (Printf.sprintf "%.0f s vs %.0f s"
               ar.Simulator.accounted_extra_seconds
               fixed_report.Simulator.accounted_extra_seconds);
          check failures "breaker tripped during the outage"
            (ar.Simulator.breaker_trips > 0)
            "";
          let payload =
            Printf.sprintf
              "{\"samples\": %d, \"clean_err_pct\": %.3f, \"burst_err_pct\": \
               %.3f, \"burst_windows\": %d, \"burst_samples\": %d, \
               \"degraded\": %B, \"fixed_accounted_s\": %.1f, \
               \"adaptive_accounted_s\": %.1f, \"breaker_trips\": %d, \
               \"recovery_latency_samples\": %.1f, \"wall_fixed_ms\": %.2f, \
               \"wall_adaptive_ms\": %.2f}"
              samples (100. *. clean_err) (100. *. burst_err)
              r.Simulator.burst_windows r.Simulator.burst_samples degraded
              fixed_report.Simulator.accounted_extra_seconds
              ar.Simulator.accounted_extra_seconds ar.Simulator.breaker_trips
              recovery (1e3 *. t_fixed) (1e3 *. t_adaptive)
          in
          update_summary ~scenario:"robustness" ~payload;
          Printf.printf "summary updated in %s\n%!" summary_file));

  (match !failures with
  | [] ->
      Printf.printf "robustness: all checks passed\n";
      true
  | fs ->
      Printf.printf "robustness: %d check(s) FAILED\n" (List.length fs);
      false)
