(* Sample delivery: simulate -> screen -> quorum, single- and multi-output.

   Contracts under test:
   - golden digests pin the datasets and run reports of
     Simulator.run_robust, of run_robust_multi over one and three
     simulators, and of the adaptive Retry.run under the policy the
     programs build (events included), under
     a fault plan with outage bursts, at two seeds, with and without a
     domain pool. Fixed digests are the oracle for run_robust: it is
     the one-simulator case of run_robust_multi, so comparing the two
     would check nothing.
   - Pipeline.fit cfg sim and Pipeline.fit_multi cfg [|sim|] agree on
     the rows, the run report, the screen reports and the model bytes,
     for every screen space, on a quorum-degraded delivery. *)
open Test_util
module Sim = Circuit.Simulator
module Pipeline = Robust.Pipeline

(* --- canonical bytes of delivery results ----------------------------- *)

let add_int b n = Buffer.add_string b (Printf.sprintf "%d;" n)

let add_float b x =
  Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float x))

let add_dataset b (d : Sim.dataset) =
  add_int b (Array.length d.Sim.points);
  Array.iter (Array.iter (add_float b)) d.Sim.points;
  Array.iter (add_float b) d.Sim.values

let add_report b (r : Sim.run_report) =
  List.iter (add_int b)
    [
      r.Sim.requested;
      r.delivered;
      r.faults_injected;
      r.nonfinite_faults;
      r.outliers_injected;
      r.transient_faults;
      r.hang_faults;
      r.retries;
      r.burst_windows;
      r.burst_samples;
      r.burst_faults;
      r.breaker_trips;
    ];
  Array.iter (add_int b) r.failed;
  add_float b r.accounted_extra_seconds

let add_event b = function
  | Robust.Retry.Backoff { sample; attempt; seconds } ->
      Buffer.add_char b 'B';
      add_int b sample;
      add_int b attempt;
      add_float b seconds
  | Tripped { sample; consecutive; cooldown } ->
      Buffer.add_char b 'T';
      List.iter (add_int b) [ sample; consecutive; cooldown ]
  | Fast_fail { sample } ->
      Buffer.add_char b 'F';
      add_int b sample
  | Probe { sample; delivered } ->
      Buffer.add_char b 'P';
      add_int b sample;
      add_int b (Bool.to_int delivered)
  | Closed { sample } ->
      Buffer.add_char b 'C';
      add_int b sample

let digest fill =
  let b = Buffer.create 4096 in
  fill b;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- the pinned deliveries ------------------------------------------- *)

(* Three cheap evaluators on one 4-factor space. The first diverges
   (NaN) in a corner of the space, so genuine evaluator failures are
   exercised next to the injected ones. *)
let sims =
  [|
    Sim.make ~name:"a" ~dim:4 ~seconds_per_sample:2. (fun p ->
        if p.(0) > 1.8 then Float.nan else p.(0) +. (0.5 *. p.(1) *. p.(2)));
    Sim.make ~name:"b" ~dim:4 ~seconds_per_sample:0.5 (fun p ->
        (3. *. p.(3)) -. (p.(1) *. p.(1)));
    Sim.make ~name:"c" ~dim:4 ~seconds_per_sample:1.25 (fun p ->
        exp (0.3 *. p.(2)) +. p.(0));
  |]

(* Every fault kind, outage bursts, and a seed per scenario. *)
let plan fault_seed =
  Sim.fault_plan ~rate:0.2
    ~mix:
      [|
        (Sim.Nan_return, 1.);
        (Sim.Inf_return, 1.);
        (Sim.Outlier, 1.);
        (Sim.Transient, 2.);
        (Sim.Hang, 1.);
      |]
    ~hang_seconds:7.5 ~fault_seed
    ~burst:
      (Sim.burst_model ~entry:0.04 ~len:6. ~rate:0.9 ~seed:(fault_seed + 1) ())
    ()

let retry = Sim.retry_policy ~max_attempts:3 ~backoff_seconds:0.5 ()

(* The policy every program builds: only the attempt count and the
   breaker threshold are set. *)
let program_policy = Robust.Retry.policy ~max_attempts:4 ~breaker_threshold:3 ()

let k = 150

(* (sampling seed, fault seed, noise_rel) *)
let scenarios = [ (11, 0x5eed, 0.); (2026, 77, 0.02) ]

let with_and_without_pool f =
  let plain = f None in
  let pooled =
    Parallel.Pool.with_pool ~domains:2 (fun pool -> f (Some pool))
  in
  check_bool "pool run equals sequential run" true (plain = pooled);
  plain

let run_robust_digest (seed, fault_seed, noise_rel) =
  with_and_without_pool (fun pool ->
      let d, r =
        Sim.run_robust ~noise_rel ?pool ~faults:(plan fault_seed) ~retry
          sims.(0) (Randkit.Prng.create seed) ~k
      in
      digest (fun b ->
          add_dataset b d;
          add_report b r))

let run_robust_multi_digest sims (seed, fault_seed, noise_rel) =
  with_and_without_pool (fun pool ->
      let ds, r =
        Sim.run_robust_multi ~noise_rel ?pool ~faults:(plan fault_seed) ~retry
          sims (Randkit.Prng.create seed) ~k
      in
      digest (fun b ->
          Array.iter (add_dataset b) ds;
          add_report b r))

let retry_run_digest (seed, fault_seed, noise_rel) =
  with_and_without_pool (fun pool ->
      let d, r =
        Robust.Retry.run ~noise_rel ?pool ~faults:(plan fault_seed)
          program_policy sims.(0) (Randkit.Prng.create seed) ~k
      in
      digest (fun b ->
          add_dataset b d;
          add_report b r.Robust.Retry.run;
          Array.iter (add_event b) r.Robust.Retry.events;
          add_int b r.Robust.Retry.retries_granted))

let check_golden name run expected =
  List.iter2
    (fun scenario want ->
      let (seed, _, _) = scenario in
      Alcotest.(check string)
        (Printf.sprintf "%s digest at seed %d" name seed)
        want (run scenario))
    scenarios expected

let test_golden_run_robust () =
  check_golden "run_robust" run_robust_digest
    [ "1e947e9b2392cdbe66ee8f0680eb1243"; "ca2d7eba802f4cc8b3453169a46b5318" ]

let test_golden_run_robust_multi_1 () =
  check_golden "run_robust_multi x1"
    (run_robust_multi_digest [| sims.(0) |])
    [ "1e947e9b2392cdbe66ee8f0680eb1243"; "ca2d7eba802f4cc8b3453169a46b5318" ]

let test_golden_run_robust_multi_3 () =
  check_golden "run_robust_multi x3" (run_robust_multi_digest sims)
    [ "2859a848617f3e9e0c174823bdf7143b"; "7d50931e5e1f39193fe56c55198823a6" ]

let test_golden_retry_run () =
  check_golden "Retry.run" retry_run_digest
    [ "9036c9ea50549958085e13b85e779595"; "662f2df4f4a2301324f6465f752ece05" ]

(* --- Pipeline.fit == Pipeline.fit_multi over one simulator ------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_fit_equals_fit_multi_of_one () =
  let amp = Circuit.Opamp.build ~n_parasitics:10 () in
  let sim = Circuit.Opamp.simulator amp Circuit.Opamp.Offset in
  let basis = Polybasis.Basis.constant_linear (Circuit.Opamp.dim amp) in
  let faults =
    Sim.fault_plan ~rate:0.15
      ~burst:(Sim.burst_model ~entry:0.03 ~len:5. ())
      ()
  in
  List.iter
    (fun screen_space ->
      let space = Pipeline.screen_space_to_string screen_space in
      let cfg =
        match
          Pipeline.config ~method_:Rsm.Solver.Lar ~samples:90 ~max_lambda:6
            ~faults ~retry:(Sim.retry_policy ~max_attempts:2 ())
            ~screen_space ~min_samples:20 ~quorum:0.5 ~rescreen:true ()
        with
        | Ok cfg -> cfg
        | Error e -> Alcotest.failf "config: %s" (Robust.Error.to_string e)
      in
      let fail e = Alcotest.failf "%s: %s" space (Robust.Error.to_string e) in
      let o =
        match Pipeline.fit cfg sim basis (Randkit.Prng.create 5) with
        | Ok o -> o
        | Error e -> fail e
      in
      let m =
        match
          Pipeline.fit_multi cfg [| sim |] basis (Randkit.Prng.create 5)
        with
        | Ok m -> m
        | Error e -> fail e
      in
      let bytes d = digest (fun b -> add_dataset b d) in
      let label s = Printf.sprintf "%s: %s" space s in
      check_bool (label "delivery is degraded") true
        (Array.exists
           (fun n -> contains n "degraded: ")
           (Rsm.Model.notes o.Pipeline.model));
      Alcotest.(check string)
        (label "same rows") (bytes o.Pipeline.dataset)
        (bytes m.Pipeline.datasets.(0));
      check_bool (label "same run report") true
        (o.Pipeline.run_report = m.Pipeline.m_run_report);
      check_bool (label "same response screen report") true
        (o.Pipeline.screen_report = m.Pipeline.screen_reports.(0));
      check_bool (label "same point screen report") true
        (o.Pipeline.point_report = m.Pipeline.m_point_report);
      Alcotest.(check string)
        (label "same model bytes")
        (Rsm.Serialize.to_string o.Pipeline.model)
        (Rsm.Serialize.to_string m.Pipeline.models.(0)))
    [ Pipeline.Response; Pipeline.Factor; Pipeline.Both ]

let suite =
  ( "delivery",
    [
      case "golden: run_robust" test_golden_run_robust;
      case "golden: run_robust_multi x1" test_golden_run_robust_multi_1;
      case "golden: run_robust_multi x3" test_golden_run_robust_multi_3;
      case "golden: Retry.run" test_golden_retry_run;
      case "fit == fit_multi of one simulator" test_fit_equals_fit_multi_of_one;
    ] )
