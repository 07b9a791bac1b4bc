(* Multi-output fused fitting.

   Contracts under test:
   - run_robust_multi shares one point set and one fault history across
     outputs, and each output's dataset is bitwise equal to the
     per-output run_robust with a copy of the same generator (finite
     evaluators); a single-simulator multi run equals run_robust
     exactly, report included.
   - Crossval.run_fold_curves_multi equals the per-cell fold loop at one
     output and at three, skips cached cells, stores fresh ones and
     validates its inputs.
   - the multi-output grid (omp/star/lars_multi_p) is bitwise equal to
     R independent single-output selections, dense (per-job driver) and
     streamed (fused driver), at 1/2/4 domains, for every path solver —
     including the Lars.Engine walk against Lars.path_p.
   - Solver.select_multi_p's fused (streamed design) and per-job (dense
     design) drivers agree bitwise, both agree with R independent
     fit_cv_p calls, and both leave the caller's generator where one
     fit_cv_p leaves it.
   - the grid's Cell checkpoint files resume bitwise after deleting
     arbitrary cells, resume across drivers (fused grid <-> per-job),
     and each cell rejects a sweep of another grid shape.
   - Select.fused_driver is the one rule: fused exactly when the design
     is streamed, the sweep exact and the fit unsharded;
     Pipeline.fit_multi rejects adaptive retry as Error (Config _).
   - Pipeline.fit_multi shares rows across outputs and its two drivers
     (streamed and dense designs) produce bitwise-identical models. *)
open Test_util
module P = Polybasis.Design.Provider
module Sim = Circuit.Simulator

let pool_counts = [ 1; 2; 4 ]

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

(* --- run_robust_multi ---------------------------------------------- *)

let sims3 =
  [|
    Sim.make ~name:"a" ~dim:3 ~seconds_per_sample:1. (fun p ->
        p.(0) +. (2. *. p.(1)));
    Sim.make ~name:"b" ~dim:3 ~seconds_per_sample:2. (fun p ->
        p.(2) -. (p.(0) *. p.(1)));
    Sim.make ~name:"c" ~dim:3 ~seconds_per_sample:0.5 (fun p ->
        (3. *. p.(2)) +. (p.(1) *. p.(1)));
  |]

let faulty =
  Sim.fault_plan ~rate:0.3
    ~burst:(Sim.burst_model ~entry:0.05 ~len:4. ()) ()

let report_sans_extra (r : Sim.run_report) =
  { r with Sim.accounted_extra_seconds = 0. }

let test_run_robust_multi_parity () =
  let retry = Sim.retry_policy ~max_attempts:2 () in
  let g = Randkit.Prng.create 42 in
  let ds, rep =
    Sim.run_robust_multi ~faults:faulty ~retry sims3 (Randkit.Prng.copy g)
      ~k:60
  in
  check_bool "points physically shared" true
    (ds.(0).Sim.points == ds.(1).Sim.points
    && ds.(1).Sim.points == ds.(2).Sim.points);
  Array.iteri
    (fun r sim ->
      let d, rep1 =
        Sim.run_robust ~faults:faulty ~retry sim (Randkit.Prng.copy g) ~k:60
      in
      check_bool
        (Printf.sprintf "output %d values bitwise equal per-output run" r)
        true
        (ds.(r).Sim.values = d.Sim.values);
      check_bool
        (Printf.sprintf "output %d points equal per-output run" r)
        true
        (ds.(r).Sim.points = d.Sim.points);
      (* The report matches the per-output account except for the
         accounted retry cost, which in the multi run charges the
         summed per-sample cost of all simulators. *)
      check_bool
        (Printf.sprintf "output %d report equal modulo extra seconds" r)
        true
        (report_sans_extra rep = report_sans_extra rep1))
    sims3;
  (* A single-simulator multi run is run_robust exactly, report and
     all. *)
  let ds1, rep_a =
    Sim.run_robust_multi ~faults:faulty ~retry
      [| sims3.(0) |]
      (Randkit.Prng.copy g) ~k:60
  in
  let d1, rep_b =
    Sim.run_robust ~faults:faulty ~retry sims3.(0) (Randkit.Prng.copy g) ~k:60
  in
  check_bool "single-output multi == run_robust (dataset)" true
    (ds1.(0) = d1);
  check_bool "single-output multi == run_robust (report)" true (rep_a = rep_b);
  ignore rep

let test_run_robust_multi_pool_invariant () =
  let retry = Sim.retry_policy ~max_attempts:3 () in
  let seq =
    Sim.run_robust_multi ~faults:faulty ~retry sims3
      (Randkit.Prng.create 7) ~k:50
  in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let par =
        Sim.run_robust_multi ~pool ~faults:faulty ~retry sims3
          (Randkit.Prng.create 7) ~k:50
      in
      check_bool "datasets pool-invariant" true (fst seq = fst par);
      check_bool "report pool-invariant" true (snd seq = snd par))

let test_run_robust_multi_validation () =
  check_raises_invalid "empty sims" (fun () ->
      Sim.run_robust_multi [||] (Randkit.Prng.create 1) ~k:5);
  check_raises_invalid "k = 0" (fun () ->
      Sim.run_robust_multi sims3 (Randkit.Prng.create 1) ~k:0);
  let odd = Sim.make ~name:"odd" ~dim:2 ~seconds_per_sample:1. (fun _ -> 0.) in
  check_raises_invalid "dimension mismatch" (fun () ->
      Sim.run_robust_multi [| sims3.(0); odd |] (Randkit.Prng.create 1) ~k:5)

(* --- Crossval.run_fold_curves_multi -------------------------------- *)

let test_fold_curves_multi () =
  let rng = Randkit.Prng.create 5 in
  let plan = Stat.Crossval.make_plan rng ~n:20 ~folds:4 in
  let curve_of r q ~train ~held_out =
    [|
      float_of_int ((10 * r) + q + Array.length train);
      float_of_int (Array.length held_out);
    |]
  in
  let fit_curves seen jobs finish =
    seen := Array.to_list (Array.map (fun (r, q, _, _) -> (r, q)) jobs);
    (* Finish the cells last to first, as worker domains may. *)
    for i = Array.length jobs - 1 downto 0 do
      let r, q, train, held_out = jobs.(i) in
      finish i (curve_of r q ~train ~held_out)
    done
  in
  List.iter
    (fun outputs ->
      let tag = Printf.sprintf "outputs=%d" outputs in
      let reference =
        Array.init outputs (fun r ->
            Array.init 4 (fun q ->
                let train, held_out = Stat.Crossval.fold_indices plan q in
                curve_of r q ~train ~held_out))
      in
      check_bool (tag ^ ": grid equals the per-cell loop") true
        (Stat.Crossval.run_fold_curves_multi ~outputs plan
           ~fit_curves:(fit_curves (ref []))
        = reference);
      (* With fold 1 of every output cached, the grid hands only the
         other cells to fit_curves, output-major, and stores each. *)
      let stored = ref [] in
      let caches =
        Array.init outputs (fun r ->
            Some
              Stat.Crossval.
                {
                  load = (fun q -> if q = 1 then Some reference.(r).(1) else None);
                  store = (fun q c -> stored := ((r, q), c) :: !stored);
                })
      in
      let seen = ref [] in
      let cached =
        Stat.Crossval.run_fold_curves_multi ~caches ~outputs plan
          ~fit_curves:(fit_curves seen)
      in
      let fresh =
        List.concat_map
          (fun r -> List.map (fun q -> (r, q)) [ 0; 2; 3 ])
          (List.init outputs Fun.id)
      in
      check_bool (tag ^ ": cached cells skipped") true (!seen = fresh);
      check_bool (tag ^ ": fresh cells stored") true
        (List.sort compare !stored
        = List.map (fun (r, q) -> ((r, q), reference.(r).(q))) fresh);
      check_bool (tag ^ ": cached grid equals the per-cell loop") true
        (cached = reference);
      check_raises_invalid (tag ^ ": curve count mismatch") (fun () ->
          Stat.Crossval.run_fold_curves_multi ~outputs plan
            ~fit_curves:(fun _ _ -> ()));
      check_raises_invalid (tag ^ ": cache count mismatch") (fun () ->
          Stat.Crossval.run_fold_curves_multi ~caches:[| None; None |]
            ~outputs plan ~fit_curves:(fit_curves (ref []))))
    [ 1; 3 ];
  check_raises_invalid "outputs must be positive" (fun () ->
      Stat.Crossval.run_fold_curves_multi ~outputs:0 plan
        ~fit_curves:(fun _ _ -> ()))

(* --- fused multi-output selection vs independent fits --------------- *)

let result_bits (r : Rsm.Select.result) =
  (r.Rsm.Select.lambda, Array.copy r.Rsm.Select.curve,
   model_bits r.Rsm.Select.model)

let prop_fused_multi_bitwise solver seed =
  let rng, basis, pts, g = random_setting seed in
  let src_s = P.streamed basis pts in
  let src_d = P.dense g in
  let outputs = 1 + Randkit.Prng.int rng 3 in
  let fs = Array.init outputs (fun _ -> sparse_response rng src_d) in
  let fused_multi pool src =
    let r0 = Randkit.Prng.create (seed + 11) in
    match solver with
    | `Omp -> Rsm.Select.omp_multi_p ~pool r0 ~max_lambda:5 src fs
    | `Star -> Rsm.Select.star_multi_p ~pool r0 ~max_lambda:5 src fs
    | `Lar ->
        Rsm.Select.lars_multi_p ~pool ~mode:Rsm.Lars.Lar r0 ~max_lambda:5 src
          fs
    | `Lasso ->
        Rsm.Select.lars_multi_p ~pool ~mode:Rsm.Lars.Lasso r0 ~max_lambda:5
          src fs
  in
  let single pool src f =
    (* An independent single-output selection from the same generator
       state. On the dense design it runs the per-job driver, so both
       grids are checked against the plain path_p walks. *)
    let r0 = Randkit.Prng.create (seed + 11) in
    match solver with
    | `Omp -> Rsm.Select.omp_p ~pool r0 ~max_lambda:5 src f
    | `Star -> (Rsm.Select.star_multi_p ~pool r0 ~max_lambda:5 src [| f |]).(0)
    | `Lar -> Rsm.Select.lars_p ~pool ~mode:Rsm.Lars.Lar r0 ~max_lambda:5 src f
    | `Lasso ->
        Rsm.Select.lars_p ~pool ~mode:Rsm.Lars.Lasso r0 ~max_lambda:5 src f
  in
  List.iter
    (fun src ->
      let name = if P.is_streamed src then "streamed" else "dense" in
      let results =
        List.map
          (fun d ->
            Parallel.Pool.with_pool ~domains:d (fun pool ->
                let grid = Array.map result_bits (fused_multi pool src) in
                let indep =
                  Array.map (fun f -> result_bits (single pool src_d f)) fs
                in
                check_bool
                  (Printf.sprintf
                     "%s grid == independent fits (%d outputs)" name
                     outputs)
                  true (grid = indep);
                grid))
          pool_counts
      in
      all_equal (Printf.sprintf "%s grid across domains" name) results)
    [ src_d; src_s ];
  (* Repeated basis terms: once a column is active, its duplicate ties
     it and is banned under `Fallback, so the lockstep driver runs
     zero-length ban steps. The fused grid and fused single-output CV,
     both on the streamed design, must still equal the per-job driver
     on the same design materialized. *)
  (match solver with
  | `Omp | `Star -> ()
  | (`Lar | `Lasso) as s ->
      let mode = if s = `Lar then Rsm.Lars.Lar else Rsm.Lars.Lasso in
      let terms = basis.Polybasis.Basis.terms in
      let src_rep =
        P.streamed
          (Polybasis.Basis.create basis.Polybasis.Basis.dim
             (Array.append terms terms))
          pts
      in
      let src_rep_d = P.dense (P.to_dense src_rep) in
      let results =
        List.map
          (fun d ->
            Parallel.Pool.with_pool ~domains:d (fun pool ->
                let r0 () = Randkit.Prng.create (seed + 11) in
                let grid =
                  Array.map result_bits
                    (Rsm.Select.lars_multi_p ~pool ~mode ~on_singular:`Fallback
                       (r0 ()) ~max_lambda:5 src_rep fs)
                in
                let cv src =
                  Array.map
                    (fun f ->
                      result_bits
                        (Rsm.Select.lars_p ~pool ~mode ~on_singular:`Fallback
                           (r0 ()) ~max_lambda:5 src f))
                    fs
                in
                let per_job = cv src_rep_d in
                check_bool "duplicated columns: fused grid == per-job CV" true
                  (grid = per_job);
                check_bool "duplicated columns: fused CV == per-job CV" true
                  (cv src_rep = per_job);
                grid))
          pool_counts
      in
      all_equal "duplicated columns: fused grid across domains" results);
  true

let test_solver_fit_multi_parity () =
  let rng, basis, pts, g = random_setting 3 in
  let src_s = P.streamed basis pts in
  let src_d = P.dense g in
  let fs = Array.init 3 (fun _ -> sparse_response rng src_d) in
  (* The caller's next draw after a fit: a multi-output fit must leave
     the generator where one single-output fit does, whichever driver
     ran — the CLI draws its test points from it next. *)
  let next_draw fit =
    let g = Randkit.Prng.create 99 in
    let models = fit g in
    (models, Randkit.Prng.float g)
  in
  (* The streamed design runs the fused grid, the dense one the per-job
     driver; each equals independent fit_cv_p calls on its own design. *)
  List.iter
    (fun meth ->
      let mname = Rsm.Solver.name meth in
      let fit src =
        next_draw (fun g ->
            Array.map
              (fun s -> model_bits s.Rsm.Solver.model)
              (Rsm.Solver.select_multi_p ~max_lambda:5 g src fs meth))
      in
      let singles src =
        Array.map
          (fun f ->
            model_bits
              (Rsm.Solver.fit_cv_p ~max_lambda:5 (Randkit.Prng.create 99) src
                 f meth))
          fs
      in
      let after_one src =
        snd
          (next_draw (fun g ->
               Rsm.Solver.fit_cv_p ~max_lambda:5 g src fs.(0) meth))
      in
      let fused, fused_next = fit src_s and per, per_next = fit src_d in
      check_bool
        (Printf.sprintf "%s fused (streamed) == per-job (dense)" mname)
        true (fused = per);
      check_bool
        (Printf.sprintf "streamed %s fused == independent fit_cv_p" mname)
        true (fused = singles src_s);
      check_bool
        (Printf.sprintf "dense %s per-job == independent fit_cv_p" mname)
        true (per = singles src_d);
      check_bool
        (Printf.sprintf "streamed %s leaves the generator as fit_cv_p" mname)
        true (fused_next = after_one src_s);
      check_bool
        (Printf.sprintf "dense %s leaves the generator as fit_cv_p" mname)
        true (per_next = after_one src_d))
    Rsm.Solver.[ Lar; Lasso; Omp; Star ]

let test_fit_multi_validation () =
  let _, basis, pts, _ = random_setting 4 in
  let src = P.streamed basis pts in
  (* The output count is checked before any fitting: with an invalid
     fold count too, the outputs message comes first. *)
  Alcotest.check_raises "empty outputs, before the fused grid"
    (Invalid_argument "Solver.select_multi_p: at least one output required")
    (fun () ->
      ignore
        (Rsm.Solver.select_multi_p ~folds:1 (Randkit.Prng.create 1) src [||]
           Rsm.Solver.Omp))

(* --- multi checkpoint: delete cells, resume, cross-driver ----------- *)

let with_ckpt_base name f =
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rsm_test_%s_%d" name (Unix.getpid ()))
  in
  let cleanup () =
    let dir = Filename.dirname base and leaf = Filename.basename base in
    Array.iter
      (fun entry ->
        if String.length entry >= String.length leaf
           && String.sub entry 0 (String.length leaf) = leaf
        then try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ())
      (Sys.readdir dir)
  in
  Fun.protect ~finally:cleanup (fun () -> f base)

let test_multi_checkpoint_resume () =
  with_ckpt_base "multi_ckpt" (fun base ->
      let rng, basis, pts, g = random_setting 8 in
      let src_s = P.streamed basis pts and src_d = P.dense g in
      let fs = Array.init 3 (fun _ -> sparse_response rng src_d) in
      let module Cell = Rsm.Serialize.Checkpoint.Cell in
      (* The streamed design runs the fused grid, the dense one the
         per-job driver. *)
      let run ?checkpoint ?resume src =
        Array.map result_bits
          (Rsm.Select.lars_multi_p ?store:(store ?resume checkpoint)
             (Randkit.Prng.create 21) ~max_lambda:5 src fs)
      in
      let reference = run src_s in
      let first = run ~checkpoint:base src_s in
      check_bool "checkpointed run equals plain run" true (reference = first);
      (* Kill a few grid cells — one whole output and one stray fold —
         and resume: only those refit, result bitwise unchanged. *)
      let cell r q = Cell.file base ~outputs:3 r q in
      check_bool "every cell written" true
        (List.for_all
           (fun (r, q) -> Sys.file_exists (cell r q))
           (List.concat_map
              (fun r -> List.init 4 (fun q -> (r, q)))
              [ 0; 1; 2 ]));
      check_bool "no manifest file" false (Sys.file_exists (base ^ ".multi"));
      for q = 0 to 3 do
        Sys.remove (cell 1 q)
      done;
      Sys.remove (cell 2 0);
      let resumed = run ~checkpoint:base ~resume:true src_s in
      check_bool "resume after deleted cells is bitwise equal" true
        (reference = resumed);
      (* Cross-driver resume: the per-job driver reads the cell files
         the fused grid wrote and refits the missing one ... *)
      Sys.remove (cell 0 2);
      let per_job =
        Array.map
          (fun s -> model_bits s.Rsm.Solver.model)
          (Rsm.Solver.select_multi_p ~max_lambda:5
             ?store:(store ~resume:true (Some base))
             (Randkit.Prng.create 21) src_d fs Rsm.Solver.Lar)
      in
      let ref_models = Array.map (fun (_, _, m) -> m) reference in
      check_bool "per-job resume from fused checkpoints is bitwise equal"
        true (per_job = ref_models);
      check_bool "per-job driver rewrites the missing cell" true
        (Sys.file_exists (cell 0 2));
      (* ... and the fused grid resumes from the per-job driver's. *)
      Sys.remove (cell 2 3);
      check_bool "fused resume from per-job checkpoints is bitwise equal"
        true
        (run ~checkpoint:base ~resume:true src_s = reference);
      (* A cell that disagrees with the grid shape is rejected: another
         λ grid, or another output count reading the same file names. *)
      check_raises_invalid "mismatched max_lambda rejected" (fun () ->
          Rsm.Select.lars_multi_p ?store:(store ~resume:true (Some base))
            (Randkit.Prng.create 21) ~max_lambda:6 src_d fs);
      check_raises_invalid "mismatched output count rejected" (fun () ->
          Rsm.Select.lars_multi_p ?store:(store ~resume:true (Some base))
            (Randkit.Prng.create 21) ~max_lambda:5 src_d (Array.sub fs 0 2)))

(* The fused grid stores each cell in the round its walk ends. Output
   1 is a dictionary column, so its walks end within three rounds while
   output 0's run on; a directory in the way of cell (0, 0) makes that
   cell's store raise, which interrupts the grid once output 0's first
   walk ends. Output 1's cells, finished rounds earlier, are on disk by
   then; with the directory gone, the resume is bitwise the
   uninterrupted grid. *)
let test_fused_cells_stored_as_they_finish () =
  with_ckpt_base "fused_cells" (fun base ->
      let rng, basis, pts, _ = random_setting 8 in
      let src = P.streamed basis pts in
      let fs = [| sparse_response rng src; P.column src 3 |] in
      let cell r q = Rsm.Serialize.Checkpoint.Cell.file base ~outputs:2 r q in
      let run ?resume checkpoint =
        Array.map result_bits
          (Rsm.Select.lars_multi_p ?store:(store ?resume checkpoint)
             (Randkit.Prng.create 21) ~max_lambda:5 src fs)
      in
      let reference = run None in
      Sys.mkdir (cell 0 0) 0o755;
      (match run (Some base) with
      | _ -> Alcotest.fail "the blocked cell did not interrupt the grid"
      | exception Sys_error _ -> Sys.rmdir (cell 0 0));
      check_bool "output 1's cells stored before the interruption" true
        (List.for_all (fun q -> Sys.file_exists (cell 1 q)) [ 0; 1; 2; 3 ]);
      check_bool "cell (0, 0) not stored" false (Sys.file_exists (cell 0 0));
      check_bool "resume is bitwise the uninterrupted grid" true
        (run ~resume:true (Some base) = reference))

(* --- the one driver rule ---------------------------------------------- *)

let test_fused_driver_rule () =
  (* The CLI reports the one sweep beside the driver. *)
  Alcotest.(check string) "sweep name" "exact"
    (Rsm.Corr_sweep.sweep_to_string Rsm.Corr_sweep.Exact);
  List.iter
    (fun (streamed, shards, expected) ->
      check_bool
        (Printf.sprintf "streamed=%b shards=%d" streamed shards)
        expected
        (Rsm.Select.fused_driver ~streamed ~shards))
    [
      (true, 1, true);
      (true, 0, true);
      (true, 2, false);
      (false, 1, false);
      (false, 2, false);
    ]

(* --- Pipeline.fit_multi --------------------------------------------- *)

let opamp_setting () =
  let amp = Circuit.Opamp.build ~n_parasitics:10 () in
  let sims =
    Array.of_list
      (List.map (fun m -> Circuit.Opamp.simulator amp m)
         Circuit.Opamp.all_metrics)
  in
  let basis = Polybasis.Basis.constant_linear (Circuit.Opamp.dim amp) in
  (sims, basis)

let test_pipeline_fit_multi () =
  let sims, basis = opamp_setting () in
  let cfg streamed =
    match
      Robust.Pipeline.config ~method_:Rsm.Solver.Lar ~samples:60 ~max_lambda:6
        ~faults:(Sim.fault_plan ~rate:0.1 ())
        ~min_samples:20 ~quorum:0.5 ~streamed ()
    with
    | Ok cfg -> cfg
    | Error e -> Alcotest.failf "config: %s" (Robust.Error.to_string e)
  in
  (* The streamed design runs the fused grid, the dense one the
     per-job grid. *)
  let fit streamed =
    match
      Robust.Pipeline.fit_multi (cfg streamed) sims basis
        (Randkit.Prng.create 12)
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "fit_multi: %s" (Robust.Error.to_string e)
  in
  let a = fit true and b = fit false in
  check_int "one model per metric" (Array.length sims)
    (Array.length a.Robust.Pipeline.models);
  check_bool "rows shared across outputs" true
    (Array.for_all
       (fun d ->
         d.Sim.points == a.Robust.Pipeline.datasets.(0).Sim.points)
       a.Robust.Pipeline.datasets);
  check_bool "fused and per-output pipelines agree bitwise" true
    (Array.map model_bits a.Robust.Pipeline.models
    = Array.map model_bits b.Robust.Pipeline.models);
  check_bool "per-output screen reports present" true
    (Array.for_all Option.is_some a.Robust.Pipeline.screen_reports);
  let summary =
    String.concat "\n"
      (Robust.Pipeline.hygiene_lines
         ~names:
           (Array.of_list
              (List.map Circuit.Opamp.metric_name Circuit.Opamp.all_metrics))
         (Robust.Pipeline.multi_hygiene a))
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "hygiene mentions every metric" true
    (List.for_all
       (fun m -> contains summary (Circuit.Opamp.metric_name m))
       Circuit.Opamp.all_metrics)

let test_pipeline_fit_multi_rejects_adaptive () =
  let sims, basis = opamp_setting () in
  let cfg =
    match
      Robust.Pipeline.config ~samples:40 ~min_samples:10 ~quorum:0.5
        ~adaptive:(Robust.Retry.policy ~breaker_threshold:3 ())
        ()
    with
    | Ok cfg -> cfg
    | Error e -> Alcotest.failf "config: %s" (Robust.Error.to_string e)
  in
  match Robust.Pipeline.fit_multi cfg sims basis (Randkit.Prng.create 1) with
  | Error (Robust.Error.Config _) -> ()
  | Ok _ -> Alcotest.fail "adaptive multi fit accepted"
  | Error e ->
      Alcotest.failf "wrong error category: %s" (Robust.Error.to_string e)

let seed_gen = QCheck.Gen.(map (fun n -> n + 1) (int_bound 5000))
let seed_arb = QCheck.make ~print:string_of_int seed_gen

let suite =
  ( "multi",
    [
      case "run_robust_multi: per-output bitwise parity"
        test_run_robust_multi_parity;
      case "run_robust_multi: pool-invariant"
        test_run_robust_multi_pool_invariant;
      case "run_robust_multi: validation" test_run_robust_multi_validation;
      case "crossval: multi fold curves" test_fold_curves_multi;
      qtest ~count:5 "OMP fused grid == independent fits" seed_arb
        (prop_fused_multi_bitwise `Omp);
      qtest ~count:5 "STAR fused grid == independent fits" seed_arb
        (prop_fused_multi_bitwise `Star);
      qtest ~count:5 "LAR fused grid == independent fits" seed_arb
        (prop_fused_multi_bitwise `Lar);
      qtest ~count:5 "LASSO fused grid == independent fits" seed_arb
        (prop_fused_multi_bitwise `Lasso);
      case "solver: fit_multi_p fused == per-output == fit_cv_p"
        test_solver_fit_multi_parity;
      case "solver: fit_multi_p validation" test_fit_multi_validation;
      case "checkpoint: delete cells, resume, cross-driver"
        test_multi_checkpoint_resume;
      case "checkpoint: fused cells stored as their walks end"
        test_fused_cells_stored_as_they_finish;
      case "fused_driver: one rule over streamed and shards"
        test_fused_driver_rule;
      case "pipeline: fit_multi shares rows, drivers agree"
        test_pipeline_fit_multi;
      case "pipeline: fit_multi rejects adaptive retry"
        test_pipeline_fit_multi_rejects_adaptive;
    ] )
