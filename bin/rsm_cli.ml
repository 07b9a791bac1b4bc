(* Command-line front-end for the performance-modeling library.

   rsm info                          list workloads and their dimensions
   rsm mc     --circuit ... ...      Monte-Carlo performance statistics
   rsm model  --circuit ... ...      fit a sparse model and report accuracy *)

open Cmdliner

(* Process-sharded sweeps (--shard-mode process) re-exec this binary as
   shard workers; the hook must run before cmdliner parses anything. *)
let () = Rsm.Shard_sweep.worker_entry_if_requested ()

type workload = {
  name : string;
  dim : int;
  sim : Circuit.Simulator.t;
  nominal : float;
  unit_ : string;
}

let opamp_metric_of_string s =
  List.find_opt
    (fun m -> Circuit.Opamp.metric_name m = String.lowercase_ascii s)
    Circuit.Opamp.all_metrics

let make_workload ~circuit ~metric ~cells ~parasitics =
  match String.lowercase_ascii circuit with
  | "opamp" -> (
      let amp = Circuit.Opamp.build ~n_parasitics:parasitics () in
      match opamp_metric_of_string metric with
      | None ->
          Error
            (Printf.sprintf
               "unknown opamp metric %S (expected gain | bandwidth | power | \
                offset)"
               metric)
      | Some m ->
          Ok
            {
              name = Printf.sprintf "opamp/%s" (Circuit.Opamp.metric_name m);
              dim = Circuit.Opamp.dim amp;
              sim = Circuit.Opamp.simulator amp m;
              nominal = Circuit.Opamp.nominal amp m;
              unit_ = Circuit.Opamp.metric_unit m;
            })
  | "sram" ->
      let sram = Circuit.Sram.build ~cells () in
      Ok
        {
          name = "sram/read_delay";
          dim = Circuit.Sram.dim sram;
          sim = Circuit.Sram.simulator sram;
          nominal = Circuit.Sram.nominal_delay_ps sram;
          unit_ = "ps";
        }
  | other -> Error (Printf.sprintf "unknown circuit %S (expected opamp | sram)" other)

(* Shared options. *)
let circuit =
  Arg.(value & opt string "opamp" & info [ "circuit" ] ~docv:"NAME"
         ~doc:"Workload circuit: opamp or sram.")

let metric =
  Arg.(value & opt string "offset" & info [ "metric" ] ~docv:"METRIC"
         ~doc:"OpAmp metric: gain, bandwidth, power or offset.")

let cells =
  Arg.(value & opt int 120 & info [ "cells" ] ~docv:"N"
         ~doc:"SRAM array size in cells (1180 = the paper's 21310 factors).")

let parasitics =
  Arg.(value & opt int 550 & info [ "parasitics" ] ~docv:"N"
         ~doc:"OpAmp layout-parasitic count (550 = the paper's 630 factors).")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let positive_int =
  let parse s =
    match Cmdliner.Arg.conv_parser Cmdliner.Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "%d is not a positive integer" n))
    | Error _ as e -> e
  in
  Cmdliner.Arg.conv (parse, Cmdliner.Arg.conv_printer Cmdliner.Arg.int)

let domains =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domains for the parallel fitting engine (design matrix, \
           correlation sweeps, CV folds, Monte-Carlo batches). Defaults to \
           $(b,RSM_NUM_DOMAINS) or the machine's recommended domain count. \
           Results are bitwise independent of this setting for a fixed seed.")

(* Apply --domains before any kernel touches the shared default pool. *)
let use_domains n =
  Option.iter Parallel.Pool.set_default_domains n;
  Parallel.Pool.default ()

let engine =
  Arg.(
    value
    & vflag `Auto
        [
          ( `Streamed,
            info [ "matrix-free" ]
              ~doc:
                "Stream design-matrix columns on demand from cached Hermite \
                 tables instead of materializing the K×M matrix. Bitwise \
                 identical results; peak memory independent of M." );
          ( `Dense,
            info [ "dense" ]
              ~doc:
                "Materialize the full design matrix (fastest when it fits in \
                 memory)." );
        ])

(* Auto: go matrix-free when the dense K×M matrix would exceed ~1 GiB. *)
let dense_bytes_budget = 1 lsl 30

let choose_streamed engine ~k ~m =
  match engine with
  | `Streamed -> true
  | `Dense -> false
  | `Auto -> 8 * k * m > dense_bytes_budget

let provider_of ?pool engine basis pts =
  let k = Array.length pts and m = Polybasis.Basis.size basis in
  if choose_streamed engine ~k ~m then
    Polybasis.Design.Provider.streamed basis pts
  else
    Polybasis.Design.Provider.dense
      (Polybasis.Design.matrix_rows ?pool basis pts)

let samples =
  Arg.(value & opt int 1000 & info [ "samples" ] ~docv:"K"
         ~doc:"Monte-Carlo / training sample count.")

let err_exit msg =
  prerr_endline ("rsm: " ^ msg);
  exit 2

(* Up-front numeric validation: one friendly line and exit 2, never an
   exception out of the middle of a run. *)
let check_at_least name floor v =
  if v < floor then
    err_exit (Printf.sprintf "--%s must be at least %d (got %d)" name floor v)

let check_unit_interval name v =
  if not (Float.is_finite v) || v < 0. || v >= 1. then
    err_exit (Printf.sprintf "--%s must lie in [0, 1) (got %g)" name v)

let check_sizes ~cells ~parasitics =
  check_at_least "cells" 1 cells;
  check_at_least "parasitics" 0 parasitics

(* --- info --- *)

let info_cmd =
  let run () =
    let amp = Circuit.Opamp.build () in
    Printf.printf "opamp   : %d factors; metrics: gain bandwidth power offset\n"
      (Circuit.Opamp.dim amp);
    let sram = Circuit.Sram.build ~cells:120 () in
    let paper = Circuit.Sram.build () in
    Printf.printf
      "sram    : %d factors at 120 cells (default); %d at %d cells (paper)\n"
      (Circuit.Sram.dim sram) (Circuit.Sram.dim paper) Circuit.Sram.paper_cells;
    let paper, extensions =
      List.partition (fun m -> List.mem m Rsm.Solver.all) Rsm.Solver.methods
    in
    let names ms = String.concat " " (List.map Rsm.Solver.name ms) in
    Printf.printf "methods : %s (extensions: %s)\n" (names paper)
      (names extensions)
  in
  Cmd.v (Cmd.info "info" ~doc:"List workloads, dimensions and methods.")
    Term.(const run $ const ())

(* --- mc --- *)

let mc_cmd =
  let run circuit metric cells parasitics seed samples domains =
    check_at_least "samples" 1 samples;
    check_sizes ~cells ~parasitics;
    match make_workload ~circuit ~metric ~cells ~parasitics with
    | Error e -> err_exit e
    | Ok w ->
        let pool = use_domains domains in
        let rng = Randkit.Prng.create seed in
        let d = Circuit.Simulator.run ~pool w.sim rng ~k:samples in
        let v = d.Circuit.Simulator.values in
        Printf.printf "%s: %d Monte-Carlo samples over %d factors\n" w.name
          samples w.dim;
        Printf.printf "  nominal %12.4f %s\n" w.nominal w.unit_;
        Printf.printf "  mean    %12.4f %s\n" (Stat.Descriptive.mean v) w.unit_;
        Printf.printf "  std     %12.4f %s\n" (Stat.Descriptive.std v) w.unit_;
        List.iter
          (fun p ->
            Printf.printf "  p%02.0f     %12.4f %s\n" (100. *. p)
              (Stat.Descriptive.quantile v p) w.unit_)
          [ 0.01; 0.5; 0.99 ];
        Printf.printf "  accounted simulation cost: %.0f s\n"
          (Circuit.Simulator.simulated_cost w.sim ~k:samples)
  in
  Cmd.v
    (Cmd.info "mc" ~doc:"Monte-Carlo performance statistics of a workload.")
    Term.(
      const run $ circuit $ metric $ cells $ parasitics $ seed $ samples
      $ domains)

(* --- model --- *)

let method_arg =
  Arg.(value & opt string "omp" & info [ "method" ] ~docv:"METHOD"
         ~doc:
           (Printf.sprintf "Fitting method: %s."
              (String.concat ", "
                 (List.map Rsm.Solver.cli_name Rsm.Solver.methods))))

let test_arg =
  Arg.(value & opt int 2000 & info [ "test" ] ~docv:"K"
         ~doc:"Testing sample count.")

let max_lambda_arg =
  Arg.(value & opt int 100 & info [ "max-lambda" ] ~docv:"L"
         ~doc:"Upper bound for the cross-validated sparsity level.")

let save_model_arg =
  Arg.(value & opt (some string) None
       & info [ "save-model" ] ~docv:"FILE"
           ~doc:"Write the fitted model to FILE (rsm-model text format).")

let folds_arg =
  Arg.(value & opt (some int) None & info [ "folds" ] ~docv:"Q"
         ~doc:"Cross-validation folds for the sparsity selection (default 4). \
               Combined with --checkpoint, an explicit --folds selects \
               per-fold CV checkpointing: every finished fold writes \
               FILE.fold<q> and a killed sweep resumes at the first \
               unfinished fold.")

let fault_rate_arg =
  Arg.(value & opt float 0. & info [ "fault-rate" ] ~docv:"R"
         ~doc:"Injected simulator fault probability per attempt, in [0, 1). \
               Faults mix NaN returns, finite outliers and transient \
               crashes; retries and screening must absorb them.")

let retries_arg =
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
         ~doc:"Total attempts per sample (1 = no retry).")

let no_screen_arg =
  Arg.(value & flag & info [ "no-screen" ]
         ~doc:"Disable the MAD outlier screen on the training responses.")

let screen_threshold_arg =
  Arg.(value & opt float 6.0 & info [ "screen-threshold" ] ~docv:"Z"
         ~doc:"Robust z-score beyond which a training response is dropped.")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Checkpoint the solver state to FILE while fitting (omp, \
                 star, lar and lasso). Without --folds this is a \
                 fixed-sparsity fit at --max-lambda with periodic state \
                 saves; with an explicit --folds the cross-validated sweep \
                 itself is checkpointed per fold (FILE.fold<q>).")

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Resume the fit from the --checkpoint file instead of starting \
               over. The finished model is bitwise identical to an \
               uninterrupted run with the same seed.")

let checkpoint_every_arg =
  Arg.(value & opt int 10 & info [ "checkpoint-every" ] ~docv:"N"
         ~doc:"Iterations between checkpoint writes.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Partition the dictionary into N contiguous column shards that \
           answer the solver's column sweeps and dots, each over its own \
           column slice. Selections, coefficients and the chosen model are \
           bitwise identical to the unsharded sweep at every shard count.")

let shard_mode_arg =
  Arg.(
    value & opt string "domain"
    & info [ "shard-mode" ] ~docv:"MODE"
        ~doc:
          "$(b,domain) keeps the shards in-image; $(b,process) re-execs \
           one worker process per shard, so peak per-process memory is \
           bounded by the shard slice and a crashed worker is respawned and \
           asked its query again, with bitwise-unchanged results.")

let outputs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "outputs" ] ~docv:"METRICS"
        ~doc:
          "Comma-separated opamp metrics to fit together (e.g. \
           $(b,gain,bandwidth,power,offset)). The metrics share one \
           Monte-Carlo batch (every sample evaluated once per metric), one \
           hygiene verdict and one design matrix; on a matrix-free design \
           the fused driver selects every metric's sparsity from a single \
           column-generation pass per greedy step. Writes one model per metric \
           (--save-model FILE.$(i,metric)). Opamp only; overrides --metric.")

let rescreen_arg =
  Arg.(value & flag & info [ "rescreen" ]
         ~doc:"After the fit, rescreen the training rows on the model's \
               residuals (robust MAD scale, --screen-threshold) and repair \
               the coefficients by down-dating the active-set Gram factor \
               for the dropped rows instead of refitting from scratch.")

let burst_rate_arg =
  Arg.(value & opt float 0. & info [ "burst-rate" ] ~docv:"P"
         ~doc:"Per-sample probability of entering a correlated outage burst \
               (two-state Markov chain over the sample axis), in [0, 1). \
               0 (default) disables the burst model; inside a burst every \
               attempt fails with a transient-heavy mix until the window \
               ends.")

let burst_len_arg =
  Arg.(value & opt float 20. & info [ "burst-len" ] ~docv:"L"
         ~doc:"Expected burst length in samples (geometric), at least 1.")

let quorum_arg =
  Arg.(value & opt float Robust.Pipeline.default_quorum
       & info [ "quorum" ] ~docv:"Q"
           ~doc:"Fraction of the requested samples that must survive delivery \
                 and screening, in (0, 1]. A shortfall above the quorum \
                 proceeds as a degraded fit (noted on the model); below it \
                 the run fails with a one-line diagnostic.")

let screen_space_arg =
  Arg.(value & opt string "response" & info [ "screen-space" ] ~docv:"SPACE"
         ~doc:"Which hygiene screens run: $(b,response) (MAD z-score on \
               simulated values), $(b,factor) (robust Mahalanobis distance \
               on sample points), or $(b,both).")

let breaker_threshold_arg =
  Arg.(value & opt int 0 & info [ "breaker-threshold" ] ~docv:"N"
         ~doc:"Enable the adaptive retry driver (exponential backoff with \
               deterministic jitter and a circuit breaker): the breaker \
               trips after N consecutive failed samples, fails fast through \
               the estimated burst, then probes half-open. 0 (default) \
               keeps the fixed retry policy.")

let ok_or_exit = function
  | Ok x -> x
  | Error e -> err_exit (Robust.Error.to_string e)

(* The CV driver that runs, named by the rule that picks it: [`Cv] for
   a single-output cross-validated fit, [`Outputs] for a multi-output
   fit, [`None] for a fixed-λ fit, which has no driver. *)
let print_engines (cfg : Robust.Pipeline.config) ~cv =
  let path = Rsm.Solver.path_method cfg.method_ in
  let shards = match cfg.shards with Some p -> p.shards | None -> 1 in
  let fused =
    path
    && Rsm.Select.fused_driver ~streamed:cfg.streamed ~shards
  in
  Printf.printf "  design engine : %s\n"
    (if cfg.streamed then "matrix-free" else "dense");
  Printf.printf "  sweep engine  : %s%s\n"
    (Rsm.Corr_sweep.sweep_to_string cfg.sweep)
    (match cv with
    | `Cv when fused -> ", fused CV"
    | `Cv when path -> ", per-fold CV"
    | `Outputs when fused -> ", fused outputs"
    | `Outputs -> ", per-job grid"
    | `Cv | `None -> "");
  Option.iter
    (fun (p : Rsm.Shard_sweep.plan) ->
      if p.shards > 1 then
        Printf.printf "  shard engine  : %d shards (%s mode)\n" p.shards
          (Rsm.Shard_sweep.mode_to_string p.mode);
      let recovered = Atomic.get p.recovered in
      if recovered > 0 then
        Printf.printf
          "  shard recovery: %d worker respawn(s), query re-sent, results \
           bitwise unchanged\n"
          recovered)
    cfg.shards

let print_cv_checkpoint (cfg : Robust.Pipeline.config) ~files =
  Option.iter
    (fun (st : Rsm.Select.store) ->
      Printf.printf "  checkpoint    : %s%s (per-fold CV%s)\n" st.base files
        (if st.resume then ", resumed" else ""))
    cfg.store

(* The CV report's λ line: the chosen λ and, when it is the grid's cap
   (the CV curve's length), which cap that is — --max-lambda, the
   dictionary size M, or the smallest fold's training rows. *)
let cv_lambda_text ~max_lambda ~m (lambda, cap) =
  if lambda < cap then Printf.sprintf "%d (grid 1-%d)" lambda cap
  else
    Printf.sprintf "%d, the grid's cap (%s)" lambda
      (if cap = max_lambda then Printf.sprintf "--max-lambda %d" max_lambda
       else if cap = m then Printf.sprintf "M = %d bases" m
       else Printf.sprintf "the smallest fold's %d training rows" cap)

let print_hygiene ~names h =
  List.iter
    (Printf.printf "  hygiene       : %s\n")
    (Robust.Pipeline.hygiene_lines ~names h)

(* Validate a single-output model on [test] fresh simulations. *)
let print_validation ~pool ~engine ~basis ~rng ~test sim model =
  let d = Circuit.Simulator.run ~pool sim rng ~k:test in
  let src_te = provider_of ~pool engine basis d.Circuit.Simulator.points in
  Printf.printf "  testing error : %.2f%% (on %d fresh samples)\n"
    (100. *. Rsm.Model.error_on_p model src_te d.Circuit.Simulator.values)
    test;
  Printf.printf "  bases selected: %d\n" (Rsm.Model.nnz model);
  Array.iter
    (Printf.printf "  note          : %s\n")
    (Rsm.Model.notes model)

let save_model_maybe save_model model =
  match save_model with
  | None -> ()
  | Some path ->
      Rsm.Serialize.save path model;
      Printf.printf "  model saved   : %s\n" path

(* The --outputs metrics: R opamp simulators sharing one batch. *)
let opamp_outputs ~circuit ~parasitics spec =
  if String.lowercase_ascii circuit <> "opamp" then
    err_exit
      (Printf.sprintf
         "--outputs is an opamp feature (circuit %S has a single metric)"
         circuit);
  let metrics =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match opamp_metric_of_string s with
           | Some m -> m
           | None ->
               err_exit
                 (Printf.sprintf
                    "unknown opamp metric %S in --outputs (expected gain | \
                     bandwidth | power | offset)"
                    s))
  in
  if metrics = [] then err_exit "--outputs needs at least one metric";
  let amp = Circuit.Opamp.build ~n_parasitics:parasitics () in
  let each f = Array.of_list (List.map f metrics) in
  let names = each Circuit.Opamp.metric_name in
  ( each (Circuit.Opamp.simulator amp),
    names,
    each Circuit.Opamp.metric_unit,
    "opamp/" ^ String.concat "," (Array.to_list names),
    Circuit.Opamp.dim amp )

let model_cmd =
  let run circuit metric cells parasitics seed samples test method_name
      max_lambda save_model domains engine folds fault_rate retries no_screen
      screen_threshold checkpoint resume checkpoint_every rescreen shards shard_mode burst_rate burst_len quorum
      screen_space_s breaker_threshold outputs =
    check_at_least "samples" 1 samples;
    check_at_least "test" 1 test;
    check_at_least "max-lambda" 1 max_lambda;
    let folds_n = Option.value folds ~default:4 in
    check_at_least "folds" 2 folds_n;
    check_at_least "retries" 1 retries;
    check_at_least "checkpoint-every" 1 checkpoint_every;
    let shards =
      match Rsm.Shard_sweep.plan ~mode:shard_mode shards with
      | Ok p -> p
      | Error e -> err_exit ("--" ^ e)
    in
    check_at_least "breaker-threshold" 0 breaker_threshold;
    check_unit_interval "fault-rate" fault_rate;
    check_unit_interval "burst-rate" burst_rate;
    if not (Float.is_finite burst_len) || burst_len < 1. then
      err_exit
        (Printf.sprintf "--burst-len must be at least 1 (got %g)" burst_len);
    if not (Float.is_finite quorum) || quorum <= 0. || quorum > 1. then
      err_exit (Printf.sprintf "--quorum must lie in (0, 1] (got %g)" quorum);
    let screen_space =
      match Robust.Pipeline.screen_space_of_string screen_space_s with
      | Some s -> s
      | None ->
          err_exit
            (Printf.sprintf
               "--screen-space must be response, factor or both (got %S)"
               screen_space_s)
    in
    if screen_threshold <= 0. || not (Float.is_finite screen_threshold) then
      err_exit
        (Printf.sprintf "--screen-threshold must be positive (got %g)"
           screen_threshold);
    let store =
      match Rsm.Select.store ~resume checkpoint with
      | Ok st -> st
      | Error _ -> err_exit "--resume needs --checkpoint FILE to resume from"
    in
    check_sizes ~cells ~parasitics;
    let burst =
      if burst_rate > 0. then
        Some (Circuit.Simulator.burst_model ~entry:burst_rate ~len:burst_len ())
      else None
    in
    let faults =
      if fault_rate > 0. || burst <> None then
        Circuit.Simulator.fault_plan ~rate:fault_rate ?burst ()
      else Circuit.Simulator.no_faults
    in
    let retry = Circuit.Simulator.retry_policy ~max_attempts:retries () in
    let adaptive =
      if breaker_threshold > 0 then
        Some (Robust.Retry.policy ~max_attempts:retries ~breaker_threshold ())
      else None
    in
    let meth =
      match Rsm.Solver.of_name method_name with
      | Some meth -> meth
      | None -> err_exit (Printf.sprintf "unknown method %S" method_name)
    in
    let sims, names, units, label, dim =
      match outputs with
      | Some spec -> opamp_outputs ~circuit ~parasitics spec
      | None -> (
          match make_workload ~circuit ~metric ~cells ~parasitics with
          | Error e -> err_exit e
          | Ok w -> ([| w.sim |], [||], [| w.unit_ |], w.name, w.dim))
    in
    let pool = use_domains domains in
    let rng = Randkit.Prng.create seed in
    let basis = Polybasis.Basis.constant_linear dim in
    let m_cols = Polybasis.Basis.size basis in
    if Rsm.Solver.needs_overdetermined meth && samples < m_cols then
      err_exit
        (Printf.sprintf
           "LS needs at least %d samples for %d coefficients; got %d (use \
            omp/lar/star, the point of the paper)"
           m_cols m_cols samples);
    (* One configuration for every branch: the fixed-λ checkpoint fit,
       the cross-validated fit and the multi-output fit all deliver
       their samples through it. *)
    let cfg =
      ok_or_exit
        (Robust.Pipeline.config ~method_:meth ~folds:folds_n ~max_lambda
           ~samples ~screen:(not no_screen) ~screen_threshold ~screen_space
           ~faults ~retry ?adaptive ~quorum
           ~min_samples:(min samples (max 8 (samples / 2)))
           ~streamed:(choose_streamed engine ~k:samples ~m:m_cols)
           ?store ~shards ~rescreen ())
    in
    let validate = print_validation ~pool ~engine ~basis ~rng ~test sims.(0) in
    match (outputs, checkpoint) with
    | Some _, _ ->
        (* Multi-output fit: R opamp metrics over one simulation batch,
           one hygiene verdict, one design matrix and, on a matrix-free
           design, one fused selection grid. Always cross-validated. *)
        let o, fit_s =
          Circuit.Testbench.timed (fun () ->
              Robust.Pipeline.fit_multi ~pool cfg sims basis rng)
        in
        let o = ok_or_exit o in
        let outputs = Array.length sims in
        Printf.printf
          "%s | %s | K = %d training samples, M = %d bases | %d outputs\n"
          label (Rsm.Solver.name meth)
          (Circuit.Simulator.dataset_size o.Robust.Pipeline.datasets.(0))
          m_cols outputs;
        print_engines cfg ~cv:`Outputs;
        print_cv_checkpoint cfg ~files:".out<r>.fold<q>";
        print_hygiene ~names (Robust.Pipeline.multi_hygiene o);
        Array.iteri
          (fun r l ->
            Option.iter
              (fun l ->
                Printf.printf "  CV lambda     : %s: %s\n" names.(r)
                  (cv_lambda_text ~max_lambda ~m:m_cols l))
              l)
          o.Robust.Pipeline.cv_lambdas;
        (* One fresh point set tests every metric — the same sharing the
           training batch used. *)
        let test_pts =
          Array.init test (fun _ -> Randkit.Gaussian.vector rng dim)
        in
        let src_te = provider_of ~pool engine basis test_pts in
        Array.iteri
          (fun r model ->
            let truth = Array.map sims.(r).Circuit.Simulator.eval test_pts in
            Printf.printf
              "  %-9s     : testing error %.2f%% (%s), %d bases selected\n"
              names.(r)
              (100. *. Rsm.Model.error_on_p model src_te truth)
              units.(r) (Rsm.Model.nnz model);
            Array.iter
              (fun note ->
                Printf.printf "  note          : %s: %s\n" names.(r) note)
              (Rsm.Model.notes model))
          o.Robust.Pipeline.models;
        Printf.printf "  fitting cost  : %.2f s (measured, all %d outputs)\n"
          fit_s outputs;
        Printf.printf
          "  sim cost      : %.0f s (accounted, +%.0f s retry overhead)\n"
          (Array.fold_left
             (fun acc sim ->
               acc +. Circuit.Simulator.simulated_cost sim ~k:samples)
             0. sims)
          o.Robust.Pipeline.m_run_report
            .Circuit.Simulator.accounted_extra_seconds;
        Option.iter
          (fun path ->
            Array.iteri
              (fun r model ->
                let p = path ^ "." ^ names.(r) in
                Rsm.Serialize.save p model;
                Printf.printf "  model saved   : %s\n" p)
              o.Robust.Pipeline.models)
          save_model
    | None, Some ckpt_file when folds = None ->
        (* Fixed-λ checkpointed fit: the pipeline's delivery, the solver
           with periodic state saves, then the pipeline's post-fit stage.
           (An explicit --folds routes a checkpointed run through the
           per-fold CV branch below instead.) *)
        let d =
          ok_or_exit
            (Robust.Pipeline.deliver ~pool:(Some pool) cfg sims basis rng)
        in
        let src = d.Robust.Pipeline.src in
        let f_tr = d.Robust.Pipeline.rows.(0).Circuit.Simulator.values in
        let lambda =
          min max_lambda (min (Polybasis.Design.Provider.rows src) m_cols)
        in
        (* Every method writes and resumes the one walk log. *)
        let module Ck = Rsm.Serialize.Checkpoint in
        let loaded =
          if not resume then None
          else
            match Ck.load ckpt_file with
            | Ok c -> Some c
            | Error e ->
                err_exit
                  (Printf.sprintf "cannot load checkpoint %s: %s" ckpt_file e)
        in
        let log =
          Result.fold ~ok:Fun.id ~error:err_exit
            (Ck.log ~every:checkpoint_every ~save:(Ck.save ckpt_file)
               ?resume:loaded ())
        in
        let model, fit_s =
          Circuit.Testbench.timed (fun () ->
              Rsm.Solver.fit_p ~lambda ~pool ~on_singular:`Fallback ~log
                ?shards:cfg.shards src f_tr meth)
        in
        let model =
          (ok_or_exit (Robust.Pipeline.post_fit cfg d [| model |])).(0)
        in
        Printf.printf
          "%s | %s | K = %d training samples, M = %d bases | fixed lambda = %d \
           (checkpointed)\n"
          label (Rsm.Solver.name meth) samples m_cols lambda;
        print_engines cfg ~cv:`None;
        print_hygiene ~names d.Robust.Pipeline.hygiene;
        Printf.printf "  checkpoint    : %s (every %d iterations%s)\n" ckpt_file
          checkpoint_every
          (if resume then ", resumed" else "");
        validate model;
        Printf.printf "  fitting cost  : %.2f s (measured)\n" fit_s;
        save_model_maybe save_model model
    | None, _ ->
        (* Cross-validated fit; with --checkpoint and an explicit --folds
           the sweep writes per-fold checkpoint files. *)
        let o, fit_s =
          Circuit.Testbench.timed (fun () ->
              Robust.Pipeline.fit ~pool cfg sims.(0) basis rng)
        in
        let o = ok_or_exit o in
        let model = o.Robust.Pipeline.model in
        Printf.printf "%s | %s | K = %d training samples, M = %d bases\n" label
          (Rsm.Solver.name meth)
          (Circuit.Simulator.dataset_size o.Robust.Pipeline.dataset)
          m_cols;
        print_engines cfg ~cv:`Cv;
        print_cv_checkpoint cfg ~files:".fold<q>";
        print_hygiene ~names (Robust.Pipeline.outcome_hygiene o);
        Option.iter
          (fun l ->
            Printf.printf "  CV lambda     : %s\n"
              (cv_lambda_text ~max_lambda ~m:m_cols l))
          o.Robust.Pipeline.cv_lambda;
        validate model;
        Printf.printf "  fitting cost  : %.2f s (measured)\n" fit_s;
        Printf.printf
          "  sim cost      : %.0f s (accounted at %.2f s/sample, +%.0f s retry \
           overhead)\n"
          (Circuit.Simulator.simulated_cost sims.(0) ~k:samples)
          sims.(0).Circuit.Simulator.seconds_per_sample
          o.Robust.Pipeline.run_report
            .Circuit.Simulator.accounted_extra_seconds;
        save_model_maybe save_model model
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:"Fit a sparse performance model and validate it on fresh samples.")
    Term.(
      const run $ circuit $ metric $ cells $ parasitics $ seed $ samples
      $ test_arg $ method_arg $ max_lambda_arg $ save_model_arg $ domains
      $ engine $ folds_arg $ fault_rate_arg $ retries_arg $ no_screen_arg
      $ screen_threshold_arg $ checkpoint_arg $ resume_arg
      $ checkpoint_every_arg $ rescreen_arg
      $ shards_arg $ shard_mode_arg $ burst_rate_arg $ burst_len_arg
      $ quorum_arg $ screen_space_arg $ breaker_threshold_arg $ outputs_arg)

let predict_cmd =
  let model_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "model" ] ~docv:"FILE" ~doc:"Model file written by --save-model.")
  in
  let run circuit metric cells parasitics seed samples model_file domains =
    let pool = use_domains domains in
    match make_workload ~circuit ~metric ~cells ~parasitics with
    | Error e -> err_exit e
    | Ok w -> (
        match Rsm.Serialize.load model_file with
        | Error e -> err_exit ("cannot load model: " ^ e)
        | Ok model ->
            let basis = Polybasis.Basis.constant_linear w.dim in
            if Rsm.Model.(model.basis_size) <> Polybasis.Basis.size basis then
              err_exit
                (Printf.sprintf
                   "model has %d bases but the workload dictionary has %d - \
                    wrong circuit or size options"
                   model.Rsm.Model.basis_size (Polybasis.Basis.size basis));
            let rng = Randkit.Prng.create seed in
            let data = Circuit.Simulator.run ~pool w.sim rng ~k:samples in
            let pred =
              Array.map
                (fun p -> Rsm.Model.predict_point model basis p)
                data.Circuit.Simulator.points
            in
            Printf.printf
              "%s | loaded %d-term model from %s; validated on %d fresh \
               simulations\n"
              w.name (Rsm.Model.nnz model) model_file samples;
            Printf.printf "  relative-RMS error: %.2f%%\n"
              (100.
              *. Stat.Metrics.relative_rms ~pred
                   ~truth:data.Circuit.Simulator.values);
            Printf.printf "  max abs error     : %.4f %s\n"
              (Stat.Metrics.max_abs_error ~pred
                 ~truth:data.Circuit.Simulator.values)
              w.unit_)
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Load a saved model and validate it against fresh simulations.")
    Term.(
      const run $ circuit $ metric $ cells $ parasitics $ seed $ samples
      $ model_file $ domains)

(* --- eval: serve a saved model through a compiled tape --- *)

let parse_digest s =
  let s = if String.length s > 2 && String.sub s 0 2 = "0x" then s else "0x" ^ s in
  match Int64.of_string s with
  | d -> d
  | exception _ ->
      err_exit (Printf.sprintf "--expect-digest %S is not a hex digest" s)

let load_served ?expect basis path =
  match Serve.Eval.load ?expect basis path with
  | Error e -> err_exit ("cannot serve model: " ^ e)
  | Ok loaded -> loaded

(* %.17g floats round-trip exactly; strings here are workload/unit
   names and user paths, escaped minimally. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Spec bounds may be one-sided; JSON has no Infinity literal, so an
   open bound serializes as null. *)
let json_bound v =
  if v = Float.neg_infinity || v = Float.infinity then "null"
  else Printf.sprintf "%.17g" v

let json_notes model =
  String.concat ", "
    (Array.to_list
       (Array.map
          (fun n -> Printf.sprintf "\"%s\"" (json_escape n))
          (Rsm.Model.notes model)))

let eval_cmd =
  let model_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "model" ] ~docv:"FILE" ~doc:"Model file written by --save-model.")
  in
  let expect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-digest" ] ~docv:"HEX"
          ~doc:
            "Refuse to serve unless the model file's content digest (FNV-1a \
             64, as printed by this command) equals HEX - a swapped or \
             corrupted file is rejected instead of silently compiled.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one machine-readable JSON object on stdout instead of the \
             human report: workload, digest, tape statistics, parity verdict, \
             value statistics and throughput.")
  in
  let run circuit metric cells parasitics seed samples model_file expect domains
      json =
    check_at_least "samples" 1 samples;
    check_sizes ~cells ~parasitics;
    match make_workload ~circuit ~metric ~cells ~parasitics with
    | Error e -> err_exit e
    | Ok w ->
        let pool = use_domains domains in
        let basis = Polybasis.Basis.constant_linear w.dim in
        let expect = Option.map parse_digest expect in
        let loaded = load_served ?expect basis model_file in
        let tape = loaded.Serve.Eval.tape in
        let model = loaded.Serve.Eval.model in
        let rng = Randkit.Prng.create seed in
        let points =
          Array.init samples (fun _ -> Randkit.Gaussian.vector rng w.dim)
        in
        let compiled, batch_s =
          Circuit.Testbench.timed (fun () ->
              Serve.Eval.eval_batch ~pool tape points)
        in
        let naive, naive_s =
          Circuit.Testbench.timed (fun () ->
              Array.map (Rsm.Model.predict_point model basis) points)
        in
        if compiled <> naive then err_exit "compiled/naive evaluation mismatch";
        let rate secs =
          if secs > 0. then float_of_int samples /. secs else Float.infinity
        in
        if json then
          let escape = json_escape in
          (* Provenance rides the model file: a quorum-degraded fit's
             "degraded: ..." note (and any fallback notes) surface here
             so a serving consumer can see how the artifact was built. *)
          let notes_json = json_notes model in
          Printf.printf
            {|{"workload": "%s", "model_file": "%s", "digest": "%016Lx", "tape": {"terms": %d, "instructions": %d, "vars_touched": %d, "dim": %d, "max_degree": %d}, "parity": "bitwise", "points": %d, "value_mean": %.17g, "value_std": %.17g, "unit": "%s", "throughput_compiled_per_s": %.6g, "throughput_naive_per_s": %.6g, "notes": [%s]}
|}
            (escape w.name) (escape model_file) loaded.Serve.Eval.digest
            (Serve.Eval.nnz tape)
            (Serve.Eval.tape_length tape)
            (Serve.Eval.vars_touched tape)
            (Serve.Eval.dim tape) (Serve.Eval.max_degree tape) samples
            (Stat.Descriptive.mean compiled)
            (Stat.Descriptive.std compiled)
            (escape w.unit_) (rate batch_s) (rate naive_s) notes_json
        else begin
          Printf.printf "%s | serving %s\n" w.name model_file;
          Printf.printf "  content digest: %016Lx\n" loaded.Serve.Eval.digest;
          Printf.printf
            "  tape          : %d terms, %d factor instructions, %d of %d \
             variables touched, max degree %d\n"
            (Serve.Eval.nnz tape)
            (Serve.Eval.tape_length tape)
            (Serve.Eval.vars_touched tape)
            (Serve.Eval.dim tape) (Serve.Eval.max_degree tape);
          Printf.printf
            "  parity        : compiled == naive (bitwise, %d points)\n"
            samples;
          Printf.printf "  value mean/std: %.6g / %.6g %s\n"
            (Stat.Descriptive.mean compiled)
            (Stat.Descriptive.std compiled)
            w.unit_;
          Printf.printf
            "  throughput    : %.3g evals/s compiled, %.3g evals/s naive\n"
            (rate batch_s) (rate naive_s);
          Array.iter
            (fun note -> Printf.printf "  note          : %s\n" note)
            (Rsm.Model.notes model)
        end
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Serve a saved model: compile it to an instruction tape, verify \
          bitwise parity with the reference evaluator, and report \
          throughput.")
    Term.(
      const run $ circuit $ metric $ cells $ parasitics $ seed $ samples
      $ model_file $ expect_arg $ domains $ json_arg)

(* --- yield / sensitivity: fit a model, then use it --- *)

let fit_for_use ~circuit ~metric ~cells ~parasitics ~seed ~samples ~max_lambda
    ~domains ~engine =
  match make_workload ~circuit ~metric ~cells ~parasitics with
  | Error e -> err_exit e
  | Ok w ->
      let pool = use_domains domains in
      let rng = Randkit.Prng.create seed in
      let basis = Polybasis.Basis.constant_linear w.dim in
      let data = Circuit.Simulator.run ~pool w.sim rng ~k:samples in
      let src = provider_of ~pool engine basis data.Circuit.Simulator.points in
      let r =
        Rsm.Select.omp_p ~pool rng ~max_lambda src data.Circuit.Simulator.values
      in
      (w, basis, r.Rsm.Select.model, rng)

let lower_arg =
  Arg.(value & opt float Float.neg_infinity
       & info [ "lower" ] ~docv:"X" ~doc:"Lower spec bound.")

let upper_arg =
  Arg.(value & opt float Float.infinity
       & info [ "upper" ] ~docv:"X" ~doc:"Upper spec bound.")

let yield_cmd =
  let served_model_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:
            "Serving mode: skip the fit and estimate yield from this saved \
             model, streaming --mc-samples draws through a compiled \
             instruction tape over the domain pool.")
  in
  let mc_samples_arg =
    Arg.(
      value
      & opt int 100_000
      & info [ "mc-samples" ] ~docv:"N"
          ~doc:"Model Monte-Carlo sample count for the yield estimate.")
  in
  let batch_arg =
    Arg.(
      value
      & opt int Serve.Stream.default_batch
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Streaming batch size. Each batch draws from its own PRNG \
             child stream, so for a fixed (seed, batch) the estimate is \
             bitwise identical at every domain count.")
  in
  let sampler_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("polar", Randkit.Gaussian.Polar);
               ("ziggurat", Randkit.Gaussian.Ziggurat);
             ])
          Randkit.Gaussian.Polar
      & info [ "sampler" ] ~docv:"NAME"
          ~doc:
            "Normal sampler for the Monte-Carlo draws: 'polar' (sequential, \
             the historical bit stream, default) or 'ziggurat' (the \
             counter-mode engine — every draw a pure function of (seed, \
             point, coordinate), so the estimate is invariant to batch size \
             and domain count, and only the coordinates the model reads are \
             drawn: the same bits as the full draw, only faster).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one machine-readable JSON object on stdout instead of the \
             human report: workload, model digest, spec window, sampler and \
             projection, yield, standard error, pass/samples, batching and \
             throughput.")
  in
  let run circuit metric cells parasitics seed samples max_lambda lower upper
      served_model mc_samples batch sampler json domains engine =
    check_at_least "mc-samples" 1 mc_samples;
    check_at_least "batch" 1 batch;
    if lower = Float.neg_infinity && upper = Float.infinity then
      err_exit "give at least one of --lower / --upper";
    (* Projection is on exactly when the sampler supports it: skipping a
       coordinate of the sequential polar stream would shift every later
       draw's bits. *)
    let project = sampler = Randkit.Gaussian.Ziggurat in
    let spec = Rsm.Yield.spec_both ~lower ~upper in
    let print_closed_form model basis =
      match Rsm.Yield.gaussian model basis spec with
      | g -> Printf.printf "  closed-form yield : %.4f (linear model => Gaussian)\n" g
      | exception Invalid_argument _ -> ()
    in
    (* The two modes differ only in where the model, its tape and the
       generator come from, and in the lines each prints: both stream
       the estimate through the same call. *)
    let served, w, basis, model, tape, rng =
      match served_model with
      | Some model_file -> (
          (* Serving mode: no simulations at all — the whole estimate
             is model evaluations on the compiled tape. *)
          check_sizes ~cells ~parasitics;
          match make_workload ~circuit ~metric ~cells ~parasitics with
          | Error e -> err_exit e
          | Ok w ->
              let basis = Polybasis.Basis.constant_linear w.dim in
              let loaded = load_served basis model_file in
              ( Some (model_file, loaded.Serve.Eval.digest),
                w,
                basis,
                loaded.Serve.Eval.model,
                loaded.Serve.Eval.tape,
                Randkit.Prng.create seed ))
      | None ->
          let w, basis, model, rng =
            fit_for_use ~circuit ~metric ~cells ~parasitics ~seed ~samples
              ~max_lambda ~domains ~engine
          in
          (None, w, basis, model, Serve.Eval.compile model basis, rng)
    in
    let pool = use_domains domains in
    let e, mc_s =
      Circuit.Testbench.timed (fun () ->
          Serve.Stream.estimate ~pool ~batch ~sampler ~project
            ~samples:mc_samples tape rng spec)
    in
    let drawn =
      if project then Serve.Eval.vars_touched tape else Serve.Eval.dim tape
    in
    match served with
    | Some (model_file, digest) ->
        let rate =
          if mc_s > 0. then float_of_int mc_samples /. mc_s
          else Float.infinity
        in
        if json then
          Printf.printf
            {|{"workload": "%s", "mode": "serve", "model_file": "%s", "digest": "%016Lx", "spec": {"lower": %s, "upper": %s}, "sampler": "%s", "projected": %b, "coords_drawn": %d, "dim": %d, "yield": %.17g, "std_error": %.17g, "pass": %d, "samples": %d, "mean": %.17g, "std": %.17g, "batches": %d, "batch": %d, "unit": "%s", "throughput_evals_per_s": %.6g, "notes": [%s]}
|}
            (json_escape w.name) (json_escape model_file) digest
            (json_bound lower) (json_bound upper)
            (Randkit.Gaussian.sampler_name sampler)
            project drawn (Serve.Eval.dim tape) e.Serve.Stream.yield
            e.Serve.Stream.std_error e.Serve.Stream.pass
            e.Serve.Stream.samples e.Serve.Stream.mean e.Serve.Stream.std
            e.Serve.Stream.batches e.Serve.Stream.batch
            (json_escape w.unit_) rate (json_notes model)
        else begin
          Printf.printf
            "%s | spec [%g, %g] %s | served %d-term model %s (digest \
             %016Lx)\n"
            w.name lower upper w.unit_ (Rsm.Model.nnz model) model_file
            digest;
          Printf.printf
            "  model-MC yield    : %.4f +/- %.4f (%d of %d pass)\n"
            e.Serve.Stream.yield e.Serve.Stream.std_error
            e.Serve.Stream.pass e.Serve.Stream.samples;
          print_closed_form model basis;
          Printf.printf "  sample mean/sigma : %.4f / %.4f %s\n"
            e.Serve.Stream.mean e.Serve.Stream.std w.unit_;
          Printf.printf
            "  streamed          : %d batches of %d over the pool (%.3g \
             evals/s)\n"
            e.Serve.Stream.batches e.Serve.Stream.batch rate;
          Printf.printf "  sampler           : %s (%d of %d coords drawn)\n"
            (Randkit.Gaussian.sampler_name sampler)
            drawn (Serve.Eval.dim tape)
        end
    | None ->
        if json then
          Printf.printf
            {|{"workload": "%s", "mode": "fit", "digest": "%016Lx", "spec": {"lower": %s, "upper": %s}, "sampler": "%s", "projected": %b, "coords_drawn": %d, "dim": %d, "yield": %.17g, "std_error": %.17g, "pass": %d, "samples": %d, "model_mean": %.17g, "model_sigma": %.17g, "batches": %d, "batch": %d, "unit": "%s", "notes": [%s]}
|}
            (json_escape w.name)
            (Rsm.Serialize.digest model)
            (json_bound lower) (json_bound upper)
            (Randkit.Gaussian.sampler_name sampler)
            project drawn (Serve.Eval.dim tape) e.Serve.Stream.yield
            e.Serve.Stream.std_error e.Serve.Stream.pass
            e.Serve.Stream.samples
            (Rsm.Sensitivity.mean model basis)
            (sqrt (Rsm.Sensitivity.total_variance model basis))
            e.Serve.Stream.batches e.Serve.Stream.batch
            (json_escape w.unit_) (json_notes model)
        else begin
          Printf.printf
            "%s | spec [%g, %g] %s | model from %d simulations (%d bases)\n"
            w.name lower upper w.unit_ samples (Rsm.Model.nnz model);
          Printf.printf "  model-MC yield    : %.4f +/- %.4f\n"
            e.Serve.Stream.yield e.Serve.Stream.std_error;
          print_closed_form model basis;
          Printf.printf "  model mean/sigma  : %.4f / %.4f %s\n"
            (Rsm.Sensitivity.mean model basis)
            (sqrt (Rsm.Sensitivity.total_variance model basis))
            w.unit_;
          if sampler <> Randkit.Gaussian.Polar then
            Printf.printf "  sampler           : %s (%d of %d coords drawn)\n"
              (Randkit.Gaussian.sampler_name sampler)
              drawn (Serve.Eval.dim tape)
        end
  in
  Cmd.v
    (Cmd.info "yield"
       ~doc:
         "Estimate parametric yield against a spec window, either from a \
          freshly fitted model or by serving a saved one (--model).")
    Term.(
      const run $ circuit $ metric $ cells $ parasitics $ seed $ samples
      $ max_lambda_arg $ lower_arg $ upper_arg $ served_model_arg
      $ mc_samples_arg $ batch_arg $ sampler_arg $ json_arg
      $ domains $ engine)

let sensitivity_cmd =
  let run circuit metric cells parasitics seed samples max_lambda domains engine
      =
    let w, basis, model, _rng =
      fit_for_use ~circuit ~metric ~cells ~parasitics ~seed ~samples ~max_lambda
        ~domains ~engine
    in
    Printf.printf "%s | variance attribution from %d simulations (%d bases)\n"
      w.name samples (Rsm.Model.nnz model);
    Printf.printf "  model sigma: %.4f %s, interaction share %.1f%%\n"
      (sqrt (Rsm.Sensitivity.total_variance model basis))
      w.unit_
      (100. *. Rsm.Sensitivity.interaction_share model basis);
    Array.iter
      (fun (factor, share) ->
        Printf.printf "  factor %6d : %5.1f%%\n" factor (100. *. share))
      (Rsm.Sensitivity.top_factors ~n:12 model basis)
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Rank variation sources by their share of the modeled variance.")
    Term.(
      const run $ circuit $ metric $ cells $ parasitics $ seed $ samples
      $ max_lambda_arg $ domains $ engine)

let corner_cmd =
  let sigma_arg =
    Arg.(value & opt float 3. & info [ "sigma" ] ~docv:"K"
           ~doc:"Process radius in sigmas.")
  in
  let maximize_arg =
    Arg.(value & flag & info [ "maximize" ]
           ~doc:"Find the largest value (default: smallest).")
  in
  let run circuit metric cells parasitics seed samples max_lambda sigma maximize
      domains engine =
    let w, basis, model, _ =
      fit_for_use ~circuit ~metric ~cells ~parasitics ~seed ~samples ~max_lambda
        ~domains ~engine
    in
    let e = Rsm.Corner.linear_worst model basis ~sigma ~maximize in
    Printf.printf "%s | %s corner at %.1f sigma (model from %d simulations)\n"
      w.name (if maximize then "worst-high" else "worst-low") sigma samples;
    Printf.printf "  model extremum : %.4f %s\n" e.Rsm.Corner.value w.unit_;
    Printf.printf "  simulated there: %.4f %s\n" (w.sim.Circuit.Simulator.eval e.Rsm.Corner.corner) w.unit_;
    let nonzero =
      Array.to_list (Array.mapi (fun i v -> (i, v)) e.Rsm.Corner.corner)
      |> List.filter (fun (_, v) -> Float.abs v > 1e-9)
      |> List.sort (fun (_, a) (_, b) -> compare (Float.abs b) (Float.abs a))
    in
    Printf.printf "  corner touches %d factors; strongest:\n" (List.length nonzero);
    List.iteri
      (fun i (j, v) ->
        if i < 6 then Printf.printf "    factor %6d = %+.3f sigma\n" j v)
      nonzero
  in
  Cmd.v
    (Cmd.info "corner"
       ~doc:"Extract the worst-case process corner from a fitted model.")
    Term.(
      const run $ circuit $ metric $ cells $ parasitics $ seed $ samples
      $ max_lambda_arg $ sigma_arg $ maximize_arg $ domains $ engine)

let () =
  let info =
    Cmd.info "rsm" ~version:"1.0"
      ~doc:
        "Large-scale analog/RF performance variability modeling by sparse \
         regression (OMP / LAR / STAR / LS)."
  in
  (* ~catch:false so exceptions reach our guard instead of cmdliner's
     backtrace printer; every failure becomes one "rsm: ..." line. *)
  let code =
    match
      Robust.Error.guard (fun () ->
          Cmd.eval ~catch:false
            (Cmd.group info
               [ info_cmd; mc_cmd; model_cmd; predict_cmd; eval_cmd; yield_cmd;
                 sensitivity_cmd; corner_cmd ]))
    with
    | Ok code -> code
    | Error e ->
        prerr_endline ("rsm: " ^ Robust.Error.to_string e);
        2
  in
  exit code
