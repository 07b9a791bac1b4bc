(* Benchmark harness entry point.

   `dune exec bench/main.exe` with no arguments regenerates every table
   and figure of the paper's evaluation at laptop scale; subcommands run
   one experiment, `--quick` shrinks everything for smoke runs and
   `--full` uses the paper's problem sizes where memory allows. *)

open Cmdliner

(* The bigm_sharded scenario spawns process shards by re-exec'ing this
   binary; the hook must run before cmdliner parses anything. *)
let () = Rsm.Shard_sweep.worker_entry_if_requested ()

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Tiny problem sizes (smoke run).")

let full =
  Arg.(
    value & flag
    & info [ "full" ]
        ~doc:
          "Paper-size problems (21310-dimensional SRAM, 200-parameter \
           quadratic). Slow; needs several GB of memory.")

let run_all quick full =
  let fig4_ok = Fig4.run ~quick () in
  Tables.table1 ~quick ();
  let orderings_ok = Tables.tables_2_3 ~quick ~full () in
  Tables.table4 ~quick ~full ();
  let fig6_ok = Fig6.run ~quick ~full () in
  Ablation.run ~quick ();
  let recovery_ok = Recovery.run ~quick () in
  let robust_ok = Robustness.run ~quick () in
  Printf.printf "\nAll experiments complete. See EXPERIMENTS.md for the \
                 paper-vs-measured record.\n";
  if not (fig4_ok && orderings_ok && fig6_ok && recovery_ok && robust_ok) then
    exit 1

(* A gated experiment: exit 1 when its paper gate fails. *)
let gated ok = if not ok then exit 1

let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "%d is not a positive integer" n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* Applied where it is parsed, before any subcommand runs, so kernels
   that take no [?pool] (the CV fits) use the requested count too. *)
let domains =
  let apply n =
    Option.iter Parallel.Pool.set_default_domains n;
    n
  in
  Term.(
    const apply
    $ Arg.(
        value
        & opt (some positive_int) None
        & info [ "domains" ]
            ~doc:
              "Domains for the default pool and the parallel arm of the \
               speed comparison (default: RSM_NUM_DOMAINS or the \
               recommended domain count)."))

let tables_2_3 quick full =
  if not (Tables.tables_2_3 ~quick ~full ()) then exit 1

let cmd_of name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ quick $ full)

let () =
  let default = Term.(const run_all $ quick $ full) in
  let info =
    Cmd.info "rsm-bench" ~version:"1.0"
      ~doc:
        "Reproduce the tables and figures of Li, 'Finding Deterministic \
         Solution from Underdetermined Equation' (DAC'09 / TCAD'10)."
  in
  let cmds =
    [
      cmd_of "fig4"
        "OpAmp linear error vs training samples (Fig. 4), gated on LAR and \
         OMP beating STAR everywhere and OMP beating LAR at the smallest K \
         (exit 1 on violation)"
        (fun quick _ -> gated (Fig4.run ~quick ()));
      cmd_of "table1" "OpAmp linear modeling cost (Table I)"
        (fun quick _ -> Tables.table1 ~quick ());
      cmd_of "table2"
        "OpAmp quadratic modeling error (Table II), gated on the paper's \
         orderings (exit 1 on violation)"
        tables_2_3;
      cmd_of "table3"
        "OpAmp quadratic modeling cost (Table III), gated on the paper's \
         orderings (exit 1 on violation)"
        tables_2_3;
      cmd_of "table4" "SRAM read path error and cost (Table IV)"
        (fun quick full -> Tables.table4 ~quick ~full ());
      cmd_of "fig6"
        "SRAM coefficient sparsity spectrum (Fig. 6), gated on a 10x \
         selected-to-unselected ratio (exit 1 on violation)"
        (fun quick full -> gated (Fig6.run ~quick ~full ()));
      cmd_of "ablation" "Design-choice ablations (A1)"
        (fun quick _ -> Ablation.run ~quick ());
      cmd_of "recovery"
        "K = O(P log M) recovery phase diagram (A2), gated on K90/(P log M) \
         varying at most 1.5x over P (exit 1 on violation)"
        (fun quick _ -> gated (Recovery.run ~quick ()));
      cmd_of "robustness"
        "Fault injection, screening and checkpoint/resume checks"
        (fun quick _ -> if not (Robustness.run ~quick ()) then exit 1);
      Cmd.v
        (Cmd.info "speed"
           ~doc:
             "Matrix-free OMP at M = 10^5 (quick: 10^4), fit time and peak \
              RSS, and one Monte-Carlo simulator batch at 1 domain against \
              --domains. Updates BENCH_speed.json.")
        Term.(
          const (fun quick _ domains -> Speed.run ~quick ?domains ())
          $ quick $ full $ domains);
      Cmd.v
        (Cmd.info "sweep"
           ~doc:
             "One fused CV round (4 fold lanes + the refit lane) at the \
              Table II shape against the per-fold sweeps it replaces, and \
              dense col_dots over 1/10/20/40% of the columns against one \
              full sweep, with embedded bitwise parity checks (exit 1 on \
              violation). Updates BENCH_speed.json.")
        Term.(
          const (fun quick _ domains ->
              Speed.sweep_scenario ~quick ~domains ())
          $ quick $ full $ domains);
      Cmd.v
        (Cmd.info "lardots"
           ~doc:
             "LAR column dots per walk on the Table II design (and, with \
              --full, Table IV's paper-size SRAM design), split into full \
              sweeps, carried correlations, screened images and \
              fallbacks, timed against the unscreened reference walk, \
              whose steps each walk must reproduce (exit 1 on \
              violation).")
        Term.(
          const (fun quick full domains ->
              gated (Lar_dots.run ~quick ~full ~domains ()))
          $ quick $ full $ domains);
      Cmd.v
        (Cmd.info "multi"
           ~doc:
             "Fused multi-output fitting: one 4-metric op-amp LAR+CV fit vs \
              4 per-output fits, with embedded bitwise parity gates at \
              1/2/4 domains against the dense per-job grid (exit 1 on \
              violation). \
              Updates BENCH_speed.json.")
        Term.(
          const (fun quick _ domains -> Multi_bench.run ~quick ?domains ())
          $ quick $ full $ domains);
      Cmd.v
        (Cmd.info "bigm-sharded"
           ~doc:
             "Column-sharded LAR at M = 10^6 (quick: M about 2*10^3): \
              process-sharded vs unsharded fit time, per-shard peak RSS, \
              embedded bitwise parity gate (exit 1 on violation). Updates \
              BENCH_speed.json.")
        Term.(
          const (fun quick _ domains -> Bigm_sharded.run ~quick ?domains ())
          $ quick $ full $ domains);
      Cmd.v
        (Cmd.info "eval"
           ~doc:
             "Serving engine: naive vs compiled-tape evals/sec and the \
              streamed yield-convergence curve, with embedded bitwise \
              parity gates (exit 1 on violation). Updates \
              BENCH_speed.json.")
        Term.(
          const (fun quick _ domains -> Eval_bench.run ~quick ~domains ())
          $ quick $ full $ domains);
    ]
  in
  exit (Cmd.eval (Cmd.group ~default info cmds))
