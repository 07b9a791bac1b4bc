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
  Fig4.run ~quick ();
  Tables.table1 ~quick ();
  Tables.tables_2_3 ~quick ~full ();
  Tables.table4 ~quick ~full ();
  Fig6.run ~quick ~full ();
  Ablation.run ~quick ();
  Recovery.run ~quick ();
  let robust_ok = Robustness.run ~quick () in
  Printf.printf "\nAll experiments complete. See EXPERIMENTS.md for the \
                 paper-vs-measured record.\n";
  if not robust_ok then exit 1

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
      cmd_of "fig4" "OpAmp linear error vs training samples (Fig. 4)"
        (fun quick _ -> Fig4.run ~quick ());
      cmd_of "table1" "OpAmp linear modeling cost (Table I)"
        (fun quick _ -> Tables.table1 ~quick ());
      cmd_of "table2" "OpAmp quadratic modeling error (Table II)"
        (fun quick full -> Tables.tables_2_3 ~quick ~full ());
      cmd_of "table3" "OpAmp quadratic modeling cost (Table III)"
        (fun quick full -> Tables.tables_2_3 ~quick ~full ());
      cmd_of "table4" "SRAM read path error and cost (Table IV)"
        (fun quick full -> Tables.table4 ~quick ~full ());
      cmd_of "fig6" "SRAM coefficient sparsity spectrum (Fig. 6)"
        (fun quick full -> Fig6.run ~quick ~full ());
      cmd_of "ablation" "Design-choice ablations (A1)"
        (fun quick _ -> Ablation.run ~quick ());
      cmd_of "recovery" "K = O(P log M) recovery phase diagram (A2)"
        (fun quick _ -> Recovery.run ~quick ());
      cmd_of "robustness"
        "Fault injection, screening and checkpoint/resume checks"
        (fun quick _ -> if not (Robustness.run ~quick ()) then exit 1);
      Cmd.v
        (Cmd.info "speed"
           ~doc:
             "Fitting-kernel micro-benchmarks + sequential-vs-parallel \
              speedup report (JSON)")
        Term.(
          const (fun quick _ domains -> Speed.run ~quick ?domains ())
          $ quick $ full $ domains);
      Cmd.v
        (Cmd.info "sweep"
           ~doc:
             "Gram-cached incremental LAR step (with its Gram builds) and \
              fused multi-residual CV sweep: per-step cost vs the exact \
              engines, with embedded parity checks (exit 1 on violation). \
              Updates BENCH_speed.json.")
        Term.(
          const (fun quick _ domains ->
              Speed.sweep_scenario ~quick ~domains ())
          $ quick $ full $ domains);
      Cmd.v
        (Cmd.info "multi"
           ~doc:
             "Fused multi-output fitting: one 4-metric op-amp LAR+CV fit vs \
              4 per-output fits, with embedded bitwise parity gates at \
              1/2/4 domains, dense and streamed (exit 1 on violation). \
              Updates BENCH_speed.json.")
        Term.(
          const (fun quick _ domains -> Multi_bench.run ~quick ?domains ())
          $ quick $ full $ domains);
      Cmd.v
        (Cmd.info "bigm-sharded"
           ~doc:
             "Column-sharded LAR at M = 10â¶ (quick: M â 2Â·10Â³):               process-sharded vs unsharded fit time, per-shard peak RSS,               embedded bitwise parity gate (exit 1 on violation). Updates               BENCH_speed.json.")
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
