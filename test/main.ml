(* Process-sharded sweep tests re-exec this binary as shard workers;
   the hook must run before Alcotest sees the command line. *)
let () = Rsm.Shard_sweep.worker_entry_if_requested ()

let () =
  Alcotest.run "rsm"
    [
      Test_vec.suite;
      Test_mat.suite;
      Test_factor.suite;
      Test_kernels.suite;
      Test_randkit.suite;
      Test_stat.suite;
      Test_polybasis.suite;
      Test_circuit.suite;
      Test_model.suite;
      Test_solvers.suite;
      Test_select.suite;
      Test_svd.suite;
      Test_distribution.suite;
      Test_extensions.suite;
      Test_ridge_extra.suite;
      Test_diagnostics.suite;
      Test_serialize.suite;
      Test_serialize.expression_suite;
      Test_edge_cases.suite;
      Test_round2.suite;
      Test_select_rules.suite;
      Test_l0_exact.suite;
      Test_misc_api.suite;
      Test_integration.suite;
      Test_parallel.suite;
      Test_provider.suite;
      Test_robust.suite;
      Test_sweep.suite;
      Test_shard.suite;
      Test_serve.suite;
      Test_burst.suite;
      Test_sampler.suite;
      Test_multi.suite;
      Test_delivery.suite;
      Test_known_answer.suite;
      Test_screen.suite;
      Test_ref_path.suite;
    ]
