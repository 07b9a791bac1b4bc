(* Parametric-yield estimation from a sparse performance model — the
   downstream application motivating RSM in the paper's introduction
   ("efficiently predicting performance distributions").

   Flow: fit a sparse offset model from a few hundred "simulations",
   compile it to a flat instruction tape (Serve.Eval), then answer
   yield questions with closed-form Gaussian math and with model Monte
   Carlo streamed through the compiled tape by Serve.Stream — bitwise
   equal to the naive term-by-term evaluator but with the shared
   Hermite recurrences hoisted out of the inner loop — and check both
   against brute-force simulator Monte Carlo. See SERVING.md for the
   serving architecture.

   Run with: dune exec examples/yield_estimation.exe *)

let () =
  let amp = Circuit.Opamp.build () in
  let dim = Circuit.Opamp.dim amp in
  let sim = Circuit.Opamp.simulator amp Circuit.Opamp.Offset in
  let rng = Randkit.Prng.create 21 in

  (* Step 1: fit the model from a modest simulation budget. *)
  let train = 400 in
  let data = Circuit.Simulator.run sim rng ~k:train in
  let basis = Polybasis.Basis.constant_linear dim in
  let g = Polybasis.Design.matrix_rows basis data.Circuit.Simulator.points in
  let r = Rsm.Select.omp rng ~max_lambda:60 g data.Circuit.Simulator.values in
  let model = r.Rsm.Select.model in
  Printf.printf
    "Fitted offset model from %d simulations: %d of %d bases selected\n" train
    (Rsm.Model.nnz model) (Polybasis.Basis.size basis);

  (* Step 2: where does the variance come from? *)
  Printf.printf "\nVariance attribution (total-effect shares):\n";
  Array.iter
    (fun (factor, share) ->
      Printf.printf "  factor %4d : %5.1f%%\n" factor (100. *. share))
    (Rsm.Sensitivity.top_factors ~n:5 model basis);
  Printf.printf "Model sigma: %.2f mV (mean %.2f mV)\n"
    (sqrt (Rsm.Sensitivity.total_variance model basis))
    (Rsm.Sensitivity.mean model basis);

  (* Step 3: yield against |offset| <= 25 mV, three ways. *)
  let spec = Rsm.Yield.spec_both ~lower:(-25.) ~upper:25. in

  (* (a) closed form: a linear Hermite model is exactly Gaussian. *)
  let y_gauss = Rsm.Yield.gaussian model basis spec in
  Printf.printf "\nYield for |offset| <= 25 mV:\n";
  Printf.printf "  closed-form Gaussian      : %.4f\n" y_gauss;

  (* (b) model Monte Carlo on the compiled tape. [Serve.Stream] pulls
     the sample stream through the domain pool in fixed-size batches
     (one PRNG child per batch), so the estimate is bitwise identical
     at every domain count. *)
  let tape = Serve.Eval.compile model basis in
  let pool = Parallel.Pool.default () in
  let t0 = Unix.gettimeofday () in
  let est = Serve.Stream.estimate ~pool ~samples:1_000_000 tape rng spec in
  let t_model = Unix.gettimeofday () -. t0 in
  Printf.printf "  compiled-tape MC (1M evals): %.4f +/- %.4f  [%.2f s]\n"
    est.Serve.Stream.yield est.Serve.Stream.std_error t_model;

  (* (c) brute-force simulator Monte Carlo (what the model replaces). *)
  let k_sim = 4000 in
  let check = Circuit.Simulator.run sim rng ~k:k_sim in
  let pass =
    Array.fold_left
      (fun acc v -> if Rsm.Yield.passes spec v then acc + 1 else acc)
      0 check.Circuit.Simulator.values
  in
  let y_sim = float_of_int pass /. float_of_int k_sim in
  Printf.printf "  simulator MC (%d runs)  : %.4f  [would cost %.0f s of Spectre]\n"
    k_sim y_sim
    (Circuit.Simulator.simulated_cost sim ~k:k_sim);

  (* Step 4: the whole distribution, model vs simulator: the same
     stream, its values materialized for the quantiles. *)
  let model_vals = Serve.Stream.values ~pool ~samples:20_000 tape rng in
  Printf.printf "\nOffset quantiles (mV), model MC (20k cheap evals) vs simulator MC:\n";
  List.iter
    (fun p ->
      Printf.printf "  %2.0f%% : %8.3f  %8.3f\n" (100. *. p)
        (Stat.Descriptive.quantile model_vals p)
        (Stat.Descriptive.quantile check.Circuit.Simulator.values p))
    [ 0.05; 0.5; 0.95 ]
