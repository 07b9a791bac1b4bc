(* Worst-case corner extraction.

   Classical worst-case analysis (the paper's reference [6]) from a
   sparse model: fit the SRAM read-delay model, ask "how slow can the
   read get at 3 sigma?", extract the corner (an actual factor vector),
   verify it against the simulator, and compare the Gaussian tail with
   the model Monte-Carlo one.

   Run with: dune exec examples/worst_case.exe *)

let () =
  let sram = Circuit.Sram.build ~cells:80 () in
  let dim = Circuit.Sram.dim sram in
  let sim = Circuit.Sram.simulator sram in
  let rng = Randkit.Prng.create 33 in

  (* Fit. *)
  let k = 400 in
  let data = Circuit.Simulator.run sim rng ~k in
  let basis = Polybasis.Basis.constant_linear dim in
  let g = Polybasis.Design.matrix_rows basis data.Circuit.Simulator.points in
  let r = Rsm.Select.omp rng ~max_lambda:80 g data.Circuit.Simulator.values in
  let model = r.Rsm.Select.model in
  Printf.printf "SRAM read delay model: %d of %d bases from %d simulations\n"
    (Rsm.Model.nnz model) (Polybasis.Basis.size basis) k;
  Printf.printf "Nominal delay: %.1f ps; model sigma: %.1f ps\n"
    (Circuit.Sram.nominal_delay_ps sram)
    (sqrt (Rsm.Sensitivity.total_variance model basis));
  (* The response-surface equation itself, truncated for display. *)
  let expr = Rsm.Serialize.to_expression model basis in
  Printf.printf "Model equation: %s ...\n"
    (String.sub expr 0 (min 100 (String.length expr)));

  (* Worst-case corners at increasing process radius. *)
  Printf.printf "\n%-8s %-16s %-16s %-10s\n" "radius" "model worst (ps)"
    "simulated (ps)" "gap";
  List.iter
    (fun sigma ->
      let e = Rsm.Corner.linear_worst model basis ~sigma ~maximize:true in
      let simulated = Circuit.Sram.read_delay_ps sram e.Rsm.Corner.corner in
      Printf.printf "%-8.1f %-16.1f %-16.1f %+.1f%%\n" sigma e.Rsm.Corner.value
        simulated
        (100. *. (e.Rsm.Corner.value -. simulated) /. simulated))
    [ 1.; 2.; 3.; 4. ];
  Printf.printf
    "(the corner is a concrete factor vector handed back to the simulator — \
     the gap is the model's extrapolation error at that corner)\n";

  (* Distribution tail: Gaussian vs empirical, from model Monte Carlo
     streamed through the compiled tape. *)
  let vals =
    Serve.Stream.values ~samples:50_000 (Serve.Eval.compile model basis) rng
  in
  let mean = Stat.Descriptive.mean vals and std = Stat.Descriptive.std vals in
  Printf.printf "\nModel distribution: mean %.1f ps, sigma %.1f ps\n" mean std;
  let p = 0.9999 in
  Printf.printf "99.99th percentile delay:\n";
  Printf.printf "  Gaussian         : %.1f ps\n"
    (mean +. (std *. Stat.Distribution.quantile p));
  Printf.printf "  model Monte Carlo: %.1f ps\n"
    (Stat.Descriptive.quantile vals p)
