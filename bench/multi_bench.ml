(* Fused multi-output fitting scenario: one column-generation pass for
   every performance metric.

   A 4-output op-amp LAR+CV fit (gain, bandwidth, power, offset) run
   twice — through the fused (fold × output) grid and through R
   independent per-output fits — with embedded bitwise parity gates at
   1/2/4 domains against the dense per-job grid and the per-output
   fits (exit 1 on violation), and the
   measured wall-clock plus the analytic column-generation reduction
   written to BENCH_speed.json under "multi". *)

module P = Polybasis.Design.Provider
module Sim = Circuit.Simulator

let result_bits (r : Rsm.Select.result) =
  ( r.Rsm.Select.lambda,
    Array.copy r.Rsm.Select.curve,
    r.Rsm.Select.model.Rsm.Model.support,
    Array.copy r.Rsm.Select.model.Rsm.Model.coeffs )

let run ?(quick = false) ?domains () =
  let domains =
    match domains with Some d -> d | None -> Parallel.Pool.default_domains ()
  in
  let n_par = if quick then 20 else 120 in
  let k = if quick then 120 else 400 in
  let max_lambda = if quick then 8 else 16 in
  let folds = 4 in
  let reps = if quick then 3 else 5 in
  let amp = Circuit.Opamp.build ~n_parasitics:n_par () in
  let metrics = Array.of_list Circuit.Opamp.all_metrics in
  let sims = Array.map (Circuit.Opamp.simulator amp) metrics in
  let outputs = Array.length sims in
  let dim = Circuit.Opamp.dim amp in
  let basis = Polybasis.Basis.constant_linear dim in
  let m = Polybasis.Basis.size basis in
  let rng = Randkit.Prng.create Bench_util.default_seed in
  (* One shared Monte-Carlo batch — the R datasets share their points by
     construction, exactly what the fused fit exploits. *)
  let datasets, _report = Sim.run_robust_multi sims rng ~k in
  let pts = datasets.(0).Sim.points in
  let fs = Array.map (fun d -> d.Sim.values) datasets in
  let src_streamed = P.streamed basis pts in
  let src_dense =
    Parallel.Pool.with_pool ~domains:1 (fun pool ->
        P.dense (Polybasis.Design.matrix_rows ~pool basis pts))
  in
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.printf "PARITY FAILURE: %s\n%!" name
    end
  in
  Printf.printf
    "\n=== Multi-output fused fitting: R=%d K=%d M=%d Q=%d max_lambda=%d \
     ===\n%!"
    outputs (Array.length pts) m folds max_lambda;
  let fused_fit pool src =
    Rsm.Select.lars_multi_p ~folds ~pool
      (Randkit.Prng.create Bench_util.default_seed)
      ~max_lambda src fs
  in
  let per_output_fit pool src =
    (* The strongest single-output driver per response: fused-CV where
       it applies, the plain fold loop otherwise — the mode a user gets
       today by fitting each metric separately. *)
    Array.map
      (fun f ->
        Rsm.Select.lars_p ~folds ~pool
          (Randkit.Prng.create Bench_util.default_seed)
          ~max_lambda src f)
      fs
  in
  (* Parity gates: the streamed design runs the fused grid, the dense
     one the per-job grid; both equal independent per-output fits. *)
  List.iter
    (fun d ->
      Parallel.Pool.with_pool ~domains:d (fun pool ->
          let a = Array.map result_bits (fused_fit pool src_streamed) in
          let b = Array.map result_bits (fused_fit pool src_dense) in
          let c = Array.map result_bits (per_output_fit pool src_streamed) in
          check
            (Printf.sprintf "streamed fused grid == dense per-job grid (%d domains)" d)
            (a = b);
          check
            (Printf.sprintf "fused grid == per-output fits (%d domains)" d)
            (a = c)))
    [ 1; 2; 4 ];
  (* Timed arms: the streamed provider at the requested domain count —
     the regime where column generation dominates and the fused grid
     pays it once for all R×Q solvers. *)
  let fused_s, per_s =
    Parallel.Pool.with_pool ~domains (fun pool ->
        ( snd (Bench_util.timed ~reps (fun () -> fused_fit pool src_streamed)),
          snd (Bench_util.timed ~reps (fun () -> per_output_fit pool src_streamed)) ))
  in
  let show = Bench_util.show ~scale:1e3 ~unit:"ms" in
  let ratio a b = a.Measure.median /. b.Measure.median in
  (* Column-generation work per greedy lockstep round: the fused grid
     streams each column once over the K union rows and serves all
     R×Q fold solvers; R per-output fused-CV fits stream it once per
     output. *)
  let gen_rows_fused = Array.length pts in
  let gen_rows_per_output = outputs * gen_rows_fused in
  let gen_work_ratio =
    float_of_int gen_rows_per_output /. float_of_int gen_rows_fused
  in
  Printf.printf
    "domains=%d  per-output %s  fused %s  (%.2fx)\n\
     column generation: per-output %d rows/column per round, fused %d \
     (%.1fx less generation work)\n%!"
    domains (show per_s) (show fused_s) (ratio per_s fused_s)
    gen_rows_per_output gen_rows_fused gen_work_ratio;
  (* Per-round sweep kernel at paper-scale M (streamed quadratic
     dictionary): one fused pass serving all R×Q (output, fold)
     residuals against the R passes per-output fused-CV pays per
     lockstep round — the regime where streamed column generation
     dominates and the grid's saving is the measured wall-clock. *)
  let sn = if quick then 60 else 316 in
  let sk = if quick then 120 else 500 in
  let sbasis = Polybasis.Basis.quadratic sn in
  let sm = Polybasis.Basis.size sbasis in
  let srng = Randkit.Prng.create 47 in
  let spts = Array.init sk (fun _ -> Randkit.Gaussian.vector srng sn) in
  let ssrc = P.streamed sbasis spts in
  let assignment =
    Randkit.Sampling.fold_assignment (Randkit.Prng.create 53) ~n:sk ~folds
  in
  let fold_rows =
    Array.init folds (fun q -> fst (Randkit.Sampling.fold_split assignment q))
  in
  let res_per_output =
    Array.init outputs (fun _ ->
        let full = Randkit.Gaussian.vector srng sk in
        Array.map
          (fun rows -> Array.map (fun i -> full.(i)) rows)
          fold_rows)
  in
  let rows_rq =
    Array.init (outputs * folds) (fun i -> fold_rows.(i mod folds))
  in
  let res_rq = Array.concat (Array.to_list res_per_output) in
  let round_per_s, round_fused_s =
    Parallel.Pool.with_pool ~domains (fun pool ->
        let per_round () =
          Array.map
            (fun rs -> P.gram_tr_multi ~pool ssrc ~rows:fold_rows rs)
            res_per_output
        in
        let fused_round () =
          P.gram_tr_multi ~pool ssrc ~rows:rows_rq res_rq
        in
        check "fused R×Q round bitwise vs R per-output rounds"
          (Array.concat (Array.to_list (per_round ())) = fused_round ());
        ( snd (Bench_util.timed ~reps per_round),
          snd (Bench_util.timed ~reps fused_round) ))
  in
  Printf.printf
    "per-round sweep (K=%d M=%d streamed): per-output %s  fused %s  (%.2fx)\n%!"
    sk sm (show round_per_s) (show round_fused_s)
    (ratio round_per_s round_fused_s);
  let rss_mb = Measure.peak_rss_mb () in
  Bench_util.(
    update_summary ~scenario:"multi" ~domains
      [
        ("outputs", string_of_int outputs);
        ("m", string_of_int m);
        ("k", string_of_int (Array.length pts));
        ("q", string_of_int folds);
        ("max_lambda", string_of_int max_lambda);
        ("per_output_fit_s", summary_json per_s);
        ("fused_fit_s", summary_json fused_s);
        ("fit_speedup", num (ratio per_s fused_s));
        ("gen_rows_per_output", string_of_int gen_rows_per_output);
        ("gen_rows_fused", string_of_int gen_rows_fused);
        ("gen_work_ratio", num gen_work_ratio);
        ( "round_sweep",
          obj
            [
              ("m", string_of_int sm);
              ("k", string_of_int sk);
              ("per_output_s", summary_json round_per_s);
              ("fused_s", summary_json round_fused_s);
              ("speedup", num (ratio round_per_s round_fused_s));
            ] );
        ("peak_rss_mb", num rss_mb);
      ]);
  if !failures > 0 then begin
    Printf.printf "multi scenario: %d parity failure(s)\n%!" !failures;
    exit 1
  end
