(* Figure 4: linear modeling error vs number of training samples for the
   two-stage OpAmp — four metrics (a) gain, (b) bandwidth, (c) power,
   (d) offset, and four methods (LS, STAR, LAR, OMP).

   The paper's qualitative content: the three sparse methods reach low
   error with far fewer samples than LS (which cannot run at all below
   K = M), STAR trails OMP/LAR, and the curves fall with K.

   Gate ([run] returns false): on every metric and K, LAR and OMP each
   have lower error than STAR, and at the smallest K OMP has lower
   error than LAR. *)

let paper_note =
  "Paper Fig. 4: sparse methods need ~2x fewer samples than LS at equal \
   error; OMP reduces error up to 1.5-5x vs STAR; LAR occasionally wins \
   (e.g. bandwidth)."

let run ~quick () =
  let amp =
    if quick then Circuit.Opamp.build ~n_parasitics:50 ()
    else Circuit.Opamp.build ()
  in
  let dim = Circuit.Opamp.dim amp in
  let counts =
    if quick then [ 50; 100; 200; 300 ] else [ 100; 200; 400; 600; 800; 1200 ]
  in
  let test = if quick then 1000 else 3000 in
  let max_train = List.fold_left max 0 counts in
  let basis = Polybasis.Basis.constant_linear dim in
  Printf.printf "\n=== Fig. 4: OpAmp linear modeling error vs training samples ===\n";
  Printf.printf "(%d independent factors, %d basis functions, testing set %d)\n"
    dim (Polybasis.Basis.size basis) test;
  print_endline paper_note;
  let methods = Rsm.Solver.all in
  let failures = ref [] in
  List.iter
    (fun metric ->
      let name = Circuit.Opamp.metric_name metric in
      let sim = Circuit.Opamp.simulator amp metric in
      let rng = Randkit.Prng.create Bench_util.default_seed in
      let prep = Bench_util.prepare basis sim rng ~train:max_train ~test in
      let rows =
        List.map
          (fun k ->
            let errors =
              List.map
                (fun m ->
                  if Rsm.Solver.needs_overdetermined m && k <= dim then (m, None)
                  else
                    let o =
                      Bench_util.run_method ~train_sub:(Some k)
                        ~max_lambda:(min (k / 4) 100)
                        prep m
                    in
                    (m, Some o.Bench_util.error))
                methods
            in
            let err m = Option.join (List.assoc_opt m errors) in
            let beats w l =
              match (err w, err l) with
              | Some ew, Some el when not (ew < el) ->
                  failures :=
                    Printf.sprintf "%s, K = %d: %s %s does not beat %s %s" name
                      k (Rsm.Solver.name w) (Bench_util.pct ew)
                      (Rsm.Solver.name l) (Bench_util.pct el)
                    :: !failures
              | _ -> ()
            in
            beats Rsm.Solver.Lar Rsm.Solver.Star;
            beats Rsm.Solver.Omp Rsm.Solver.Star;
            if k = List.hd counts then beats Rsm.Solver.Omp Rsm.Solver.Lar;
            string_of_int k
            :: List.map
                 (fun (_, e) -> Option.fold ~none:"-" ~some:Bench_util.pct e)
                 errors)
          counts
      in
      Bench_util.print_table
        ~title:(Printf.sprintf "Fig. 4 (%s): testing error vs K" name)
        ~header:("K" :: List.map Rsm.Solver.name methods)
        rows)
    Circuit.Opamp.all_metrics;
  Bench_util.report_gate "Fig. 4 ordering" (List.rev !failures)
