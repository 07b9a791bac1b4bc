(* Ablation A1 (DESIGN.md): isolate the design choices the paper credits
   for OMP's advantage.

   (a) Coefficient re-fit: run OMP and STAR to identical lambda on the
       same data - the selection rule is shared, so the error gap is
       attributable to Step 6's least-squares re-fit.
   (b) L1 path vs greedy L0: LAR vs lasso-LARS vs OMP at matched sparsity.
   (c) Cross-validation fold count Q: the paper uses Q = 4 (Fig. 2);
       sweep Q and report the chosen lambda and testing error.
   (d) Shrinkage-only control: ridge (dense L2) shows sparsity, not just
       regularization, is what makes small-K modeling work.
   (e) Unused, so that the other letters keep matching EXPERIMENTS.md.
   (f) Sparsity boundary: the ring oscillator's frequency loads every
       stage equally; when the ground truth is not profoundly sparse,
       the sparse methods' advantage over the dense L2 baseline
       shrinks - the necessary-condition caveat of Section III.
   (g) Adaptive sampling: grow K until the CV error plateaus - the
       automated version of reading Fig. 4's flattening curves.
   (h) Sampling plan: Latin hypercube vs iid Monte Carlo at equal K -
       does stratifying the factor draws sharpen the inner-product
       estimators of eq. (14)?
   (i) Model order: linear vs quadratic vs cubic dictionaries over the
       most important parameters - where does the paper's "strongly
       nonlinear" story saturate?
   (j) Suboptimality: the L0 problem (eq. 11) is NP-hard; on small
       dictionaries the exact optimum is computable by enumeration -
       how close do the heuristics get? *)

open Bench_util

let run ~quick () =
  let amp =
    if quick then Circuit.Opamp.build ~n_parasitics:50 ()
    else Circuit.Opamp.build ()
  in
  let dim = Circuit.Opamp.dim amp in
  let basis = Polybasis.Basis.constant_linear dim in
  let k = if quick then 150 else 400 in
  let test = if quick then 800 else 2000 in
  let sim = Circuit.Opamp.simulator amp Circuit.Opamp.Offset in
  let rng = Randkit.Prng.create default_seed in
  let prep = prepare basis sim rng ~train:k ~test in
  let gt = prep.g_train and ft = prep.f_train in
  let ge = prep.g_test and fe = prep.f_test in

  Printf.printf "\n=== Ablation A1: what makes OMP accurate (OpAmp offset, K = %d) ===\n" k;

  (* (a) re-fit vs inner-product coefficients at matched lambda. *)
  let lambdas = [ 5; 10; 20; 40 ] in
  let rows =
    List.map
      (fun l ->
        let omp = Rsm.Omp.fit gt ft ~lambda:l in
        let star = Rsm.Star.fit gt ft ~lambda:l in
        (* STAR's support, re-fit by least squares: the hybrid isolates
           the coefficient rule from the selection rule. *)
        let star_refit =
          let sup = star.Rsm.Model.support in
          Rsm.Model.make ~basis_size:(Linalg.Mat.cols gt) ~support:sup
            ~coeffs:(Linalg.Lstsq.solve_subset gt sup ft)
        in
        [
          string_of_int l;
          pct (Rsm.Model.error_on omp ge fe);
          pct (Rsm.Model.error_on star ge fe);
          pct (Rsm.Model.error_on star_refit ge fe);
        ])
      lambdas
  in
  print_table ~title:"(a) coefficient re-fit ablation"
    ~header:[ "lambda"; "OMP"; "STAR"; "STAR sel. + LS re-fit" ]
    rows;
  Printf.printf
    "Re-fitting STAR's own selection recovers most of OMP's gap: the \
     coefficient rule, not the selection rule, is the difference.\n";

  (* (b) greedy L0 vs L1 path at matched sparsity. *)
  let rows =
    List.map
      (fun l ->
        let omp = Rsm.Omp.fit gt ft ~lambda:l in
        let lar = Rsm.Lars.fit ~mode:Rsm.Lars.Lar gt ft ~lambda:l in
        let lasso = Rsm.Lars.fit ~mode:Rsm.Lars.Lasso gt ft ~lambda:l in
        [
          string_of_int l;
          pct (Rsm.Model.error_on omp ge fe);
          pct (Rsm.Model.error_on lar ge fe);
          pct (Rsm.Model.error_on lasso ge fe);
        ])
      lambdas
  in
  print_table ~title:"(b) greedy L0 (OMP) vs L1 path (LAR / lasso-LARS)"
    ~header:[ "lambda"; "OMP"; "LAR"; "LASSO" ]
    rows;

  (* (c) CV fold count. *)
  let rows =
    List.map
      (fun q ->
        let rng = Randkit.Prng.create (default_seed + q) in
        let r = Rsm.Select.omp ~folds:q rng ~max_lambda:(min (k / 4) 80) gt ft in
        [
          string_of_int q;
          string_of_int r.Rsm.Select.lambda;
          pct (Rsm.Model.error_on r.Rsm.Select.model ge fe);
        ])
      [ 2; 4; 8 ]
  in
  print_table ~title:"(c) cross-validation fold count (paper: Q = 4)"
    ~header:[ "Q"; "chosen lambda"; "test error" ]
    rows;

  (* (d) shrinkage-only control. *)
  let rng = Randkit.Prng.create (default_seed + 40) in
  let ridge, reg =
    Rsm.Ridge.fit_cv rng ~folds:4
      ~regs:(Array.init 7 (fun i -> 10. ** float_of_int (i - 3)))
      gt ft
  in
  let omp_cv =
    let rng = Randkit.Prng.create (default_seed + 41) in
    (Rsm.Select.omp rng ~max_lambda:(min (k / 4) 80) gt ft).Rsm.Select.model
  in
  print_table ~title:"(d) sparsity vs plain shrinkage at K << M"
    ~header:[ "model"; "test error"; "non-zeros" ]
    [
      [
        "OMP (sparse)";
        pct (Rsm.Model.error_on omp_cv ge fe);
        string_of_int (Rsm.Model.nnz omp_cv);
      ];
      [
        Printf.sprintf "ridge (reg = %g)" reg;
        pct (Rsm.Model.error_on ridge ge fe);
        string_of_int (Rsm.Model.nnz ridge);
      ];
    ];

  (* (f) sparsity boundary: ring oscillator. *)
  let ring = Circuit.Ring_osc.build ~stages:(if quick then 21 else 51) () in
  let rsim = Circuit.Ring_osc.simulator ring Circuit.Ring_osc.Frequency in
  let rng = Randkit.Prng.create (default_seed + 50) in
  let rprep =
    prepare
      (Polybasis.Basis.constant_linear (Circuit.Ring_osc.dim ring))
      rsim rng ~train:k ~test
  in
  let omp_r = run_method ~max_lambda:(min (k / 4) 80) rprep Rsm.Solver.Omp in
  let ridge_r, _ =
    Rsm.Ridge.fit_cv ~unpenalized:[| 0 |]
      (Randkit.Prng.create (default_seed + 51))
      ~folds:4
      ~regs:(Array.init 7 (fun i -> 10. ** float_of_int (i - 3)))
      rprep.g_train rprep.f_train
  in
  let star_r = run_method ~max_lambda:(min (k / 4) 80) rprep Rsm.Solver.Star in
  print_table
    ~title:
      (Printf.sprintf
         "(f) non-sparse ground truth: ring oscillator frequency (%d equal \
          stages, %d factors)"
         (Circuit.Ring_osc.stages ring) (Circuit.Ring_osc.dim ring))
    ~header:[ "model"; "test error"; "non-zeros" ]
    [
      [ "OMP"; pct omp_r.error; string_of_int omp_r.nnz ];
      [ "STAR"; pct star_r.error; string_of_int star_r.nnz ];
      [
        "ridge (dense)";
        pct (Rsm.Model.error_on ridge_r rprep.g_test rprep.f_test);
        string_of_int (Rsm.Model.nnz ridge_r);
      ];
    ];
  Printf.printf
    "When every stage matters equally, sparse selection loses its edge and \
     dense shrinkage catches up - sparsity is the necessary condition \
     (Section III).\n";

  (* (g) adaptive sample allocation on the offset model. *)
  let budget = if quick then 400 else 1000 in
  let sim_stream = Randkit.Prng.create (default_seed + 60) in
  let full = Circuit.Simulator.run sim sim_stream ~k:budget in
  let basis_dim = Polybasis.Basis.constant_linear dim in
  let g_full = Polybasis.Design.matrix_rows basis_dim full.Circuit.Simulator.points in
  let sample ks =
    ( Linalg.Mat.select_rows g_full (Array.init ks (fun i -> i)),
      Array.sub full.Circuit.Simulator.values 0 ks )
  in
  let r =
    Rsm.Incremental.run ~initial:(if quick then 40 else 60) ~max_samples:budget
      ~sample
      (Randkit.Prng.create (default_seed + 61))
  in
  let rows =
    Array.to_list
      (Array.map
         (fun round ->
           [
             string_of_int round.Rsm.Incremental.samples;
             string_of_int round.Rsm.Incremental.lambda;
             pct round.Rsm.Incremental.cv_error;
           ])
         r.Rsm.Incremental.rounds)
  in
  print_table ~title:"(g) adaptive sample allocation (offset model)"
    ~header:[ "K"; "lambda"; "CV error" ]
    rows;
  Printf.printf
    "Converged: %b - stopped at %d of %d budgeted simulations; test error of \
     the final model: %s.\n"
    r.Rsm.Incremental.converged
    r.Rsm.Incremental.rounds.(Array.length r.Rsm.Incremental.rounds - 1)
      .Rsm.Incremental.samples
    budget
    (pct (Rsm.Model.error_on r.Rsm.Incremental.final ge fe));

  (* (h) sampling plan: LHS vs iid MC at matched K. *)
  let ks = if quick then [ 50; 100 ] else [ 100; 200; 400 ] in
  let eval_offset dy = Circuit.Opamp.eval amp Circuit.Opamp.Offset dy in
  let fit_on points =
    let gk = Polybasis.Design.matrix_rows basis points in
    let fk = Array.map eval_offset points in
    let model = Rsm.Omp.fit gk fk ~lambda:(min (Array.length points / 4) 40) in
    Rsm.Model.error_on model ge fe
  in
  let rows =
    List.map
      (fun kk ->
        let g_mc = Randkit.Prng.create (default_seed + 70 + kk) in
        let mc_pts = Array.init kk (fun _ -> Randkit.Gaussian.vector g_mc dim) in
        let g_lhs = Randkit.Prng.create (default_seed + 71 + kk) in
        let lhs_pts = Randkit.Lhs.gaussian_points g_lhs ~k:kk ~n:dim in
        [ string_of_int kk; pct (fit_on mc_pts); pct (fit_on lhs_pts) ])
      ks
  in
  print_table ~title:"(h) sampling plan: iid Monte Carlo vs Latin hypercube"
    ~header:[ "K"; "iid MC"; "LHS" ]
    rows;
  Printf.printf
    "LHS stratifies marginals only; in a %d-dimensional space with sparse \
     structure it buys little over iid MC - consistent with the paper's \
     choice of plain random sampling (Section IV-A).\n"
    dim;

  (* (i) model order sweep on the nonlinear power metric. *)
  let psim = Circuit.Opamp.simulator amp Circuit.Opamp.Power in
  let prng = Randkit.Prng.create (default_seed + 80) in
  let pexp = Circuit.Testbench.generate psim prng ~train:(if quick then 300 else 800) ~test in
  let tr_pts = pexp.Circuit.Testbench.train.Circuit.Simulator.points in
  let te_pts = pexp.Circuit.Testbench.test.Circuit.Simulator.points in
  let f_trp = pexp.Circuit.Testbench.train.Circuit.Simulator.values in
  let f_tep = pexp.Circuit.Testbench.test.Circuit.Simulator.values in
  (* Important parameters from a linear probe. *)
  let lin_g = Polybasis.Design.matrix_rows basis tr_pts in
  let probe = Rsm.Omp.fit lin_g f_trp ~lambda:40 in
  let dense = Rsm.Model.to_dense probe in
  let scored = Array.init dim (fun j -> (Float.abs dense.(j + 1), j)) in
  Array.sort (fun (a, _) (b, _) -> compare b a) scored;
  let n_top = if quick then 8 else 12 in
  let top = Array.map snd (Array.sub scored 0 n_top) in
  Array.sort compare top;
  let rows =
    List.map
      (fun degree ->
        let b =
          Polybasis.Basis.embed
            (Polybasis.Basis.total_degree n_top degree)
            top ~dim
        in
        let gk = Polybasis.Design.matrix_rows b tr_pts in
        let gke = Polybasis.Design.matrix_rows b te_pts in
        let r =
          Rsm.Select.omp
            (Randkit.Prng.create (default_seed + 81))
            ~max_lambda:(min (Array.length tr_pts / 4) 100)
            gk f_trp
        in
        [
          string_of_int degree;
          string_of_int (Polybasis.Basis.size b);
          string_of_int (Rsm.Model.nnz r.Rsm.Select.model);
          pct (Rsm.Model.error_on r.Rsm.Select.model gke f_tep);
        ])
      [ 1; 2; 3 ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "(i) model order over the %d most important parameters (power)" n_top)
    ~header:[ "degree"; "dictionary"; "bases used"; "test error" ]
    rows;

  (* (j) suboptimality against the exact L0 optimum. *)
  let trials = if quick then 8 else 20 in
  let ratios = Hashtbl.create 4 in
  let record name r =
    let cur = try Hashtbl.find ratios name with Not_found -> [] in
    Hashtbl.replace ratios name (r :: cur)
  in
  for t = 0 to trials - 1 do
    let gen = Randkit.Prng.create (default_seed + 90 + t) in
    let gk = Randkit.Gaussian.matrix gen 30 14 in
    let fk =
      Array.init 30 (fun i ->
          (2. *. Linalg.Mat.get gk i 1)
          -. (1.5 *. Linalg.Mat.get gk i 7)
          +. (0.8 *. Linalg.Mat.get gk i 12)
          +. (0.4 *. Randkit.Gaussian.sample gen))
    in
    let exact = Rsm.L0_exact.solve gk fk ~lambda:3 in
    let opt = Float.max exact.Rsm.L0_exact.residual_norm 1e-12 in
    List.iter
      (fun (name, model) ->
        let res =
          Linalg.Vec.nrm2
            (Linalg.Vec.sub fk (Rsm.Model.predict_design model gk))
        in
        record name (res /. opt))
      [
        ("OMP", Rsm.Omp.fit gk fk ~lambda:3);
        ("STAR", Rsm.Star.fit gk fk ~lambda:3);
        ("LAR", Rsm.Lars.fit gk fk ~lambda:3);
      ]
  done;
  let rows =
    List.map
      (fun name ->
        let rs = Array.of_list (Hashtbl.find ratios name) in
        let optimal = Array.fold_left (fun a r -> if r <= 1.0000001 then a + 1 else a) 0 rs in
        [
          name;
          Printf.sprintf "%.4f" (Stat.Descriptive.mean rs);
          Printf.sprintf "%.4f" (Array.fold_left Float.max 1. rs);
          Printf.sprintf "%d/%d" optimal trials;
        ])
      [ "OMP"; "STAR"; "LAR" ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "(j) residual vs the exact L0 optimum (30x14, lambda = 3, %d trials)"
         trials)
    ~header:[ "method"; "mean ratio"; "worst ratio"; "exactly optimal" ]
    rows
