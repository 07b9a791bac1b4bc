(* Fitting-kernel speed: bechamel micro-benchmarks per paper table, plus
   a sequential-vs-parallel comparison of the four parallelized hot
   paths (design matrix, Gᵀ·r correlation sweep, Q-fold CV, Monte-Carlo
   simulation batch) that emits a JSON speedup report. *)

open Bechamel
open Toolkit

let make_problem ~k ~m ~p seed =
  let rng = Randkit.Prng.create seed in
  let g = Randkit.Gaussian.matrix rng k m in
  let support = Randkit.Sampling.subsample rng (Array.init m Fun.id) p in
  let f =
    Array.init k (fun i ->
        let acc = ref (0.1 *. Randkit.Gaussian.sample rng) in
        Array.iter (fun j -> acc := !acc +. Linalg.Mat.get g i j) support;
        !acc)
  in
  (g, f)

let tests () =
  (* Table I shape: OpAmp linear, K = 600, M = 631. *)
  let g1, f1 = make_problem ~k:600 ~m:631 ~p:30 1 in
  (* Tables II-III shape: quadratic dictionary, K = 500, M ~ 1891. *)
  let g2, f2 = make_problem ~k:500 ~m:1891 ~p:60 2 in
  (* Table IV shape: SRAM linear, K = 500, M = 1510. *)
  let g4, f4 = make_problem ~k:500 ~m:1510 ~p:40 3 in
  (* LS baseline shape: over-determined 700x631 normal equations. *)
  let gls, fls = make_problem ~k:700 ~m:631 ~p:30 4 in
  let amp = Circuit.Opamp.build ~n_parasitics:50 () in
  let basis = Polybasis.Basis.constant_linear (Circuit.Opamp.dim amp) in
  let rng = Randkit.Prng.create 5 in
  let pts = Array.init 100 (fun _ -> Randkit.Gaussian.vector rng (Circuit.Opamp.dim amp)) in
  [
    Test.make ~name:"table1: OMP linear 600x631"
      (Staged.stage (fun () -> ignore (Rsm.Omp.fit g1 f1 ~lambda:30)));
    Test.make ~name:"table2/3: OMP quadratic 500x1891"
      (Staged.stage (fun () -> ignore (Rsm.Omp.fit g2 f2 ~lambda:60)));
    Test.make ~name:"table4: OMP sram 500x1510"
      (Staged.stage (fun () -> ignore (Rsm.Omp.fit g4 f4 ~lambda:40)));
    Test.make ~name:"table1: LS baseline 700x631"
      (Staged.stage (fun () -> ignore (Rsm.Ls.fit ~method_:Linalg.Lstsq.Normal gls fls)));
    Test.make ~name:"fig4: LAR linear 600x631"
      (Staged.stage (fun () ->
           ignore (Rsm.Lars.fit ~mode:Rsm.Lars.Lar g1 f1 ~lambda:30)));
    Test.make ~name:"fig4: STAR linear 600x631"
      (Staged.stage (fun () -> ignore (Rsm.Star.fit g1 f1 ~lambda:30)));
    Test.make ~name:"design matrix 100x131"
      (Staged.stage (fun () -> ignore (Polybasis.Design.matrix_rows basis pts)));
  ]

let bechamel () =
  Printf.printf "\n=== Bechamel fitting-kernel timings ===\n%!";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 2.0) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let stats = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.printf "%-36s %12.3f ms/run\n%!" name (est /. 1e6)
          | _ -> Printf.printf "%-36s (no estimate)\n%!" name)
        stats)
    (tests ())

(* --- sequential vs parallel speedup report ------------------------- *)

(* Best-of-R wall clock: robust against scheduler noise without needing
   bechamel's regression machinery for multi-millisecond kernels. *)
let best_of ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

type kernel = { name : string; run : Parallel.Pool.t -> unit }

(* The default SRAM workload: the paper's headline case at bench scale. *)
let sram_kernels ~quick =
  let cells = if quick then 24 else 120 in
  let k = if quick then 60 else 400 in
  let mc = if quick then 200 else 2000 in
  let sram = Circuit.Sram.build ~cells () in
  let sim = Circuit.Sram.simulator sram in
  let dim = Circuit.Sram.dim sram in
  let basis = Polybasis.Basis.constant_linear dim in
  let rng = Randkit.Prng.create 11 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng dim) in
  let g = Polybasis.Design.matrix_rows ~pool:(Parallel.Pool.create ~domains:1 ()) basis pts in
  let f = Array.map (fun p -> sim.Circuit.Simulator.eval p) pts in
  let res = Randkit.Gaussian.vector rng k in
  let skip = Array.make (Polybasis.Basis.size basis) false in
  let lambda = min 20 (min k (Polybasis.Basis.size basis)) in
  [
    {
      name = "design_matrix";
      run = (fun pool -> ignore (Polybasis.Design.matrix_rows ~pool basis pts));
    };
    {
      name = "omp_corr_sweep";
      run =
        (fun pool ->
          let src = Polybasis.Design.Provider.dense g in
          for _ = 1 to 20 do
            ignore (Rsm.Corr_sweep.argmax_abs ~pool ~skip src res)
          done);
    };
    {
      name = "omp_fit";
      run = (fun pool -> ignore (Rsm.Omp.fit ~pool g f ~lambda));
    };
    {
      name = "cv_select_omp";
      run =
        (fun pool ->
          let rng = Randkit.Prng.create 17 in
          ignore (Rsm.Select.omp ~pool rng ~max_lambda:(min 10 lambda) g f));
    };
    {
      name = "simulator_batch";
      run =
        (fun pool ->
          let rng = Randkit.Prng.create 23 in
          ignore (Circuit.Simulator.run ~pool sim rng ~k:mc));
    };
  ]

(* Dense vs streamed correlation sweep over the same quadratic
   dictionary: the acceptance gate for the matrix-free engine is that
   streaming the Hermite tiles stays within a small factor of reading a
   materialized matrix. *)
let sweep_kernels ~quick =
  let n = if quick then 44 else 139 in
  let k = if quick then 120 else 500 in
  let reps = if quick then 4 else 6 in
  let basis = Polybasis.Basis.quadratic n in
  let rng = Randkit.Prng.create 31 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng n) in
  let streamed = Polybasis.Design.Provider.streamed basis pts in
  let dense =
    Polybasis.Design.Provider.dense
      (Polybasis.Design.matrix_rows
         ~pool:(Parallel.Pool.create ~domains:1 ())
         basis pts)
  in
  let res = Randkit.Gaussian.vector rng k in
  let sweep src pool =
    for _ = 1 to reps do
      ignore (Rsm.Corr_sweep.gram_tr ~pool src res)
    done
  in
  [
    { name = "sweep_dense"; run = sweep dense };
    { name = "sweep_streamed"; run = sweep streamed };
  ]

(* Paper-scale matrix-free OMP: M ≈ 10⁵ columns (quick: 10⁴) that are
   never materialized. Runs before everything else so the VmHWM reading
   reflects this scenario's footprint. *)
type bigm_report = {
  bm : int;
  bk : int;
  blambda : int;
  fit_s : float;
  rss_mb : float;
  bnnz : int;
}

let bigm ~quick ~pool =
  let n = if quick then 140 else 446 in
  let k = if quick then 150 else 500 in
  let lambda = if quick then 8 else 15 in
  let basis = Polybasis.Basis.quadratic n in
  let m = Polybasis.Basis.size basis in
  let rng = Randkit.Prng.create 41 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng n) in
  let src = Polybasis.Design.Provider.streamed basis pts in
  (* Sparse synthetic response: a handful of true columns plus noise. *)
  let p_true = min 10 lambda in
  let support = Randkit.Sampling.subsample rng (Array.init m Fun.id) p_true in
  let f = Array.init k (fun _ -> 0.05 *. Randkit.Gaussian.sample rng) in
  Array.iter
    (fun j ->
      let col = Polybasis.Design.Provider.column src j in
      for i = 0 to k - 1 do
        f.(i) <- f.(i) +. col.(i)
      done)
    support;
  let t0 = Unix.gettimeofday () in
  let model = Rsm.Omp.fit_p ~pool src f ~lambda in
  let fit_s = Unix.gettimeofday () -. t0 in
  let rss_mb = Bench_util.peak_rss_mb () in
  Printf.printf
    "bigm (matrix-free OMP): K=%d M=%d lambda=%d  fit %.2f s  nnz %d  peak \
     RSS %.0f MB\n\
     %!"
    k m lambda fit_s (Rsm.Model.nnz model) rss_mb;
  { bm = m; bk = k; blambda = lambda; fit_s; rss_mb; bnnz = Rsm.Model.nnz model }

let out_dir = Filename.concat "bench" "out"

let ensure_out_dir () =
  (try Unix.mkdir "bench" 0o755 with Unix.Unix_error _ -> ());
  try Unix.mkdir out_dir 0o755 with Unix.Unix_error _ -> ()

let speedup ~quick ~domains () =
  let domains =
    match domains with Some d -> d | None -> Parallel.Pool.default_domains ()
  in
  let reps = if quick then 2 else 3 in
  Printf.printf "\n=== Matrix-free big-M scenario ===\n%!" ;
  let seq_pool = Parallel.Pool.create ~domains:1 () in
  let par_pool = Parallel.Pool.create ~domains () in
  (* First, before any dense matrices are built, so VmHWM is this
     scenario's peak. *)
  let big = bigm ~quick ~pool:par_pool in
  let kernels = sram_kernels ~quick @ sweep_kernels ~quick in
  Printf.printf "\n=== Sequential vs parallel (%d domain%s) ===\n%!" domains
    (if domains = 1 then "" else "s");
  let rows =
    List.map
      (fun kernel ->
        (* Warm both arms once so allocation effects are shared. *)
        kernel.run seq_pool;
        kernel.run par_pool;
        let seq_s = best_of ~reps (fun () -> kernel.run seq_pool) in
        let par_s = best_of ~reps (fun () -> kernel.run par_pool) in
        let sp = seq_s /. par_s in
        Printf.printf "%-18s seq %8.1f ms   par %8.1f ms   speedup %5.2fx\n%!"
          kernel.name (1e3 *. seq_s) (1e3 *. par_s) sp;
        (kernel.name, seq_s, par_s, sp))
      kernels
  in
  Parallel.Pool.shutdown seq_pool;
  Parallel.Pool.shutdown par_pool;
  let json =
    let b = Buffer.create 512 in
    Buffer.add_string b "{\n";
    Buffer.add_string b (Printf.sprintf "  \"domains\": %d,\n" domains);
    Buffer.add_string b
      (Printf.sprintf
         "  \"bigm\": {\"m\": %d, \"k\": %d, \"lambda\": %d, \"fit_s\": %.3f, \
          \"peak_rss_mb\": %.1f, \"nnz\": %d},\n"
         big.bm big.bk big.blambda big.fit_s big.rss_mb big.bnnz);
    Buffer.add_string b "  \"kernels\": [\n";
    List.iteri
      (fun i (name, seq_s, par_s, sp) ->
        Buffer.add_string b
          (Printf.sprintf
             "    {\"name\": %S, \"seq_s\": %.6f, \"par_s\": %.6f, \
              \"speedup\": %.3f}%s\n"
             name seq_s par_s sp
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string b "  ]\n}\n";
    Buffer.contents b
  in
  print_string json;
  ensure_out_dir ();
  let report = Filename.concat out_dir "speed_report.json" in
  let oc = open_out report in
  output_string oc json;
  close_out oc;
  Printf.printf "JSON report written to %s\n%!" report;
  (* One-line summary entry in the canonical tracked report. *)
  let payload =
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"domains\": %d, \"bigm\": {\"m\": %d, \"k\": %d, \"fit_s\": %.3f, \
          \"peak_rss_mb\": %.1f}, \"kernels\": {"
         domains big.bm big.bk big.fit_s big.rss_mb);
    List.iteri
      (fun i (name, seq_s, par_s, sp) ->
        Buffer.add_string b
          (Printf.sprintf
             "%s\"%s\": {\"seq_s\": %.6f, \"par_s\": %.6f, \"speedup\": %.3f}"
             (if i = 0 then "" else ", ")
             name seq_s par_s sp))
      rows;
    Buffer.add_string b "}}";
    Buffer.contents b
  in
  Bench_util.update_summary ~scenario:"speed" ~payload;
  Printf.printf "summary updated in %s\n%!" Bench_util.summary_file

(* --- gram-cached sweep engine scenario ----------------------------- *)

let rel_gap a b =
  let scale = max (Float.abs a) (Float.abs b) in
  if scale = 0. then 0. else Float.abs (a -. b) /. scale

(* An exact LAR step runs two sweeps (Gᵀr, Gᵀu); an incremental one runs
   the cached step plus one Gram build per entering column. *)
let lar_step_speedup ~exact_sweep_s ~inc_step_s ~gram_build_s =
  2. *. exact_sweep_s /. (inc_step_s +. gram_build_s)

(* Per-step sweep-phase cost of the gram-cached incremental LAR step
   against the exact sweep it replaces, and one fused CV round — Q fold
   lanes plus the all-rows refit lane in one multi-residual sweep —
   against Q + 1 sweeps of row-subset copies, at the paper's Table II
   shape (quadratic dictionary over N = 200 factors, M = 20 301,
   K = 1000) unless --quick. Every timed kernel is guarded by its parity
   contract (incremental ≤ 1e-10 relative, fused bitwise); a violation
   fails the bench with exit 1, so this scenario doubles as the
   sweep-parity smoke for CI. *)
let sweep_scenario ~quick ~domains () =
  let domains =
    match domains with Some d -> d | None -> Parallel.Pool.default_domains ()
  in
  let n = if quick then 60 else 200 in
  let k = if quick then 120 else 1000 in
  let p = if quick then 8 else 20 in
  let q = 4 in
  let reps = if quick then 3 else 5 in
  let basis = Polybasis.Basis.quadratic n in
  let m = Polybasis.Basis.size basis in
  let rng = Randkit.Prng.create 47 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng n) in
  let src = Polybasis.Design.Provider.streamed basis pts in
  let res = Randkit.Gaussian.vector rng k in
  let support = Randkit.Sampling.subsample rng (Array.init m Fun.id) p in
  Array.sort compare support;
  let assignment =
    Randkit.Sampling.fold_assignment (Randkit.Prng.create 53) ~n:k ~folds:q
  in
  (* The Q training-fold lanes, then the all-rows lane of the refit
     walk. *)
  let fold_rows =
    Array.append
      (Array.init q (fun fq -> fst (Randkit.Sampling.fold_split assignment fq)))
      [| Array.init k Fun.id |]
  in
  let lanes = Array.length fold_rows in
  let fold_res =
    Array.map (fun rows -> Array.map (fun i -> res.(i)) rows) fold_rows
  in
  let fold_skips = Array.init lanes (fun _ -> Array.make m false) in
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.printf "PARITY FAILURE: %s\n%!" name
    end
  in
  let worst_gap exact approx =
    let worst = ref 0. in
    Array.iteri (fun j v -> worst := Float.max !worst (rel_gap v approx.(j))) exact;
    !worst
  in
  (* A LAR direction over the support, u = Σ w_p·g_{j_p}. *)
  let cols = Array.map (Polybasis.Design.Provider.column src) support in
  let weights =
    Array.mapi (fun i j -> (j, if i mod 2 = 0 then 0.5 else -0.25)) support
  in
  let u = Array.make k 0. in
  Array.iteri
    (fun i (_, w) ->
      for r = 0 to k - 1 do
        u.(r) <- u.(r) +. (w *. cols.(i).(r))
      done)
    weights;
  let gamma = 1e-3 in
  Printf.printf
    "\n=== Sweep engine scenario: K=%d M=%d p=%d Q=%d (%d domain%s) ===\n%!"
    k m p q domains (if domains = 1 then "" else "s");
  let measure domains =
    let pool = Parallel.Pool.create ~domains () in
    (* Incremental arm — LAR's step: with the p active Gram columns
       cached, the direction image Gᵀu is their O(p·M) combination and
       the correlations retreat along it at O(M), against one exact
       O(K·M) sweep of u with streamed column generation. Each entering
       column pays one Gram build (an exact sweep of its column), timed
       here over the p builds. *)
    let inc = Rsm.Corr_sweep.Inc.create ~pool ~refresh:0 src res in
    let t0 = Unix.gettimeofday () in
    Array.iteri (fun i j -> Rsm.Corr_sweep.Inc.ensure_gram inc j cols.(i)) support;
    let gram_build_s = (Unix.gettimeofday () -. t0) /. float_of_int p in
    (* Parity: the cached combination against an exact sweep of u, and
       one retreat against an exact sweep of the moved residual. *)
    let a = Rsm.Corr_sweep.Inc.combination inc weights in
    let comb_gap = worst_gap (Rsm.Corr_sweep.gram_tr ~pool src u) a in
    check (Printf.sprintf "combination vs exact G^T.u (%.2e rel)" comb_gap)
      (comb_gap <= 1e-10);
    Rsm.Corr_sweep.Inc.retreat inc gamma a;
    let moved = Array.mapi (fun r x -> x -. (gamma *. u.(r))) res in
    let retreat_gap =
      worst_gap
        (Rsm.Corr_sweep.gram_tr ~pool src moved)
        (Rsm.Corr_sweep.Inc.correlations inc)
    in
    check
      (Printf.sprintf "retreat vs exact correlations (%.2e rel)" retreat_gap)
      (retreat_gap <= 1e-10);
    Printf.printf
      "domains=%d  parity: combination %.1e, retreat %.1e rel (gate 1e-10)\n%!"
      domains comb_gap retreat_gap;
    let exact_sweep_s =
      Bench_util.median_of ~reps (fun () ->
          ignore (Rsm.Corr_sweep.gram_tr ~pool src u))
    in
    let inc_step_s =
      Bench_util.median_of ~reps (fun () ->
          Rsm.Corr_sweep.Inc.retreat inc 0.
            (Rsm.Corr_sweep.Inc.combination inc weights))
    in
    (* Fused arm: one multi-residual sweep against Q + 1 sweeps of
       row-subset providers, each built once as a per-job driver builds
       its copies — same numbers, column generation paid once. *)
    let copies =
      Array.map (Polybasis.Design.Provider.select_rows src) fold_rows
    in
    let per_fold () =
      Array.mapi
        (fun fq sub -> Rsm.Corr_sweep.gram_tr ~pool sub fold_res.(fq))
        copies
    in
    let fused () =
      Rsm.Corr_sweep.gram_tr_multi ~pool src ~rows:fold_rows fold_res
    in
    let ref_out = per_fold () and fused_out = fused () in
    let bits = Array.map Int64.bits_of_float in
    check "fused multi-sweep bitwise vs per-fold sweeps"
      (Array.for_all2 (fun a b -> bits a = bits b) ref_out fused_out);
    let picks =
      Rsm.Corr_sweep.argmax_abs_multi ~pool ~skips:fold_skips src
        ~rows:fold_rows fold_res
    in
    check "fused argmax bitwise vs per-fold argmax"
      (Array.for_all2
         (fun (j, v) cref ->
           let j', v' =
             let best = ref (-1) and best_v = ref 0. in
             Array.iteri
               (fun jj cv ->
                 if Float.abs cv > !best_v then begin
                   best := jj;
                   best_v := Float.abs cv
                 end)
               cref;
             (!best, !best_v)
           in
           j = j' && Int64.bits_of_float v = Int64.bits_of_float v')
         picks ref_out);
    let fold_sweep_s = Bench_util.median_of ~reps (fun () -> ignore (per_fold ())) in
    let fused_sweep_s = Bench_util.median_of ~reps (fun () -> ignore (fused ())) in
    Parallel.Pool.shutdown pool;
    Printf.printf
      "domains=%d  exact G^T.u %8.2f ms  incremental step %8.2f ms  (%.1fx)  \
       + Gram build %8.2f ms per entering column\n\
       domains=%d  LAR step: exact 2 sweeps %8.2f ms  incremental %8.2f ms  \
       (%.2fx)\n\
       domains=%d  %d-fold + refit %8.2f ms  fused round %8.2f ms  (%.1fx)\n%!"
      domains (1e3 *. exact_sweep_s) (1e3 *. inc_step_s)
      (exact_sweep_s /. inc_step_s) (1e3 *. gram_build_s)
      domains (2e3 *. exact_sweep_s) (1e3 *. (inc_step_s +. gram_build_s))
      (lar_step_speedup ~exact_sweep_s ~inc_step_s ~gram_build_s)
      domains q (1e3 *. fold_sweep_s) (1e3 *. fused_sweep_s)
      (fold_sweep_s /. fused_sweep_s);
    (exact_sweep_s, inc_step_s, gram_build_s, fold_sweep_s, fused_sweep_s)
  in
  let arms =
    if domains = 1 then [ (1, measure 1) ]
    else begin
      let one = measure 1 in
      let par = measure domains in
      [ (1, one); (domains, par) ]
    end
  in
  let rss_mb = Bench_util.peak_rss_mb () in
  (* Column-generation work: rows whose streamed basis entries each
     round evaluates, per column. The Q fold sweeps and the refit sweep
     regenerate every column on their own rows ((Q−1)·K + K = Q·K
     rows); the fused round generates each column once over the K
     rows. *)
  let gen_rows_per_fold =
    Array.fold_left (fun acc rows -> acc + Array.length rows) 0 fold_rows
  in
  let gen_work_ratio = float_of_int gen_rows_per_fold /. float_of_int k in
  Printf.printf
    "column generation: per-job %d rows/column, fused %d rows/column \
     (%.1fx less generation work)\n%!"
    gen_rows_per_fold k gen_work_ratio;
  let payload =
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"m\": %d, \"k\": %d, \"p\": %d, \"q\": %d, \"lanes\": %d, \
          \"gen_rows_per_fold\": %d, \"gen_rows_fused\": %d, \
          \"gen_work_ratio\": %.2f, \"per_domains\": {"
         m k p q lanes gen_rows_per_fold k gen_work_ratio);
    List.iteri
      (fun i (d, (ex, inc, gram, fold, fused)) ->
        Buffer.add_string b
          (Printf.sprintf
             "%s\"%d\": {\"exact_sweep_s\": %.6f, \"inc_step_s\": %.6f, \
              \"gram_build_s\": %.6f, \"lar_step_speedup\": %.2f, \
              \"fold_sweep_s\": %.6f, \"fused_sweep_s\": %.6f, \
              \"fused_speedup\": %.2f}"
             (if i = 0 then "" else ", ")
             d ex inc gram
             (lar_step_speedup ~exact_sweep_s:ex ~inc_step_s:inc
                ~gram_build_s:gram)
             fold fused (fold /. fused)))
      arms;
    Buffer.add_string b (Printf.sprintf "}, \"peak_rss_mb\": %.1f}" rss_mb);
    Buffer.contents b
  in
  Bench_util.update_summary ~scenario:"sweep" ~payload;
  Printf.printf "summary updated in %s\n%!" Bench_util.summary_file;
  if !failures > 0 then begin
    Printf.printf "sweep scenario: %d parity failure(s)\n%!" !failures;
    exit 1
  end

let run ?(quick = false) ?domains () =
  speedup ~quick ~domains ();
  if not quick then bechamel ()
