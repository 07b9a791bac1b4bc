(* Speed scenarios that no e2ebench probe times on a workload's own
   data. [run]: a matrix-free OMP fit at paper scale (time and peak
   RSS) and one Monte-Carlo simulator batch at 1 domain against the
   requested count. [sweep_scenario]: one fused CV round against the
   per-fold sweeps it replaces, and dense [col_dots] over a share of
   the columns against one full sweep. *)

open Bench_util

(* Paper-scale matrix-free OMP: M ≈ 10⁵ columns (quick: 10⁴) that are
   never materialized. Runs before everything else so the VmHWM reading
   reflects this scenario's footprint. *)
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
  let model, fit = timed ~reps:3 (fun () -> Rsm.Omp.fit_p ~pool src f ~lambda) in
  let rss_mb = Measure.peak_rss_mb () in
  let nnz = Rsm.Model.nnz model in
  Printf.printf
    "bigm (matrix-free OMP): K=%d M=%d lambda=%d  fit %s  nnz %d  peak RSS \
     %.0f MB\n%!"
    k m lambda (show ~scale:1. ~unit:"s" fit) nnz rss_mb;
  [
    ("m", string_of_int m);
    ("k", string_of_int k);
    ("lambda", string_of_int lambda);
    ("nnz", string_of_int nnz);
    ("fit_s", summary_json fit);
    ("peak_rss_mb", num rss_mb);
  ]

(* One Monte-Carlo batch of the SRAM simulator at 1 domain and at
   [domains]: the only reading of [Simulator.run] across domain
   counts. *)
let simulator_batch ~quick ~domains =
  let cells = if quick then 24 else 120 in
  let mc = if quick then 200 else 2000 in
  let sim = Circuit.Sram.simulator (Circuit.Sram.build ~cells ()) in
  let at d =
    Parallel.Pool.with_pool ~domains:d (fun pool ->
        snd
          (timed (fun () ->
               ignore
                 (Circuit.Simulator.run ~pool sim (Randkit.Prng.create 23) ~k:mc))))
  in
  let seq = at 1 and par = at domains in
  let speedup = seq.Measure.median /. par.Measure.median in
  Printf.printf "simulator batch (%d samples): 1 domain %s, %d domains %s (%.2fx)\n%!"
    mc (show ~scale:1e3 ~unit:"ms" seq) domains (show ~scale:1e3 ~unit:"ms" par)
    speedup;
  [
    ("cells", string_of_int cells);
    ("samples", string_of_int mc);
    ("seq_s", summary_json seq);
    ("par_s", summary_json par);
    ("speedup", num speedup);
  ]

let run ?(quick = false) ?domains () =
  let domains =
    match domains with Some d -> d | None -> Parallel.Pool.default_domains ()
  in
  Printf.printf "\n=== Speed: matrix-free big-M OMP, simulator batch (%d domain%s) ===\n%!"
    domains (if domains = 1 then "" else "s");
  let big = Parallel.Pool.with_pool ~domains (fun pool -> bigm ~quick ~pool) in
  let batch = simulator_batch ~quick ~domains in
  update_summary ~scenario:"speed" ~domains
    [ ("bigm", obj big); ("simulator_batch", obj batch) ]

(* --- fused CV sweep scenario ----------------------------------------- *)

(* Subset dots on a dense Table II-shaped design (K = 1000, top-60
   quadratic, M = 1891): [col_dots] over random ascending 1 / 10 / 20 /
   40% of the columns against one full [gram_tr]. Each repetition is
   [calls] calls, since one call takes well under a millisecond.
   Returns the rows as one JSON object and counts a slot that differs
   from [gram_tr]'s. *)
let col_dots_rows ~quick ~reps ~pool ~check =
  let n = if quick then 20 else 60 and k = if quick then 120 else 1000 in
  let calls = 50 in
  let rng = Randkit.Prng.create 59 in
  let basis = Polybasis.Basis.quadratic n in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng n) in
  let g = Polybasis.Design.matrix_rows ~pool basis pts in
  let src = Polybasis.Design.Provider.dense g in
  let m = Linalg.Mat.cols g in
  let r = Randkit.Gaussian.vector rng k in
  let full, full_s =
    timed ~reps ~calls (fun () -> Polybasis.Design.Provider.gram_tr ~pool src r)
  in
  let bits = Array.map Int64.bits_of_float in
  let rows =
    List.map
      (fun share ->
        let idx =
          Randkit.Sampling.subsample rng (Array.init m Fun.id)
            (max 1 (int_of_float (share *. float_of_int m)))
        in
        Array.sort compare idx;
        let out = Array.make (Array.length idx) 0. in
        let slots = Array.map (fun j -> full.(j)) idx in
        Polybasis.Design.Provider.col_dots ~pool src idx r out;
        check
          (Printf.sprintf "col_dots at %.0f%% == gram_tr slots" (100. *. share))
          (bits out = bits slots);
        let (), s =
          timed ~reps ~calls (fun () ->
              Polybasis.Design.Provider.col_dots ~pool src idx r out)
        in
        let frac = s.Measure.median /. full_s.Measure.median in
        Printf.printf "col_dots %4.0f%% of M = %d: %s (%.2f of a sweep)\n%!"
          (100. *. share) m (show ~scale:1e3 ~unit:"ms" s) frac;
        obj
          [
            ("share", num share);
            ("cols", string_of_int (Array.length idx));
            ("s", summary_json s);
            ("sweep_frac", num frac);
          ])
      [ 0.01; 0.10; 0.20; 0.40 ]
  in
  Printf.printf "full gram_tr, K = %d, M = %d: %s\n%!" k m
    (show ~scale:1e3 ~unit:"ms" full_s);
  obj
    [
      ("k", string_of_int k);
      ("m", string_of_int m);
      ("full_sweep_s", summary_json full_s);
      ("rows", list rows);
    ]

(* One fused CV round — Q fold lanes plus the all-rows refit lane in one
   multi-residual sweep — against Q + 1 sweeps of row-subset copies, at
   the paper's Table II shape (quadratic dictionary over N = 200
   factors, M = 20 301, K = 1000) unless --quick. The fused kernels are
   guarded by their bitwise parity contract; a violation fails the
   bench with exit 1, so this scenario doubles as the sweep-parity
   smoke for CI. Each domain count's record also carries the dense
   subset-dot rows of [col_dots_rows]. *)
let sweep_scenario ~quick ~domains () =
  let domains =
    match domains with Some d -> d | None -> Parallel.Pool.default_domains ()
  in
  let n = if quick then 60 else 200 in
  let k = if quick then 120 else 1000 in
  let q = 4 in
  let reps = if quick then 3 else 5 in
  let basis = Polybasis.Basis.quadratic n in
  let m = Polybasis.Basis.size basis in
  let rng = Randkit.Prng.create 47 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng n) in
  let src = Polybasis.Design.Provider.streamed basis pts in
  let res = Randkit.Gaussian.vector rng k in
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
  Printf.printf "\n=== Sweep engine scenario: K=%d M=%d Q=%d (%d domain%s) ===\n%!"
    k m q domains (if domains = 1 then "" else "s");
  let measure domains =
    let pool = Parallel.Pool.create ~domains () in
    (* One multi-residual sweep against Q + 1 sweeps of row-subset
       providers, each built once as a per-job driver builds its copies
       — same numbers, column generation paid once. *)
    let copies =
      Array.map (Polybasis.Design.Provider.select_rows src) fold_rows
    in
    let per_fold () =
      Array.mapi
        (fun fq sub ->
          Polybasis.Design.Provider.gram_tr ~pool sub fold_res.(fq))
        copies
    in
    let fused () =
      Polybasis.Design.Provider.gram_tr_multi ~pool src ~rows:fold_rows fold_res
    in
    let ref_out = per_fold () and fused_out = fused () in
    let bits = Array.map Int64.bits_of_float in
    check "fused multi-sweep bitwise vs per-fold sweeps"
      (Array.for_all2 (fun a b -> bits a = bits b) ref_out fused_out);
    let picks =
      Polybasis.Design.Provider.argmax_abs_multi ~pool ~skips:fold_skips src
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
    let calls = if quick then 10 else 1 in
    let _, fold_sweep_s = timed ~reps ~calls per_fold in
    let _, fused_sweep_s = timed ~reps ~calls fused in
    Printf.printf "domains=%d  %d-fold + refit %s  fused round %s  (%.1fx)\n%!"
      domains q
      (show ~scale:1e3 ~unit:"ms" fold_sweep_s)
      (show ~scale:1e3 ~unit:"ms" fused_sweep_s)
      (fold_sweep_s.Measure.median /. fused_sweep_s.Measure.median);
    let col_dots = col_dots_rows ~quick ~reps:(2 * reps + 1) ~pool ~check in
    Parallel.Pool.shutdown pool;
    (fold_sweep_s, fused_sweep_s, col_dots)
  in
  let arms =
    if domains = 1 then [ (1, measure 1) ]
    else begin
      let one = measure 1 in
      let par = measure domains in
      [ (1, one); (domains, par) ]
    end
  in
  let rss_mb = Measure.peak_rss_mb () in
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
  update_summary ~scenario:"sweep" ~domains
    [
      ("m", string_of_int m);
      ("k", string_of_int k);
      ("q", string_of_int q);
      ("lanes", string_of_int lanes);
      ("gen_rows_per_fold", string_of_int gen_rows_per_fold);
      ("gen_rows_fused", string_of_int k);
      ("gen_work_ratio", num gen_work_ratio);
      ( "per_domains",
        obj
          (List.map
             (fun (d, (fold, fused, col_dots)) ->
               ( string_of_int d,
                 obj
                   [
                     ("fold_sweep_s", summary_json fold);
                     ("fused_sweep_s", summary_json fused);
                     ( "fused_speedup",
                       num (fold.Measure.median /. fused.Measure.median) );
                     ("col_dots", col_dots);
                   ] ))
             arms) );
      ("peak_rss_mb", num rss_mb);
    ];
  if !failures > 0 then begin
    Printf.printf "sweep scenario: %d parity failure(s)\n%!" !failures;
    exit 1
  end
