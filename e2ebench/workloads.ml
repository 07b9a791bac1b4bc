(* The four benchmark workloads.

   Each one runs a whole flow of the paper through the library's public
   entry points ([flow], timed untraced), runs the same flow again
   stage by stage with every call into a layer wrapped in a span
   ([staged], traced), checks its outputs, and times kernel probes on
   its own data. Every input is a pure function of the seed. *)

module P = Polybasis.Design.Provider
module Sim = Circuit.Simulator
module Pipeline = Robust.Pipeline
module Screen = Robust.Screen

type prepared =
  | Prepared : {
      flow : unit -> 'r;  (** the end-to-end operation *)
      staged : unit -> 'r * (string * float) list;
          (** the same flow stage by stage, each stage in a
              {!Trace.span}; also returns stage-derived layer metrics *)
      digest : 'r -> string;  (** identity of the outputs, bit for bit *)
      inspect : 'r -> (string * float) list * (string * bool) list;
          (** layer counters and named correctness checks *)
      probes : 'r -> (string * float) list;
          (** kernel timings on the workload's own data *)
    }
      -> prepared

type t = {
  name : string;
  domains : int;
  setup : quick:bool -> seed:int -> prepared;
}

(* Internal seeds: distinct, deterministic functions of the run seed. *)
let sub seed k = ((seed * 1_000_003) + (k * 7919)) land 0x3fffffff

let ok = function Ok v -> v | Error e -> failwith (Robust.Error.to_string e)
let hex64 d = Printf.sprintf "%016Lx" d

let digest_models models =
  hex64
    (Rsm.Serialize.digest_string
       (String.concat "\n" (List.map Rsm.Serialize.to_string models)))

let pool () = Parallel.Pool.default ()

(* Relative-RMS test error in percent, through the compiled evaluator
   (a quadratic design over 2000 test points would not fit in memory at
   M = 20301). *)
let test_err_pct model basis (test : Sim.dataset) =
  let pred = Serve.Eval.eval_batch (Serve.Eval.compile model basis) test.points in
  100. *. Stat.Metrics.relative_rms ~pred ~truth:test.values

(* A yield window two standard deviations either side of the mean of a
   metric's test values, so the streamed estimates are far from 0 and 1. *)
let spec_of (test : Sim.dataset) =
  let v = test.values in
  let n = float_of_int (Array.length v) in
  let mean = Array.fold_left ( +. ) 0. v /. n in
  let var = Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. v /. n in
  let sd = sqrt var in
  Rsm.Yield.spec_both ~lower:(mean -. (2. *. sd)) ~upper:(mean +. (2. *. sd))

(* --- kernel probes ------------------------------------------------- *)

let with_pools f =
  Parallel.Pool.with_pool ~domains:1 (fun p1 ->
      Parallel.Pool.with_pool ~domains:2 (fun p2 -> f p1 p2))

(* Normals per second of the three samplers, over a 316-wide buffer. *)
let randkit_probes ~quick ~seed =
  let n = 316 in
  let fills = if quick then 300 else 3000 in
  let buf = Array.make n 0. in
  let rate t = float_of_int (fills * n) /. t in
  let polar =
    Measure.median_time ~reps:3 (fun () ->
        let g = Randkit.Prng.create (sub seed 90) in
        for _ = 1 to fills do
          Randkit.Gaussian.fill g buf
        done)
  in
  let zig =
    Measure.median_time ~reps:3 (fun () ->
        let g = Randkit.Prng.create (sub seed 91) in
        for _ = 1 to fills do
          Randkit.Ziggurat.fill g buf
        done)
  in
  let ctr =
    Measure.median_time ~reps:3 (fun () ->
        let key = Randkit.Counter.create (sub seed 92) in
        for p = 0 to fills - 1 do
          let pk = Randkit.Counter.at key p in
          for c = 0 to n - 1 do
            buf.(c) <- Randkit.Ziggurat.normal_at pk ~coord:c
          done
        done)
  in
  [
    ("randkit.polar_normals_per_s", rate polar);
    ("randkit.ziggurat_normals_per_s", rate zig);
    ("randkit.counter_normals_per_s", rate ctr);
  ]

(* Compile, scalar evaluation and projected streaming of one model. *)
let serve_probes ~seed ~stream_samples model basis (pts : Linalg.Vec.t array)
    spec =
  let compile_s =
    Measure.median_time ~reps:20 (fun () -> ignore (Serve.Eval.compile model basis))
  in
  let tape = Serve.Eval.compile model basis in
  let scratch = Serve.Eval.make_scratch tape in
  let eval_s =
    Measure.median_time ~reps:5 (fun () ->
        Array.iter (fun p -> ignore (Serve.Eval.eval_with tape scratch p)) pts)
  in
  let stream pool () =
    ignore
      (Serve.Stream.estimate ~pool ~sampler:Randkit.Gaussian.Ziggurat
         ~samples:stream_samples tape
         (Randkit.Prng.create (sub seed 80))
         spec)
  in
  let d1, d2 =
    with_pools (fun p1 p2 ->
        (Measure.median_time ~reps:3 (stream p1), Measure.median_time ~reps:3 (stream p2)))
  in
  [
    ("serve.compile_s", compile_s);
    ("serve.eval_ns_per_point", 1e9 *. eval_s /. float_of_int (Array.length pts));
    ("serve.stream_s.d1", d1);
    ("serve.stream_s.d2", d2);
    ("parallel.stream_speedup", d1 /. d2);
  ]

(* Sweeps, column generation, one full-data path and the Cholesky grow
   of the chosen support, on a fitted workload's design. [fs] are the
   responses (one per output); single-residual kernels use [fs.(0)]. *)
let fit_probes ~quick ~seed ~basis ~src ~(pts : Linalg.Vec.t array) ~fs ~path
    ~(model : Rsm.Model.t) =
  let k = P.rows src and m = P.cols src in
  let sweep_reps = if quick then 3 else 7 in
  let skip = Array.make m false in
  let folds = 4 in
  let assignment =
    Randkit.Sampling.fold_assignment (Randkit.Prng.create (sub seed 70)) ~n:k ~folds
  in
  let fold_rows =
    Array.init folds (fun q -> fst (Randkit.Sampling.fold_split assignment q))
  in
  let outputs = Array.length fs in
  let rows = Array.init (outputs * folds) (fun i -> fold_rows.(i mod folds)) in
  let res =
    Array.init (outputs * folds) (fun i ->
        Array.map (fun r -> fs.(i / folds).(r)) rows.(i))
  in
  let sweep pool () = ignore (Rsm.Corr_sweep.argmax_abs ~pool ~skip src fs.(0)) in
  let multi pool () = ignore (Rsm.Corr_sweep.gram_tr_multi ~pool src ~rows res) in
  let s1, s2, m1, m2 =
    with_pools (fun p1 p2 ->
        let t f = Measure.median_time ~reps:sweep_reps f in
        (t (sweep p1), t (sweep p2), t (multi p1), t (multi p2)))
  in
  let streamed = if P.is_streamed src then src else P.streamed basis pts in
  let buf = Array.make k 0. in
  let column_gen_s =
    Measure.median_time ~reps:3 (fun () ->
        for j = 0 to m - 1 do
          P.column_into streamed j buf
        done)
  in
  (* One timed path, no warm-up: the flow just ran the same solver. *)
  let path_s =
    (Measure.repeat ~warmup:0 ~min_reps:1 ~max_reps:1 ~seconds:0. (fun () ->
         ignore (path src fs.(0))))
      .summary
      .median
  in
  let cols = Array.map (P.column src) model.Rsm.Model.support in
  let p = Array.length cols in
  let offdiag =
    Array.init p (fun q -> Array.init q (fun a -> Linalg.Vec.dot cols.(a) cols.(q)))
  in
  let diag = Array.map (fun c -> Linalg.Vec.dot c c) cols in
  let cholesky_grow_s =
    Measure.median_time ~reps:20 (fun () ->
        let g = Linalg.Cholesky.Grow.create (max 1 p) in
        try
          for q = 0 to p - 1 do
            Linalg.Cholesky.Grow.append g offdiag.(q) diag.(q)
          done
        with Linalg.Cholesky.Not_positive_definite _ -> ())
  in
  [
    ("rsm.sweep_s.d1", s1);
    ("rsm.sweep_s.d2", s2);
    ("rsm.sweep_multi_s.d1", m1);
    ("rsm.sweep_multi_s.d2", m2);
    ("parallel.sweep_speedup", s1 /. s2);
    ("polybasis.column_gen_s", column_gen_s);
    ("rsm.path_s", path_s);
    ("linalg.cholesky_grow_s", cholesky_grow_s);
  ]

(* --- the pipeline, stage by stage ----------------------------------- *)

(* What one fitted output carries, whichever way the flow ran. [lambda]
   is known only to the staged flow, which calls the CV selector
   directly. *)
type fit = {
  model : Rsm.Model.t;
  rows : Sim.dataset;  (** the rows the fit used *)
  run : Sim.run_report;
  lambda : int option;
}

let of_outcome (o : Pipeline.outcome) =
  { model = o.model; rows = o.dataset; run = o.run_report; lambda = None }

let screens (cfg : Pipeline.config) =
  let response =
    match cfg.screen_space with Pipeline.Response | Both -> true | Factor -> false
  in
  let factor =
    match cfg.screen_space with Pipeline.Factor | Both -> true | Response -> false
  in
  (cfg.screen && response, cfg.screen && factor)

(* The quorum rule and degraded-delivery note of [Pipeline.fit]. *)
let quorum_notes (cfg : Pipeline.config) run n =
  Trace.span "robust.quorum" (fun () ->
      let floor = int_of_float (Float.ceil (cfg.quorum *. float_of_int cfg.samples)) in
      if n < cfg.min_samples || n < floor then
        failwith
          (Printf.sprintf "quorum lost: %d of %d requested rows survived" n
             cfg.samples);
      if n >= cfg.samples then [||]
      else
        [|
          Pipeline.degraded_note ~requested:cfg.samples ~survived:n
            ~quorum:cfg.quorum run;
        |])

let staged_design (cfg : Pipeline.config) basis pts =
  Trace.span "polybasis.design" (fun () ->
      if cfg.streamed then P.streamed basis pts
      else P.dense (Polybasis.Design.matrix_rows ~pool:(pool ()) basis pts))

(* [Rsm.Solver.fit_cv_p]'s dispatch for the two path methods used here,
   keeping the selector's result so the chosen λ is visible. *)
let select (cfg : Pipeline.config) rng src f =
  let folds = cfg.folds and max_lambda = cfg.max_lambda in
  match cfg.method_ with
  | Rsm.Solver.Omp ->
      Rsm.Select.omp_p ~folds ~on_singular:`Fallback ~sweep:cfg.sweep rng
        ~max_lambda src f
  | Rsm.Solver.Lar ->
      Rsm.Select.lars_p ~folds ~mode:Rsm.Lars.Lar ~on_singular:`Fallback
        ~sweep:cfg.sweep rng ~max_lambda src f
  | m -> invalid_arg ("select: unsupported method " ^ Rsm.Solver.name m)

(* [Pipeline.fit] (fixed retry policy, no rescreen), one span per stage. *)
let staged_fit (cfg : Pipeline.config) sim basis rng =
  let data, run =
    Trace.span "circuit.simulate" (fun () ->
        Sim.run_robust ~pool:(pool ()) ~faults:cfg.faults ~retry:cfg.retry sim
          rng ~k:cfg.samples)
  in
  let on_response, on_factor = screens cfg in
  let data =
    if not on_response then data
    else
      Trace.span "robust.screen" (fun () ->
          fst (ok (Screen.screen ~threshold:cfg.screen_threshold data)))
  in
  let data =
    if not on_factor then data
    else
      Trace.span "robust.point_screen" (fun () ->
          fst (ok (Screen.mahalanobis ~confidence:cfg.screen_confidence data)))
  in
  let notes = quorum_notes cfg run (Sim.dataset_size data) in
  let src = staged_design cfg basis data.points in
  let sel = Trace.span "rsm.cv_fit" (fun () -> select cfg rng src data.values) in
  {
    model = Array.fold_left Rsm.Model.add_note sel.Rsm.Select.model notes;
    rows = data;
    run;
    lambda = Some sel.Rsm.Select.lambda;
  }

(* Sub-datasets at [idx] that keep one physically shared point array,
   as [Pipeline.fit_multi] builds them. *)
let split_shared (ds : Sim.dataset array) idx =
  let first = Sim.split ds.(0) idx in
  Array.map (fun d -> { (Sim.split d idx) with Sim.points = first.Sim.points }) ds

type multi = {
  models : Rsm.Model.t array;
  mrows : Sim.dataset array;
  mrun : Sim.run_report;
  lambdas : int array option;
}

(* [Pipeline.fit_multi] with the fused output grid (LAR), one span per
   stage. *)
let staged_fit_multi (cfg : Pipeline.config) sims basis rng =
  let datasets, run =
    Trace.span "circuit.simulate" (fun () ->
        Sim.run_robust_multi ~pool:(pool ()) ~faults:cfg.faults ~retry:cfg.retry
          sims rng ~k:cfg.samples)
  in
  let on_response, on_factor = screens cfg in
  let datasets =
    if not on_response then datasets
    else
      Trace.span "robust.screen" (fun () ->
          let n = Sim.dataset_size datasets.(0) in
          let count = Array.make n 0 in
          Array.iter
            (fun d ->
              let _, rep = ok (Screen.screen ~threshold:cfg.screen_threshold d) in
              Array.iter (fun i -> count.(i) <- count.(i) + 1) rep.Screen.kept)
            datasets;
          let outputs = Array.length datasets in
          let shared =
            List.filter (fun i -> count.(i) = outputs) (List.init n Fun.id)
          in
          split_shared datasets (Array.of_list shared))
  in
  let datasets =
    if not on_factor then datasets
    else
      Trace.span "robust.point_screen" (fun () ->
          let _, rep =
            ok (Screen.mahalanobis ~confidence:cfg.screen_confidence datasets.(0))
          in
          split_shared datasets rep.Screen.p_kept)
  in
  let notes = quorum_notes cfg run (Sim.dataset_size datasets.(0)) in
  let src = staged_design cfg basis datasets.(0).points in
  let fs = Array.map (fun (d : Sim.dataset) -> d.values) datasets in
  let sels =
    Trace.span "rsm.cv_fit" (fun () ->
        Rsm.Select.lars_multi_p ~folds:cfg.folds ~mode:Rsm.Lars.Lar
          ~on_singular:`Fallback rng ~max_lambda:cfg.max_lambda src fs)
  in
  {
    models =
      Array.map (fun s -> Array.fold_left Rsm.Model.add_note s.Rsm.Select.model notes) sels;
    mrows = datasets;
    mrun = run;
    lambdas = Some (Array.map (fun s -> s.Rsm.Select.lambda) sels);
  }

(* Delivery counters summed over the fits of one flow; [spp] is the
   accounted simulator cost of one attempt at one sample. *)
let circuit_counts ~spp (runs : Sim.run_report list) kept =
  let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  let requested = sum (fun r -> r.Sim.requested) in
  let retries = sum (fun r -> r.Sim.retries) in
  let delivered = sum (fun r -> r.Sim.delivered) in
  let extra = List.fold_left (fun a r -> a +. r.Sim.accounted_extra_seconds) 0. runs in
  let frac a = float_of_int a /. float_of_int requested in
  [
    ("circuit.attempts", float_of_int (requested + retries));
    ("circuit.retries", float_of_int retries);
    ("circuit.delivered_frac", frac delivered);
    ("circuit.sim_accounted_s", (float_of_int requested *. spp) +. extra);
    ("robust.kept_frac", frac kept);
  ]

let err_ceiling_pct = 25.

(* --- Table II flow: linear screen, then a quadratic model ------------ *)

type table2 = {
  n_parasitics : int option;
  k_lin : int;
  lin_lambda : int;
  n_top : int;
  k : int;
  max_lambda : int;
  method_ : Rsm.Solver.method_;
  streamed : bool;
  test : int;
}

type table2_out = { lin : fit; quad : fit; quad_basis : Polybasis.Basis.t }

(* The Section V-A.2 selection step: the [take] factors with the
   largest |linear coefficient|, ties to the lower index, ascending. *)
let top_factors (model : Rsm.Model.t) ~dim ~take =
  let dense = Rsm.Model.to_dense model in
  let scored = Array.init dim (fun j -> (-.Float.abs dense.(j + 1), j)) in
  Array.sort compare scored;
  let chosen = Array.map snd (Array.sub scored 0 take) in
  Array.sort compare chosen;
  chosen

let table2_setup (c : table2) ~quick ~seed =
  let amp = Circuit.Opamp.build ?n_parasitics:c.n_parasitics () in
  let sim = Circuit.Opamp.simulator amp Circuit.Opamp.Gain in
  let dim = Circuit.Opamp.dim amp in
  let lin_basis = Polybasis.Basis.constant_linear dim in
  let test = Sim.run ~pool:(pool ()) sim (Randkit.Prng.create (sub seed 3)) ~k:c.test in
  let spec = spec_of test in
  let cfg_lin =
    ok (Pipeline.config ~method_:Rsm.Solver.Omp ~max_lambda:c.lin_lambda ~samples:c.k_lin ())
  in
  let cfg_quad =
    ok
      (Pipeline.config ~method_:c.method_ ~max_lambda:c.max_lambda ~samples:c.k
         ~streamed:c.streamed ())
  in
  let rng_lin () = Randkit.Prng.create (sub seed 1)
  and rng_quad () = Randkit.Prng.create (sub seed 2) in
  let flow () =
    let lin = of_outcome (ok (Pipeline.fit ~pool:(pool ()) cfg_lin sim lin_basis (rng_lin ()))) in
    let quad_basis =
      Polybasis.Basis.quadratic_subset ~dim (top_factors lin.model ~dim ~take:c.n_top)
    in
    let quad = of_outcome (ok (Pipeline.fit ~pool:(pool ()) cfg_quad sim quad_basis (rng_quad ()))) in
    { lin; quad; quad_basis }
  in
  let staged () =
    let lin = staged_fit cfg_lin sim lin_basis (rng_lin ()) in
    let quad_basis =
      Trace.span "rsm.rank_factors" (fun () ->
          Polybasis.Basis.quadratic_subset ~dim (top_factors lin.model ~dim ~take:c.n_top))
    in
    let quad = staged_fit cfg_quad sim quad_basis (rng_quad ()) in
    ({ lin; quad; quad_basis }, [])
  in
  let digest r = digest_models [ r.lin.model; r.quad.model ] in
  let inspect r =
    let err = test_err_pct r.quad.model r.quad_basis test in
    let kept = Sim.dataset_size r.lin.rows + Sim.dataset_size r.quad.rows in
    let counts =
      circuit_counts ~spp:sim.Sim.seconds_per_sample [ r.lin.run; r.quad.run ] kept
      @ [ ("rsm.model_nnz", float_of_int (Rsm.Model.nnz r.quad.model)); ("rsm.test_err_pct", err) ]
      @ match r.quad.lambda with Some l -> [ ("rsm.lambda", float_of_int l) ] | None -> []
    in
    ( counts,
      [
        (Printf.sprintf "test error %.3f%% below %g%%" err err_ceiling_pct, err < err_ceiling_pct);
        ("quadratic model is non-empty", Rsm.Model.nnz r.quad.model > 0);
      ] )
  in
  let probes r =
    let pts = r.quad.rows.Sim.points and f = r.quad.rows.Sim.values in
    let src =
      if c.streamed then P.streamed r.quad_basis pts
      else P.dense (Polybasis.Design.matrix_rows ~pool:(pool ()) r.quad_basis pts)
    in
    let lambda = Option.value r.quad.lambda ~default:(Rsm.Model.nnz r.quad.model) in
    let path src f =
      match c.method_ with
      | Rsm.Solver.Lar -> Rsm.Lars.fit_p ~mode:Rsm.Lars.Lar ~on_singular:`Fallback src f ~lambda
      | _ -> Rsm.Omp.fit_p ~on_singular:`Fallback src f ~lambda
    in
    fit_probes ~quick ~seed ~basis:r.quad_basis ~src ~pts ~fs:[| f |] ~path ~model:r.quad.model
    @ serve_probes ~seed
        ~stream_samples:(if quick then 20_000 else 200_000)
        r.quad.model r.quad_basis test.points spec
    @ randkit_probes ~quick ~seed
  in
  Prepared { flow; staged; digest; inspect; probes }

(* Paper Tables II-III: linear OMP screen at K=600, then LAR with 4-fold
   CV up to λ=120 over the top-60 quadratic dictionary (M=1891, K=1000)
   on a materialized design. The LAR path arithmetic and the dense
   sweeps take nearly all of the flow; streaming, the point screen and
   the pool are bypassed. *)
let table2_lar_dense =
  {
    name = "table2_lar_dense";
    domains = 1;
    setup =
      (fun ~quick ~seed ->
        table2_setup ~quick ~seed
          (if quick then
             { n_parasitics = Some 50; k_lin = 150; lin_lambda = 30; n_top = 20; k = 300;
               max_lambda = 40; method_ = Rsm.Solver.Lar; streamed = false; test = 500 }
           else
             { n_parasitics = None; k_lin = 600; lin_lambda = 120; n_top = 60; k = 1000;
               max_lambda = 120; method_ = Rsm.Solver.Lar; streamed = false; test = 2000 }));
  }

(* The paper's full Table II size (top-200 factors, M=20301, K=1000) with
   OMP on the matrix-free provider and fused CV: streamed Hermite column
   generation and multi-residual sweeps dominate, and no design matrix is
   built. CV stops at λ=30 so a flow stays near 3 s. One domain: at two
   the flow time did not repeat on a 2-core shared host; the parallel
   kernels are covered by the .d2 probes. *)
let table2_omp_streamed =
  {
    name = "table2_omp_streamed";
    domains = 1;
    setup =
      (fun ~quick ~seed ->
        table2_setup ~quick ~seed
          (if quick then
             { n_parasitics = Some 50; k_lin = 150; lin_lambda = 30; n_top = 40; k = 300;
               max_lambda = 20; method_ = Rsm.Solver.Omp; streamed = true; test = 500 }
           else
             { n_parasitics = None; k_lin = 600; lin_lambda = 120; n_top = 200; k = 1000;
               max_lambda = 30; method_ = Rsm.Solver.Omp; streamed = true; test = 2000 }));
  }

(* --- serving: compiled tape, streamed yield, batch evaluation -------- *)

type serve_out = {
  z : Serve.Stream.estimate;  (** ziggurat, projected *)
  polar : Serve.Stream.estimate;  (** default polar, full draw *)
  values : Linalg.Vec.t;  (** last [eval_batch] output *)
}

(* A serving model shaped like the paper's fits: [nnz] quadratic terms
   over the first [nvars] factors only, so Hermite tables are shared
   and the projected draw touches a few coordinates out of [n]. *)
let make_model rng basis ~nvars ~nnz =
  let m = Polybasis.Basis.size basis in
  let local =
    List.filter
      (fun j -> Array.for_all (fun (v, _) -> v < nvars) (Polybasis.Basis.term basis j))
      (List.init m Fun.id)
  in
  let local = Array.of_list local in
  let support = Randkit.Sampling.subsample rng local (min nnz (Array.length local)) in
  Array.sort compare support;
  let coeffs = Array.map (fun _ -> 0.2 +. Randkit.Gaussian.sample rng) support in
  Rsm.Model.make ~basis_size:m ~support ~coeffs

let serve_setup ~quick ~seed =
  let n = if quick then 60 else 316 in
  let n_zig = if quick then 200_000 else 2_000_000 in
  let n_polar = if quick then 5_000 else 20_000 in
  let n_points = if quick then 2_000 else 20_000 in
  let batches = if quick then 5 else 25 in
  let n_parity = if quick then 20_000 else 200_000 in
  let basis = Polybasis.Basis.quadratic n in
  let rng = Randkit.Prng.create (sub seed 1) in
  let model = make_model rng basis ~nvars:12 ~nnz:40 in
  let points = Array.init n_points (fun _ -> Randkit.Gaussian.vector rng n) in
  let spec = Rsm.Yield.spec_both ~lower:(-3.) ~upper:3. in
  let zig ?(project = true) ~samples tape =
    Serve.Stream.estimate ~pool:(pool ()) ~sampler:Randkit.Gaussian.Ziggurat ~project
      ~samples tape (Randkit.Prng.create (sub seed 2)) spec
  in
  let polar tape =
    Serve.Stream.estimate ~pool:(pool ()) ~samples:n_polar tape
      (Randkit.Prng.create (sub seed 3)) spec
  in
  let batch tape =
    let out = ref [||] in
    for _ = 1 to batches do
      out := Serve.Eval.eval_batch ~pool:(pool ()) tape points
    done;
    !out
  in
  let flow () =
    let tape = Serve.Eval.compile model basis in
    let z = zig ~samples:n_zig tape in
    let polar = polar tape in
    { z; polar; values = batch tape }
  in
  let staged () =
    let tape = Trace.span "serve.compile" (fun () -> Serve.Eval.compile model basis) in
    let timed name f =
      Trace.span name (fun () ->
          let t0 = Measure.now () in
          let v = f () in
          (v, Measure.now () -. t0))
    in
    let z, z_s = timed "serve.stream_ziggurat" (fun () -> zig ~samples:n_zig tape) in
    let polar, p_s = timed "serve.stream_polar" (fun () -> polar tape) in
    let values, b_s = timed "serve.eval_batch" (fun () -> batch tape) in
    ( { z; polar; values },
      [
        ("serve.yield_evals_per_s", float_of_int n_zig /. z_s);
        ("serve.yield_polar_evals_per_s", float_of_int n_polar /. p_s);
        ("serve.eval_evals_per_s", float_of_int (batches * n_points) /. b_s);
      ] )
  in
  let digest r =
    let b = Buffer.create (24 * (Array.length r.values + 16)) in
    let est (e : Serve.Stream.estimate) =
      Printf.bprintf b "%h %h %d %h %h\n" e.yield e.std_error e.pass e.mean e.std
    in
    est r.z;
    est r.polar;
    Array.iter (fun v -> Printf.bprintf b "%h\n" v) r.values;
    hex64 (Rsm.Serialize.digest_string (Buffer.contents b))
  in
  let inspect r =
    let tape = Serve.Eval.compile model basis in
    let naive = Array.map (Rsm.Model.predict_point model basis) (Array.sub points 0 1000) in
    let full = zig ~project:false ~samples:n_parity tape
    and projected = zig ~project:true ~samples:n_parity tape in
    let gap = Float.abs (r.z.yield -. r.polar.yield)
    and se = r.z.std_error +. r.polar.std_error in
    ( [],
      [
        ("compiled == naive predict_point on 1000 points", Array.sub r.values 0 1000 = naive);
        ( Printf.sprintf "projected == full ziggurat draw at %d samples" n_parity,
          projected = full );
        ( Printf.sprintf "polar vs ziggurat yield gap %.2g within 6 SE (%.2g)" gap (6. *. se),
          gap <= 6. *. se );
      ] )
  in
  let probes _ =
    serve_probes ~seed ~stream_samples:(if quick then 100_000 else 1_000_000) model basis
      (Array.sub points 0 (min 5000 n_points)) spec
    @ randkit_probes ~quick ~seed
  in
  Prepared { flow; staged; digest; inspect; probes }

(* The read side of the model: compile, streamed yield (projected
   ziggurat and the default polar draw) and batch evaluation over the
   pool, with no fitting at all. *)
let serve_yield =
  {
    name = "serve_yield";
    domains = 2;
    setup = serve_setup;
  }

(* --- multi-output fit under faulty delivery -------------------------- *)

let multi_setup ~quick ~seed =
  let amp = Circuit.Opamp.build ?n_parasitics:(if quick then Some 50 else None) () in
  let sims = Array.of_list (List.map (Circuit.Opamp.simulator amp) Circuit.Opamp.all_metrics) in
  let dim = Circuit.Opamp.dim amp in
  let basis = Polybasis.Basis.constant_linear dim in
  let samples = if quick then 200 else 600 in
  let max_lambda = if quick then 20 else 60 in
  let tests, _ =
    Sim.run_robust_multi ~pool:(pool ()) sims (Randkit.Prng.create (sub seed 3))
      ~k:(if quick then 500 else 2000)
  in
  let spec = spec_of tests.(0) in
  let faults =
    Sim.fault_plan ~rate:0.05 ~fault_seed:(sub seed 4)
      ~burst:(Sim.burst_model ~entry:0.01 ~len:15. ~seed:(sub seed 5) ())
      ()
  in
  let quorum = 0.7 in
  let cfg =
    ok
      (Pipeline.config ~method_:Rsm.Solver.Lar ~max_lambda ~samples ~faults
         ~retry:(Sim.retry_policy ~max_attempts:3 ())
         ~screen_space:Pipeline.Both ~quorum ())
  in
  let rng () = Randkit.Prng.create (sub seed 2) in
  let flow () =
    let o = ok (Pipeline.fit_multi ~pool:(pool ()) cfg sims basis (rng ())) in
    { models = o.models; mrows = o.datasets; mrun = o.m_run_report; lambdas = None }
  in
  let staged () = (staged_fit_multi cfg sims basis (rng ()), []) in
  let digest r = digest_models (Array.to_list r.models) in
  let rows r = Sim.dataset_size r.mrows.(0) in
  let inspect r =
    let errs = Array.mapi (fun i m -> test_err_pct m basis tests.(i)) r.models in
    let err = Array.fold_left ( +. ) 0. errs /. float_of_int (Array.length errs) in
    let spp = Array.fold_left (fun a s -> a +. s.Sim.seconds_per_sample) 0. sims in
    let kept_frac = float_of_int (rows r) /. float_of_int samples in
    ( circuit_counts ~spp [ r.mrun ] (rows r)
      @ [
          ("rsm.model_nnz", float_of_int (Rsm.Model.nnz r.models.(0)));
          ("rsm.test_err_pct", err);
        ]
      @ (match r.lambdas with Some l -> [ ("rsm.lambda", float_of_int l.(0)) ] | None -> []),
      [
        ( Printf.sprintf "kept %d of %d rows, at or above quorum %g" (rows r) samples quorum,
          kept_frac >= quorum );
        ( Printf.sprintf "mean test error %.3f%% below %g%%" err err_ceiling_pct,
          err < err_ceiling_pct );
      ] )
  in
  let probes r =
    let pts = r.mrows.(0).Sim.points in
    let fs = Array.map (fun (d : Sim.dataset) -> d.values) r.mrows in
    let src = P.dense (Polybasis.Design.matrix_rows ~pool:(pool ()) basis pts) in
    let lambda =
      match r.lambdas with Some l -> l.(0) | None -> Rsm.Model.nnz r.models.(0)
    in
    let path src f = Rsm.Lars.fit_p ~mode:Rsm.Lars.Lar ~on_singular:`Fallback src f ~lambda in
    fit_probes ~quick ~seed ~basis ~src ~pts ~fs ~path ~model:r.models.(0)
    @ serve_probes ~seed ~stream_samples:(if quick then 20_000 else 200_000)
        r.models.(0) basis tests.(0).points spec
    @ randkit_probes ~quick ~seed
  in
  Prepared { flow; staged; digest; inspect; probes }

(* The same layers used differently: faulty delivery with retries in
   circuit, both hygiene screens (the point screen is about half of the
   flow), and the 16-walk output x fold grid in rsm. *)
let multi_burst =
  {
    name = "multi_burst";
    domains = 1;
    setup = multi_setup;
  }

let all = [ table2_lar_dense; table2_omp_streamed; serve_yield; multi_burst ]
