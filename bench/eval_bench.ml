(* Serving-engine scenario: evals/sec of the naive term-by-term
   evaluator vs the compiled instruction tape (sequential and over the
   domain pool), plus a streamed yield-convergence curve — at the
   paper-scale quadratic dictionary (M ≈ 5·10⁴) unless --quick. Every
   timed arm is guarded by its bitwise-parity contract (compiled ==
   naive; streamed yield identical across domain counts); a violation
   fails the bench with exit 1, so this scenario doubles as the
   serving-parity smoke for CI. *)

open Bench_util

(* A realistic serving model over the quadratic dictionary: the paper's
   fits select a few dozen terms concentrated on a small set of strong
   factors, which is exactly what makes Hermite-table sharing pay. Keep
   every term whose variables all lie in the first [nvars] factors, then
   subsample [nnz] of them. *)
let make_model rng basis ~nvars ~nnz =
  let m = Polybasis.Basis.size basis in
  let local = ref [] in
  for j = m - 1 downto 0 do
    let term = Polybasis.Basis.term basis j in
    if Array.for_all (fun (v, _) -> v < nvars) term then local := j :: !local
  done;
  let local = Array.of_list !local in
  let support = Randkit.Sampling.subsample rng local (min nnz (Array.length local)) in
  Array.sort compare support;
  let coeffs =
    Array.map (fun _ -> 0.2 +. Randkit.Gaussian.sample rng) support
  in
  Rsm.Model.make ~basis_size:m ~support ~coeffs

let per_s = show ~scale:1. ~unit:"evals/s"

let run ~quick ~domains () =
  let domains =
    match domains with Some d -> d | None -> Parallel.Pool.default_domains ()
  in
  let n = if quick then 60 else 316 in
  let k = if quick then 20_000 else 100_000 in
  let nnz = 40 and nvars = 12 in
  let reps = if quick then 3 else 5 in
  let basis = Polybasis.Basis.quadratic n in
  let m = Polybasis.Basis.size basis in
  let rng = Randkit.Prng.create 61 in
  let model = make_model rng basis ~nvars ~nnz in
  let tape = Serve.Eval.compile model basis in
  Printf.printf
    "\n=== Serving scenario: M=%d (quadratic n=%d), nnz=%d on %d variables, \
     %d points (%d domain%s) ===\n%!"
    m n (Rsm.Model.nnz model)
    (Serve.Eval.vars_touched tape)
    k domains
    (if domains = 1 then "" else "s");
  let points = Array.init k (fun _ -> Randkit.Gaussian.vector rng n) in
  let pool = Parallel.Pool.create ~domains () in
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.printf "PARITY FAILURE: %s\n%!" name
    end
  in
  (* Parity gates before any timing: all compiled arms must reproduce
     the naive walk bit for bit. *)
  let naive_out = Array.map (Rsm.Model.predict_point model basis) points in
  let seq_out = Serve.Eval.eval_batch tape points in
  let par_out = Serve.Eval.eval_batch ~pool tape points in
  check "compiled (sequential) == naive (bitwise)" (seq_out = naive_out);
  check
    (Printf.sprintf "compiled (%d domains) == naive (bitwise)" domains)
    (par_out = naive_out);
  let scratch = Serve.Eval.make_scratch tape in
  check "compiled scalar == naive (bitwise)"
    (Array.for_all2
       (fun p v -> Serve.Eval.eval_with tape scratch p = v)
       points naive_out);
  (* Timed arms. *)
  let time ?(reps = reps) f = snd (timed ~reps f) in
  let naive_s =
    time (fun () -> ignore (Array.map (Rsm.Model.predict_point model basis) points))
  in
  let seq_s = time (fun () -> ignore (Serve.Eval.eval_batch tape points)) in
  let par_s = time (fun () -> ignore (Serve.Eval.eval_batch ~pool tape points)) in
  let evals = rate ~work:(float_of_int k) in
  let ratio a b = a.Measure.median /. b.Measure.median in
  Printf.printf
    "naive                %s\n\
     compiled (1 domain)  %s  (%.1fx naive)\n\
     compiled (%d domains) %s  (%.1fx naive)\n%!"
    (per_s (evals naive_s)) (per_s (evals seq_s)) (ratio naive_s seq_s) domains
    (per_s (evals par_s)) (ratio naive_s par_s);
  (* Streamed yield: convergence curve, with the cross-domain bitwise
     gate on the largest rung. *)
  let spec = Rsm.Yield.spec_both ~lower:(-3.) ~upper:3. in
  let rungs =
    if quick then [ 2_000; 20_000; 200_000 ]
    else [ 10_000; 100_000; 1_000_000; 10_000_000 ]
  in
  let curve =
    List.map
      (fun samples ->
        (* Three repetitions and no warm-up: the largest rung is tens of
           seconds, and the arms above have warmed the tape. *)
        let e, t =
          timed ~warmup:0 ~reps:3 (fun () ->
              Serve.Stream.estimate ~pool ~samples tape
                (Randkit.Prng.create 71) spec)
        in
        let r = rate ~work:(float_of_int samples) t in
        Printf.printf "yield @ %9d samples: %.5f +/- %.5f  (%s streamed)\n%!"
          samples e.Serve.Stream.yield e.Serve.Stream.std_error (per_s r);
        (samples, e, r))
      rungs
  in
  (* Cross-domain bitwise gate: a mid-size stream is enough to catch
     any batch/chunk misalignment; the big rungs above are for the
     convergence curve, not the gate. *)
  let top = min (List.nth rungs (List.length rungs - 1)) 200_000 in
  let stream_at d =
    Parallel.Pool.with_pool ~domains:d (fun p ->
        Serve.Stream.estimate ~pool:p ~samples:top tape
          (Randkit.Prng.create 71) spec)
  in
  let e1 = stream_at 1 in
  List.iter
    (fun d ->
      let ed = stream_at d in
      check
        (Printf.sprintf "streamed yield bitwise identical at 1 vs %d domains" d)
        (ed.Serve.Stream.yield = e1.Serve.Stream.yield
        && ed.Serve.Stream.mean = e1.Serve.Stream.mean
        && ed.Serve.Stream.std = e1.Serve.Stream.std
        && ed.Serve.Stream.pass = e1.Serve.Stream.pass))
    [ 2; 4 ];
  (* --- sampling engine: normals/s and support-projected streaming ---
     Input generation is the serving bottleneck: every point above paid
     n polar normals while the tape reads only [vars_touched] of them.
     Time the raw samplers, then the streamed yield with the
     counter-mode ziggurat drawing (a) every coordinate and (b) only
     the touched ones — the latter two must agree bit for bit. *)
  let nnorm = if quick then 500_000 else 5_000_000 in
  let buf = Array.make n 0. in
  let fills = max 1 (nnorm / n) in
  let polar_norm_s =
    time (fun () ->
        let g = Randkit.Prng.create 91 in
        for _ = 1 to fills do
          Randkit.Gaussian.fill g buf
        done)
  in
  let zig_norm_s =
    time (fun () ->
        let g = Randkit.Prng.create 91 in
        for _ = 1 to fills do
          Randkit.Ziggurat.fill g buf
        done)
  in
  let words = Bytes.create (8 * n) in
  let ctr_norm_s =
    time (fun () ->
        let key = Randkit.Counter.create 91 in
        for p = 0 to fills - 1 do
          Randkit.Ziggurat.fill_at key ~point:p ~words buf
        done)
  in
  let nrate = rate ~work:(float_of_int (fills * n)) in
  let normals s = show ~scale:1. ~unit:"normals/s" (nrate s) in
  Printf.printf
    "sampler polar            %s\n\
     sampler ziggurat         %s\n\
     sampler counter-ziggurat %s\n%!"
    (normals polar_norm_s) (normals zig_norm_s) (normals ctr_norm_s);
  let ysamples = if quick then 50_000 else 200_000 in
  let timed_estimate ~sampler ~project =
    timed ~reps (fun () ->
        Serve.Stream.estimate ~pool ~sampler ~project ~samples:ysamples tape
          (Randkit.Prng.create 71) spec)
  in
  let e_polar, t_polar =
    timed_estimate ~sampler:Randkit.Gaussian.Polar ~project:false
  in
  let e_zfull, t_zfull =
    timed_estimate ~sampler:Randkit.Gaussian.Ziggurat ~project:false
  in
  let e_zproj, t_zproj =
    timed_estimate ~sampler:Randkit.Gaussian.Ziggurat ~project:true
  in
  check "projected == full-draw ziggurat estimate (bitwise)"
    (e_zproj = e_zfull);
  check "ziggurat vs polar estimates statistically consistent"
    (abs_float (e_zproj.Serve.Stream.yield -. e_polar.Serve.Stream.yield)
    < 6.
      *. (e_zproj.Serve.Stream.std_error +. e_polar.Serve.Stream.std_error
         +. 1e-9));
  let zig_at d =
    Parallel.Pool.with_pool ~domains:d (fun p ->
        Serve.Stream.estimate ~pool:p ~sampler:Randkit.Gaussian.Ziggurat
          ~samples:ysamples tape (Randkit.Prng.create 71) spec)
  in
  let z1 = zig_at 1 in
  List.iter
    (fun d ->
      check
        (Printf.sprintf
           "projected ziggurat yield bitwise identical at 1 vs %d domains" d)
        (zig_at d = z1))
    [ 2; 4 ];
  let yrate = rate ~work:(float_of_int ysamples) in
  Printf.printf
    "streamed yield polar+full         %s\n\
     streamed yield ziggurat+full      %s\n\
     streamed yield ziggurat+projected %s (%.1fx polar, %d of %d coords)\n%!"
    (per_s (yrate t_polar)) (per_s (yrate t_zfull)) (per_s (yrate t_zproj))
    (ratio t_polar t_zproj)
    (Serve.Eval.vars_touched tape)
    n;
  (* The projected stream's cost per point at one domain: its draws
     (vars_touched counter normals) plus the four-point tape pass. Its
     quartiles tell a spread inside this process from a shift between
     processes. *)
  let proj_d1 =
    time ~reps:((2 * reps) + 1) (fun () ->
        ignore
          (Serve.Stream.estimate ~sampler:Randkit.Gaussian.Ziggurat
             ~samples:ysamples tape (Randkit.Prng.create 71) spec))
  in
  let ns_per_point = 1e9 /. float_of_int ysamples in
  Printf.printf
    "projected stream (1 domain) %s (%d counter normals at %.1f ns each)\n%!"
    (show ~scale:ns_per_point ~unit:"ns/point" proj_d1)
    (Serve.Eval.vars_touched tape)
    (1e9 *. ctr_norm_s.Measure.median /. float_of_int (fills * n));
  Parallel.Pool.shutdown pool;
  update_summary ~scenario:"eval" ~domains
    [
      ("m", string_of_int m);
      ("n", string_of_int n);
      ("nnz", string_of_int (Rsm.Model.nnz model));
      ("vars_touched", string_of_int (Serve.Eval.vars_touched tape));
      ("points", string_of_int k);
      ("naive_evals_s", summary_json (evals naive_s));
      ("compiled_seq_evals_s", summary_json (evals seq_s));
      ("compiled_par_evals_s", summary_json (evals par_s));
      ("speedup_seq", num (ratio naive_s seq_s));
      ("speedup_par", num (ratio naive_s par_s));
      ( "yield_curve",
        list
          (List.map
             (fun (samples, e, r) ->
               obj
                 [
                   ("samples", string_of_int samples);
                   ("yield", num e.Serve.Stream.yield);
                   ("se", num e.Serve.Stream.std_error);
                   ("evals_s", summary_json r);
                 ])
             curve) );
      ( "sampling",
        obj
          [
            ( "normals_per_s",
              obj
                [
                  ("polar", summary_json (nrate polar_norm_s));
                  ("ziggurat", summary_json (nrate zig_norm_s));
                  ("ziggurat_counter", summary_json (nrate ctr_norm_s));
                ] );
            ( "yield",
              obj
                [
                  ("samples", string_of_int ysamples);
                  ("polar_full_evals_s", summary_json (yrate t_polar));
                  ("ziggurat_full_evals_s", summary_json (yrate t_zfull));
                  ("ziggurat_projected_evals_s", summary_json (yrate t_zproj));
                  ("projected_speedup_vs_polar", num (ratio t_polar t_zproj));
                  ("coords_drawn", string_of_int (Serve.Eval.vars_touched tape));
                  ( "projected_ns_per_point_d1",
                    summary_json (scale ns_per_point proj_d1) );
                ] );
          ] );
      ("parity_failures", string_of_int !failures);
    ];
  if !failures > 0 then begin
    Printf.printf "eval scenario: %d parity failure(s)\n%!" !failures;
    exit 1
  end
