(* Column-sharded LAR at M = 10⁶: the tentpole scale test.

   Fits the same streamed quadratic dictionary twice — unsharded, and
   through the column-sharded engine in process mode — and byte-compares
   the paths: entering/leaving columns, the C correlations and every
   coefficient must be bitwise identical at every shard count (exit 1
   on violation, so this doubles as the determinism smoke for CI).

   Process mode is the point at this scale: each re-exec'd worker owns
   only its M/S column slice (its compiled terms and Hermite tables), so
   the per-process peak RSS stays bounded. Both fits are the same walk —
   the LAR engine with its carried correlation bounds and step-length
   screen, in the parent — and differ only in who answers its full
   sweeps and column dots: the parent's provider, or the fleet, each
   worker over its window. The parent holds the engine's per-column
   arrays (six M-length float arrays, about 48 MB at M = 10⁶). The
   sharded fit runs first, so the parent's VmHWM read as it finishes is
   that fit's own footprint; it is recorded next to the fit times and
   the per-shard VmHWM of the fleet that fitted in BENCH_speed.json. *)

let quick_cfg = (60, 80, 6, 3)

(* n = 1413 → M = 1 + 2n + n(n−1)/2 = 1,000,405 columns. *)
let full_cfg = (1413, 400, 8, 4)

let fingerprint steps =
  Array.map
    (fun (s : Rsm.Lars.step) ->
      ( s.Rsm.Lars.added,
        s.Rsm.Lars.dropped,
        Int64.bits_of_float s.Rsm.Lars.max_corr,
        s.Rsm.Lars.model.Rsm.Model.support,
        Array.map Int64.bits_of_float s.Rsm.Lars.model.Rsm.Model.coeffs ))
    steps

let run ?(quick = false) ?domains () =
  let n, k, max_steps, shards = if quick then quick_cfg else full_cfg in
  let domains =
    match domains with Some d -> d | None -> Parallel.Pool.default_domains ()
  in
  let pool = Parallel.Pool.create ~domains () in
  let basis = Polybasis.Basis.quadratic n in
  let m = Polybasis.Basis.size basis in
  let rng = Randkit.Prng.create 61 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng n) in
  let src = Polybasis.Design.Provider.streamed basis pts in
  (* Sparse synthetic response: a handful of true columns plus noise. *)
  let p_true = min 6 max_steps in
  let support = Randkit.Sampling.subsample rng (Array.init m Fun.id) p_true in
  let f = Array.init k (fun _ -> 0.05 *. Randkit.Gaussian.sample rng) in
  Array.iter
    (fun j ->
      let col = Polybasis.Design.Provider.column src j in
      for i = 0 to k - 1 do
        f.(i) <- f.(i) +. col.(i)
      done)
    support;
  Printf.printf
    "\n=== Column-sharded LAR: K=%d M=%d steps=%d shards=%d (process mode) \
     ===\n\
     %!"
    k m max_steps shards;
  let plan = Bench_util.ok (Rsm.Shard_sweep.plan ~mode:"process" shards) in
  let sharded () =
    Rsm.Lars.path_p ~pool ~on_singular:`Fallback ~shards:plan src f ~max_steps
  in
  (* One sharded fit first, with the parent's VmHWM read as it
     finishes: that fit's own parent footprint, before the timed
     repetitions and the unsharded walk grow the heap. It is also the
     timing's warm-up. *)
  ignore (sharded ());
  let parent_rss_mb = Measure.peak_rss_mb () in
  let sh_steps, sh_s = Bench_util.timed ~warmup:0 ~reps:3 sharded in
  let seq_steps, seq_s =
    Bench_util.timed ~reps:3 (fun () ->
        Rsm.Lars.path_p ~pool ~on_singular:`Fallback src f ~max_steps)
  in
  (* The per-shard footprint of the fleet that fitted: each worker's
     VmHWM, read as the fit finished. *)
  let shard_rss_kb = Atomic.get plan.Rsm.Shard_sweep.peak_rss in
  Array.iteri
    (fun s kb ->
      Printf.printf "shard %d/%d: %d columns, peak RSS %.1f MB\n%!" s shards
        (((s + 1) * m / shards) - (s * m / shards))
        (kb /. 1024.))
    shard_rss_kb;
  let parity = fingerprint seq_steps = fingerprint sh_steps in
  let show = Bench_util.show ~scale:1. ~unit:"s" in
  Printf.printf
    "unsharded %s   %d-shard %s   parity %s   sharded-fit parent RSS %.0f MB\n%!"
    (show seq_s) shards (show sh_s)
    (if parity then "bitwise" else "VIOLATED")
    parent_rss_mb;
  Bench_util.(
    update_summary ~scenario:"bigm_sharded" ~domains
      [
        ("m", string_of_int m);
        ("k", string_of_int k);
        ("steps", string_of_int (Array.length sh_steps));
        ("shards", string_of_int shards);
        ("mode", "\"process\"");
        ("fit_s_unsharded", summary_json seq_s);
        ("fit_s_sharded", summary_json sh_s);
        ("parity", string_of_bool parity);
        ("parent_peak_rss_mb", num parent_rss_mb);
        ( "shard_peak_rss_mb",
          list (Array.to_list (Array.map (fun kb -> num (kb /. 1024.)) shard_rss_kb)) );
      ]);
  Parallel.Pool.shutdown pool;
  if not parity then begin
    Printf.printf "bigm_sharded: sharded path diverged from unsharded\n%!";
    exit 1
  end
