(* Column-sharded LAR at M = 10⁶: the tentpole scale test.

   Fits the same streamed quadratic dictionary twice — unsharded, and
   through the column-sharded engine in process mode — and byte-compares
   the paths: entering/leaving columns, the C correlations and every
   coefficient must be bitwise identical at every shard count (exit 1
   on violation, so this doubles as the determinism smoke for CI).

   Process mode is the point at this scale: each re-exec'd worker owns
   only its M/S column slice (its Hermite tables and norms), so the
   per-process peak RSS stays bounded while the single-image fit carries
   the whole dictionary. Both fits run the exact sweep, the sharded one
   screening each step length inside every shard. The per-shard VmHWM
   of the fleet that fitted, read as its fit finished, is recorded next
   to the fit times in BENCH_speed.json. *)

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
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let seq_steps, seq_s =
    timed (fun () ->
        Rsm.Lars.path_p ~pool ~on_singular:`Fallback src f ~max_steps)
  in
  let sh_steps, sh_s =
    timed (fun () ->
        Rsm.Lars.path_p ~pool ~on_singular:`Fallback ~shards:plan src f
          ~max_steps)
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
  Printf.printf
    "unsharded %8.2f s   %d-shard %8.2f s   parity %s   parent RSS %.0f MB\n%!"
    seq_s shards sh_s
    (if parity then "bitwise" else "VIOLATED")
    (Bench_util.peak_rss_mb ());
  let payload =
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"m\": %d, \"k\": %d, \"steps\": %d, \"shards\": %d, \"mode\": \
          \"process\", \"fit_s_unsharded\": %.3f, \"fit_s_sharded\": %.3f, \
          \"parity\": %B, \"parent_peak_rss_mb\": %.1f, \
          \"shard_peak_rss_mb\": ["
         m k (Array.length sh_steps) shards seq_s sh_s parity
         (Bench_util.peak_rss_mb ()));
    Array.iteri
      (fun i kb ->
        Buffer.add_string b
          (Printf.sprintf "%s%.1f" (if i = 0 then "" else ", ") (kb /. 1024.)))
      shard_rss_kb;
    Buffer.add_string b "]}";
    Buffer.contents b
  in
  Bench_util.update_summary ~scenario:"bigm_sharded" ~payload;
  Printf.printf "summary updated in %s\n%!" Bench_util.summary_file;
  Parallel.Pool.shutdown pool;
  if not parity then begin
    Printf.printf "bigm_sharded: sharded path diverged from unsharded\n%!";
    exit 1
  end
