(* Ablation A2: the K = O(P log M) scaling law behind Section IV-B's
   guarantee (Tropp & Gilbert). For random Gaussian dictionaries of M
   columns and P-sparse ground truth, measure the empirical probability
   that OMP recovers the exact support from K samples. The transition
   front should move as P log M.

   Gate ([run] returns false): K90/(P log M), the samples needed for
   90% recovery over P log M, is found for every P and varies by at
   most [max_spread] (largest over smallest) across P. *)

open Bench_util

let trial rng ~k ~m ~p =
  let g = Randkit.Gaussian.matrix rng k m in
  (* Random support and +-1-ish coefficients. *)
  let support = Randkit.Sampling.subsample rng (Array.init m Fun.id) p in
  Array.sort compare support;
  let coeffs =
    Array.init p (fun _ ->
        let s = if Randkit.Prng.bool rng then 1. else -1. in
        s *. (0.5 +. Randkit.Prng.float rng))
  in
  let f =
    Array.init k (fun i ->
        let acc = ref 0. in
        Array.iteri
          (fun q j -> acc := !acc +. (coeffs.(q) *. Linalg.Mat.get g i j))
          support;
        !acc)
  in
  match Rsm.Omp.fit g f ~lambda:p with
  | model -> model.Rsm.Model.support = support
  | exception _ -> false

let recovery_rate rng ~k ~m ~p ~trials =
  let ok = ref 0 in
  for _ = 1 to trials do
    if trial rng ~k ~m ~p then incr ok
  done;
  float_of_int !ok /. float_of_int trials

let max_spread = 1.5

let run ~quick () =
  let trials = if quick then 10 else 25 in
  let m = if quick then 200 else 400 in
  let ps = [ 4; 8; 16 ] in
  let ks = [ 10; 20; 40; 80; 160 ] in
  Printf.printf
    "\n=== Recovery phase diagram: P(exact support) for OMP, M = %d ===\n" m;
  Printf.printf
    "Section IV-B: K = O(P log M) samples suffice; the success front \
     should shift right roughly linearly in P.\n";
  let rng = Randkit.Prng.create default_seed in
  let rows =
    List.map
      (fun p ->
        string_of_int p
        :: List.map
             (fun k ->
               if k <= p then "-"
               else Printf.sprintf "%.0f%%" (100. *. recovery_rate rng ~k ~m ~p ~trials))
             ks)
      ps
  in
  print_table
    ~title:(Printf.sprintf "exact-recovery probability (%d trials/cell)" trials)
    ~header:("P \\ K" :: List.map string_of_int ks)
    rows;
  (* The scaling-law check the paper cites: K needed for >=90% recovery,
     divided by P log M, should be roughly constant in P. *)
  let logm = log (float_of_int m) in
  let scaled =
    List.map
      (fun p ->
        let needed =
          List.find_opt
            (fun k -> k > p && recovery_rate rng ~k ~m ~p ~trials >= 0.9)
            ks
        in
        match needed with
        | Some k ->
            let r = float_of_int k /. (float_of_int p *. logm) in
            Printf.printf "P = %2d: K90 ~ %3d, K90 / (P log M) = %.2f\n" p k r;
            Some r
        | None ->
            Printf.printf "P = %2d: K90 beyond the sweep\n" p;
            None)
      ps
  in
  (* Dictionary conditioning: the "well-conditioned" premise of
     Section IV-B, measured on both a random Gaussian dictionary and a
     sampled Hermite dictionary of the same shape. *)
  Printf.printf "\nDictionary conditioning (K = 160, M = %d):\n" (min m 300);
  let mm = min m 300 in
  let gauss = Randkit.Gaussian.matrix rng 160 mm in
  let hermite =
    let nvars = 16 in
    let b = Polybasis.Basis.quadratic nvars in
    let pts = Array.init 160 (fun _ -> Randkit.Gaussian.vector rng nvars) in
    let d = Polybasis.Design.matrix_rows b pts in
    Linalg.Mat.select_cols d (Array.init (min mm (Polybasis.Basis.size b)) Fun.id)
  in
  List.iter
    (fun (name, dict) ->
      let mu = Rsm.Coherence.mutual_coherence dict in
      let bound = Rsm.Coherence.coherence_recovery_bound dict in
      let mean_k, max_k = Rsm.Coherence.subset_condition rng dict ~s:12 in
      Printf.printf
        "  %-18s coherence %.3f, certified P < %.1f, 12-column condition \
         mean/max %.2f / %.2f\n"
        name mu bound mean_k max_k)
    [ ("random Gaussian", gauss); ("sampled Hermite", hermite) ];
  report_gate "K = O(P log M) scaling"
    (if List.mem None scaled then [ "K90 beyond the sweep for some P" ]
     else
       let rs = List.filter_map Fun.id scaled in
       let spread =
         List.fold_left Float.max 0. rs /. List.fold_left Float.min infinity rs
       in
       if spread <= max_spread then []
       else
         [
           Printf.sprintf "K90 / (P log M) spreads %.2fx over P (bound %.1fx)"
             spread max_spread;
         ])
