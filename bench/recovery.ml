(* Ablation A2: the K = O(P log M) scaling law behind Section IV-B's
   guarantee (Tropp & Gilbert). For random Gaussian dictionaries of M
   columns and P-sparse ground truth, measure the empirical probability
   that OMP recovers the exact support from K samples. The transition
   front should move as P log M.

   Gate ([run] returns false): K90/(P log M), the samples needed for
   90% recovery over P log M, is found for every P and varies by at
   most [max_spread] (largest over smallest) across P. K90 is read from
   the printed rates, and the trials per cell double until two seeds'
   diagrams give the same verdict. *)

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

let ps = [ 4; 8; 16 ]
let ks = [ 10; 20; 40; 80; 160 ]

(* One seed's phase diagram: the recovery rate of every (P, K) cell
   ([None] where K ≤ P), then K90 read from those same rates — the
   smallest K whose cell reaches 90% — over P log M. *)
let diagram ~seed ~m ~trials =
  let rng = Randkit.Prng.create seed in
  let rates =
    List.map
      (fun p ->
        ( p,
          List.map
            (fun k -> if k <= p then None else Some (recovery_rate rng ~k ~m ~p ~trials))
            ks ))
      ps
  in
  let logm = log (float_of_int m) in
  let k90 =
    List.map
      (fun (p, row) ->
        ( p,
          List.find_map
            (fun (k, rate) ->
              match rate with
              | Some r when r >= 0.9 -> Some (k, float_of_int k /. (float_of_int p *. logm))
              | _ -> None)
            (List.combine ks row) ))
      rates
  in
  (rates, k90)

(* The gate's verdict on one diagram: the failures, empty when K90 is
   found for every P and K90/(P log M) spreads at most [max_spread]. *)
let verdict k90 =
  if List.exists (fun (_, r) -> r = None) k90 then
    [ "K90 beyond the sweep for some P" ]
  else
    let rs = List.filter_map (fun (_, r) -> Option.map snd r) k90 in
    let spread =
      List.fold_left Float.max 0. rs /. List.fold_left Float.min infinity rs
    in
    if spread <= max_spread then []
    else
      [
        Printf.sprintf "K90 / (P log M) spreads %.2fx over P (bound %.1fx)"
          spread max_spread;
      ]

let run ~quick () =
  let m = if quick then 200 else 400 in
  Printf.printf
    "\n=== Recovery phase diagram: P(exact support) for OMP, M = %d ===\n" m;
  Printf.printf
    "Section IV-B: K = O(P log M) samples suffice; the success front \
     should shift right roughly linearly in P.\n";
  (* Two seeds draw their own diagrams; the trials per cell double
     until both give the same verdict, so the gate does not turn on
     one draw. *)
  let seeds = [ default_seed; default_seed + 1 ] in
  let rec settle trials =
    let runs = List.map (fun seed -> diagram ~seed ~m ~trials) seeds in
    let verdicts = List.map (fun (_, k90) -> verdict k90) runs in
    List.iter2
      (fun seed v ->
        Printf.printf "%d trials/cell, seed %d: %s\n" trials seed
          (match v with [] -> "gate holds" | f :: _ -> f))
      seeds verdicts;
    match verdicts with
    | a :: rest when List.for_all (fun b -> (a = []) = (b = [])) rest -> (trials, runs, a)
    | _ when trials >= 320 ->
        Printf.printf "the seeds still disagree at %d trials/cell\n" trials;
        (trials, runs, List.concat verdicts)
    | _ -> settle (2 * trials)
  in
  let trials, runs, failures = settle (if quick then 10 else 25) in
  let rates, k90 = List.hd runs in
  print_table
    ~title:
      (Printf.sprintf "exact-recovery probability (%d trials/cell, seed %d)"
         trials default_seed)
    ~header:("P \\ K" :: List.map string_of_int ks)
    (List.map
       (fun (p, row) ->
         string_of_int p
         :: List.map
              (function None -> "-" | Some r -> Printf.sprintf "%.0f%%" (100. *. r))
              row)
       rates);
  (* The scaling-law check the paper cites, read from the table above:
     K needed for >=90% recovery, divided by P log M, should be roughly
     constant in P. *)
  List.iter
    (fun (p, r) ->
      match r with
      | Some (k, ratio) ->
          Printf.printf "P = %2d: K90 ~ %3d, K90 / (P log M) = %.2f\n" p k ratio
      | None -> Printf.printf "P = %2d: K90 beyond the sweep\n" p)
    k90;
  let rng = Randkit.Prng.create (default_seed + 2) in
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
  report_gate "K = O(P log M) scaling" failures
