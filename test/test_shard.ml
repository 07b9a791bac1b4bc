(* Column-sharded sweep engine.

   Contracts under test:
   - Shard.ranges is a contiguous, non-empty, covering partition, with
     the shard count clamped to the column count.
   - the left-biased tree-reduce argmax merge equals the sequential
     strict-[>] scan for adversarial tied inputs at 1/2/4/7 shards
     (property test).
   - a fleet's kernels (gram_tr, col_dots, argmax_abs ~skip,
     column_norms) are Provider's bit for bit: dense and streamed
     designs, 1/2/3/5 domain shards and process shards, random
     ascending column sets (some shards' slices empty), and exact
     |correlation| ties straddling a shard boundary (property test).
   - LAR/LASSO/OMP/STAR sharded paths (Domains mode) are bitwise equal
     to shards:1 — dense and streamed providers, several shard counts,
     including paths with lasso drops and banned (duplicate) columns —
     and the λ-driven LAR/LASSO walks, whose screens the fleet answers,
     equal the unscreened reference walk.
   - Procs mode (re-exec'd worker processes) is bitwise equal too.
   - a worker SIGKILLed mid-fit (RSM_SHARD_FAULT) on a sweep, dots or
     argmax query is respawned and asked that query again, and the fit
     output stays bitwise identical.
   - a checkpointed sharded run resumes bitwise equal to the
     uninterrupted run. *)
open Test_util
module P = Polybasis.Design.Provider
module SS = Rsm.Shard_sweep
module Shard = Parallel.Shard

let shard_counts = [ 1; 2; 3; 5 ]

let model_bits (m : Rsm.Model.t) =
  (m.Rsm.Model.support, Array.copy m.Rsm.Model.coeffs)

let lars_bits (steps : Rsm.Lars.step array) =
  Array.map
    (fun (s : Rsm.Lars.step) ->
      (s.Rsm.Lars.added, s.dropped, s.max_corr, model_bits s.model))
    steps

let omp_bits (steps : Rsm.Omp.step array) =
  Array.map
    (fun (s : Rsm.Omp.step) ->
      (s.Rsm.Omp.index, s.correlation, s.residual_norm, model_bits s.model))
    steps

let star_bits (steps : Rsm.Star.step array) =
  Array.map
    (fun (s : Rsm.Star.step) ->
      (s.Rsm.Star.index, s.coefficient, s.residual_norm, model_bits s.model))
    steps

(* --- partition ----------------------------------------------------- *)

let test_ranges_partition () =
  List.iter
    (fun (n, shards) ->
      let rs = Shard.ranges ~n ~shards in
      check_bool "at least one shard" true (Array.length rs >= 1);
      check_bool "clamped to n" true (Array.length rs <= max n 1 && Array.length rs <= shards);
      let expected_lo = ref 0 in
      Array.iter
        (fun (r : Shard.range) ->
          check_int "contiguous" !expected_lo r.Shard.lo;
          check_bool "non-empty" true (r.hi > r.lo || n = 0);
          expected_lo := r.hi)
        rs;
      check_int "covers [0, n)" n !expected_lo)
    [ (10, 1); (10, 3); (10, 10); (10, 17); (1, 4); (97, 8); (64, 64) ]

let test_ranges_rejects () =
  check_raises_invalid "shards < 1" (fun () -> Shard.ranges ~n:5 ~shards:0);
  check_raises_invalid "negative n" (fun () -> Shard.ranges ~n:(-1) ~shards:2)

(* --- argmax merge (adversarial ties) ------------------------------- *)

let seq_argmax vals =
  let best = ref (-1) and best_abs = ref 0. in
  Array.iteri
    (fun j v ->
      let a = Float.abs v in
      if a > !best_abs then begin
        best := j;
        best_abs := a
      end)
    vals;
  (!best, !best_abs)

let sharded_argmax ~shards vals =
  let n = Array.length vals in
  let rs = Shard.ranges ~n ~shards in
  Shard.merge_argmax
    (Array.map
       (fun (r : Shard.range) ->
         let best = ref (-1) and best_abs = ref 0. in
         for j = r.Shard.lo to r.hi - 1 do
           let a = Float.abs vals.(j) in
           if a > !best_abs then begin
             best := j;
             best_abs := a
           end
         done;
         (!best, !best_abs))
       rs)

let test_argmax_merge_ties =
  (* Values drawn from a tiny set force massive |value| ties — the
     adversarial case for the lowest-index rule. *)
  qtest ~count:500 "tree-merged argmax == sequential scan under ties"
    QCheck.(
      array_of_size Gen.(1 -- 40) (map (fun i -> float_of_int (i - 2)) (int_range 0 4)))
    (fun vals ->
      let reference = seq_argmax vals in
      List.for_all
        (fun shards -> sharded_argmax ~shards vals = reference)
        [ 1; 2; 4; 7 ])

let test_tree_reduce_rejects_empty () =
  check_raises_invalid "empty tree_reduce" (fun () ->
      Shard.tree_reduce ( + ) [||])

(* --- fixtures ------------------------------------------------------ *)

let random_setting seed =
  let rng = Randkit.Prng.create seed in
  let dim = 3 + Randkit.Prng.int rng 2 in
  let basis = Polybasis.Basis.quadratic dim in
  let k = 20 + Randkit.Prng.int rng 12 in
  let pts = Array.init k (fun _ -> Randkit.Gaussian.vector rng dim) in
  let g =
    Parallel.Pool.with_pool ~domains:1 (fun pool ->
        Polybasis.Design.matrix_rows ~pool basis pts)
  in
  (rng, basis, pts, g)

let sparse_response rng src =
  let k = P.rows src and m = P.cols src in
  let p = 2 + Randkit.Prng.int rng 3 in
  let support = Randkit.Sampling.subsample rng (Array.init m Fun.id) p in
  let f = Array.init k (fun _ -> 0.05 *. Randkit.Gaussian.sample rng) in
  Array.iter
    (fun j ->
      let col = P.column src j in
      for i = 0 to k - 1 do
        f.(i) <- f.(i) +. col.(i)
      done)
    support;
  f

(* --- the fleet's kernels -------------------------------------------- *)

let bits v = Array.map Int64.bits_of_float v

(* The first column of shard 1 under [shards], or [None] with one. *)
let boundary ~m shards =
  let rs = Shard.ranges ~n:m ~shards in
  if Array.length rs > 1 then Some rs.(1).Shard.lo else None

(* [g] with columns [b − 1] and [b] replaced by ±10 × column [b − 1], and
   that column as the residual: the two |correlations| tie exactly, on
   either side of the boundary [b], and beat every other column. *)
let tied g b =
  let k = Linalg.Mat.rows g in
  let col = Array.init k (fun i -> Linalg.Mat.get g i (b - 1)) in
  let g2 = Linalg.Mat.copy g in
  for i = 0 to k - 1 do
    Linalg.Mat.set g2 i (b - 1) (10. *. col.(i));
    Linalg.Mat.set g2 i b (-10. *. col.(i))
  done;
  (P.dense g2, col)

(* Every kernel of the fleet [kn] against [src]'s own, bit for bit, on
   the residual [r]: column sets empty, whole, random ascending, and
   inside one shard (every other shard's slice empty); skip masks
   empty, random, and over the tied columns [tie]. *)
let kernels_agree ~rng ~shards ?(tie = []) src r (kn : SS.kernels) =
  let m = P.cols src in
  let subset p =
    Array.of_list
      (List.filter (fun _ -> Randkit.Prng.float rng < p) (List.init m Fun.id))
  in
  let rs = Shard.ranges ~n:m ~shards in
  let last = rs.(Array.length rs - 1) in
  let idx_sets =
    [
      [||];
      Array.init m Fun.id;
      subset 0.3;
      subset 0.7;
      Array.init (Shard.width last) (fun j -> last.Shard.lo + j);
    ]
  in
  let dots_agree idx =
    let a = Array.make (Array.length idx) 0. in
    let b = Array.make (Array.length idx) 1. in
    kn.col_dots idx r a;
    P.col_dots src idx r b;
    bits a = bits b
  in
  let skip_of cols =
    let skip = Array.make m false in
    List.iter (fun j -> skip.(j) <- true) cols;
    skip
  in
  let skips =
    skip_of [] :: skip_of (Array.to_list (subset 0.3))
    :: List.map skip_of (match tie with [] -> [] | t :: _ -> [ [ t ]; tie ])
  in
  let argmax_agree skip =
    let j, a = kn.argmax_abs ~skip r and j', a' = P.argmax_abs ~skip src r in
    j = j' && Int64.bits_of_float a = Int64.bits_of_float a'
  in
  bits (kn.column_norms ()) = bits (P.column_norms src)
  && bits (kn.gram_tr r) = bits (P.gram_tr src r)
  && List.for_all dots_agree idx_sets
  && List.for_all argmax_agree skips

let fleet_agrees ?mode ~rng ~shards ?tie src r =
  SS.with_fleet ~shards:(plan ?mode shards) src
    (kernels_agree ~rng ~shards ?tie src r)

let prop_fleet_kernels =
  qtest ~count:25 "fleet kernels == Provider kernels (bitwise, ties)"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, basis, pts, g = random_setting seed in
      let k = Linalg.Mat.rows g and m = Linalg.Mat.cols g in
      let r = Array.init k (fun _ -> Randkit.Gaussian.sample rng) in
      List.for_all
        (fun shards ->
          fleet_agrees ~rng ~shards (P.dense g) r
          && fleet_agrees ~rng ~shards (P.streamed basis pts) r
          &&
          match boundary ~m shards with
          | None -> true
          | Some b ->
              let src, col = tied g b in
              (* The tie is the argmax: the lower index wins it. *)
              fst (P.argmax_abs ~skip:(Array.make m false) src col) = b - 1
              && fleet_agrees ~rng ~shards ~tie:[ b - 1; b ] src col)
        shard_counts)

let test_fleet_kernels_process () =
  let rng, basis, pts, g = random_setting 19 in
  let k = Linalg.Mat.rows g and m = Linalg.Mat.cols g in
  let r = Array.init k (fun _ -> Randkit.Gaussian.sample rng) in
  let shards = 3 in
  let b = Option.get (boundary ~m shards) in
  let tied_src, col = tied g b in
  List.iter
    (fun (tag, src, r, tie) ->
      check_bool ("process fleet kernels, " ^ tag) true
        (fleet_agrees ~mode:"process" ~rng ~shards ~tie src r))
    [
      ("dense", P.dense g, r, []);
      ("streamed", P.streamed basis pts, r, []);
      ("tied", tied_src, col, [ b - 1; b ]);
    ];
  (* A fleet rejects what the provider rejects, before any query. *)
  SS.with_fleet ~shards:(plan ~mode:"process" shards) (P.dense g) (fun kn ->
      check_raises_invalid "col_dots: column out of range" (fun () ->
          kn.SS.col_dots [| 0; m |] r (Array.make 2 0.));
      check_raises_invalid "col_dots: length mismatch" (fun () ->
          kn.SS.col_dots [| 0 |] r [||]);
      check_raises_invalid "argmax_abs: skip length" (fun () ->
          kn.SS.argmax_abs ~skip:[||] r))

let test_raw_norms_bitwise () =
  let _, basis, pts, g = random_setting 11 in
  List.iter
    (fun src ->
      let reference = bits (P.column_norms src) in
      List.iter
        (fun shards ->
          check_bool
            (Printf.sprintf "raw norms, %d shards" shards)
            true
            (SS.with_fleet ~shards:(plan shards) src (fun kn ->
                 bits (kn.SS.column_norms ()) = reference)))
        [ 2; 3; 7 ])
    [ P.dense g; P.streamed basis pts ]

(* --- solver parity, Domains mode ----------------------------------- *)

let lars_steps ?(mode = Rsm.Lars.Lar) ?shards src f =
  Rsm.Lars.path_p ~mode ~on_singular:`Fallback
    ?shards:(Option.map plan shards) src
    f ~max_steps:12

(* The λ-driven walk at [shards] against the unscreened reference. *)
let check_reference ?(mode = Rsm.Lars.Lar) ~tag ~shards src f =
  let walk shards =
    lars_bits
      (Rsm.Lars.lambda_path_p ~mode ~on_singular:`Fallback ~shards src f
         ~max_lambda:5)
  in
  check_bool (tag ^ " == unscreened reference") true
    (walk shards
    = lars_bits
        (reference_walk ~mode ~on_singular:`Fallback src f ~max_lambda:5))

let test_lars_sharded_bitwise () =
  List.iter
    (fun seed ->
      let rng, basis, pts, g = random_setting seed in
      let f = sparse_response rng (P.dense g) in
      List.iter
        (fun (tag, src) ->
          List.iter
            (fun mode ->
              let reference = lars_bits (lars_steps ~mode src f) in
              List.iter
                (fun shards ->
                  let tag =
                    Printf.sprintf "lars %s seed=%d shards=%d" tag seed shards
                  in
                  check_bool (tag ^ " bitwise") true
                    (lars_bits (lars_steps ~mode ~shards src f) = reference);
                  check_reference ~mode ~tag ~shards:(plan shards) src f)
                shard_counts)
            [ Rsm.Lars.Lar; Rsm.Lars.Lasso ])
        [ ("dense", P.dense g); ("streamed", P.streamed basis pts) ])
    [ 3; 4 ]

(* Duplicated columns make entering candidates linearly dependent, so
   the `Fallback ban path runs under sharding too. *)
let test_lars_sharded_bans_bitwise () =
  let rng, _, _, g = random_setting 7 in
  let k = Linalg.Mat.rows g in
  let m = Linalg.Mat.cols g in
  let g2 = Linalg.Mat.create k (m + 2) in
  for i = 0 to k - 1 do
    for j = 0 to m - 1 do
      Linalg.Mat.set g2 i j (Linalg.Mat.get g i j)
    done;
    (* duplicates of two early columns *)
    Linalg.Mat.set g2 i m (Linalg.Mat.get g i 1);
    Linalg.Mat.set g2 i (m + 1) (Linalg.Mat.get g i 2)
  done;
  let src = P.dense g2 in
  let f = sparse_response rng src in
  let reference = lars_bits (lars_steps src f) in
  List.iter
    (fun shards ->
      let tag = Printf.sprintf "lars bans shards=%d" shards in
      check_bool tag true (lars_bits (lars_steps ~shards src f) = reference);
      check_reference ~tag ~shards:(plan shards) src f)
    shard_counts

let test_omp_star_sharded_bitwise () =
  let rng, basis, pts, g = random_setting 5 in
  let f = sparse_response rng (P.dense g) in
  List.iter
    (fun (tag, src) ->
      let omp_ref = omp_bits (Rsm.Omp.path_p src f ~max_lambda:6) in
      let star_ref = star_bits (Rsm.Star.path_p src f ~max_lambda:6) in
      List.iter
        (fun shards ->
          check_bool
            (Printf.sprintf "omp %s shards=%d" tag shards)
            true
            (omp_bits (Rsm.Omp.path_p ~shards:(plan shards) src f ~max_lambda:6)
            = omp_ref);
          check_bool
            (Printf.sprintf "star %s shards=%d" tag shards)
            true
            (star_bits
               (Rsm.Star.path_p ~shards:(plan shards) src f ~max_lambda:6)
            = star_ref))
        shard_counts)
    [ ("dense", P.dense g); ("streamed", P.streamed basis pts) ]

(* --- Procs mode ---------------------------------------------------- *)

let test_lars_process_shards_bitwise () =
  let rng, basis, pts, g = random_setting 9 in
  let f = sparse_response rng (P.dense g) in
  List.iter
    (fun (tag, src) ->
      let reference = lars_bits (lars_steps src f) in
      let procs = plan ~mode:"process" 3 in
      let sharded =
        lars_bits
          (Rsm.Lars.path_p ~on_singular:`Fallback ~shards:procs src f
             ~max_steps:12)
      in
      check_bool (Printf.sprintf "lars procs %s bitwise" tag) true
        (sharded = reference);
      List.iter
        (fun mode ->
          List.iter
            (fun shards ->
              check_reference ~mode
                ~tag:(Printf.sprintf "lambda walk, %d procs, %s" shards tag)
                ~shards:(plan ~mode:"process" shards)
                src f)
            [ 2; 4 ])
        [ Rsm.Lars.Lar; Rsm.Lars.Lasso ];
      check_int (Printf.sprintf "no recoveries %s" tag) 0
        (Atomic.get procs.recovered))
    [ ("dense", P.dense g); ("streamed", P.streamed basis pts) ]

let test_omp_process_shards_bitwise () =
  let rng, basis, pts, _ = random_setting 13 in
  let src = P.streamed basis pts in
  let f = sparse_response rng src in
  let reference = omp_bits (Rsm.Omp.path_p src f ~max_lambda:5) in
  let sharded =
    omp_bits
      (Rsm.Omp.path_p ~shards:(plan ~mode:"process" 2) src f ~max_lambda:5)
  in
  check_bool "omp procs bitwise" true (sharded = reference);
  let reference = star_bits (Rsm.Star.path_p src f ~max_lambda:5) in
  let sharded =
    star_bits
      (Rsm.Star.path_p ~shards:(plan ~mode:"process" 2) src f ~max_lambda:5)
  in
  check_bool "star procs bitwise" true (sharded = reference)

(* A worker killed mid-fit must be respawned, asked its in-flight query
   again, and leave the output bitwise unchanged. RSM_SHARD_FAULT makes
   shard 1 SIGKILL itself on its n-th query; the parent strips the
   variable on respawn so the replacement survives. A LAR walk sweeps
   the residual first and computes the nearest columns' dots next, so
   1:2 lands on a column-dots query, as does 1:5 on a later step; an
   OMP walk asks argmax queries only. *)
let with_fault spec f =
  Unix.putenv "RSM_SHARD_FAULT" spec;
  Fun.protect ~finally:(fun () -> Unix.putenv "RSM_SHARD_FAULT" "") f

let test_process_shard_kill_recovery () =
  let rng, basis, pts, _ = random_setting 17 in
  let src = P.streamed basis pts in
  let f = sparse_response rng src in
  let reference = lars_bits (lars_steps src f) in
  List.iter
    (fun spec ->
      let procs = plan ~mode:"process" 3 in
      let killed =
        with_fault spec (fun () ->
            lars_bits
              (Rsm.Lars.path_p ~on_singular:`Fallback ~shards:procs src f
                 ~max_steps:12))
      in
      check_bool ("killed-shard LAR run bitwise, " ^ spec) true
        (killed = reference);
      check_bool ("LAR recovery happened, " ^ spec) true
        (Atomic.get procs.recovered >= 1))
    [ "1:2"; "1:5" ];
  let reference = omp_bits (Rsm.Omp.path_p src f ~max_lambda:6) in
  let procs = plan ~mode:"process" 3 in
  let killed =
    with_fault "1:2" (fun () ->
        omp_bits (Rsm.Omp.path_p ~shards:procs src f ~max_lambda:6))
  in
  check_bool "killed-shard OMP run bitwise" true (killed = reference);
  check_bool "OMP recovery happened" true (Atomic.get procs.recovered >= 1)

(* --- checkpoint/resume under sharding ------------------------------ *)

let test_lars_sharded_resume_bitwise () =
  let rng, basis, pts, _ = random_setting 21 in
  let src = P.streamed basis pts in
  let f = sparse_response rng src in
  let walk ?log () =
    lars_bits
      (Rsm.Lars.path_p ~mode:Rsm.Lars.Lasso ~on_singular:`Fallback
         ~shards:(plan 3) ?log src f ~max_steps:10)
  in
  let reference = walk () in
  (* Capture a mid-path checkpoint from the sharded run... *)
  let saved = ref None in
  ignore
    (walk
       ~log:
         (walk_log ~every:2
            ~save:(fun ck -> if !saved = None then saved := Some ck)
            ())
       ());
  (* ...and resume it sharded: replay + live continuation must equal the
     uninterrupted walk bitwise. *)
  check_bool "sharded resume bitwise" true
    (walk ~log:(walk_log ~resume:(Option.get !saved) ()) () = reference)

(* --- the shard plan ----------------------------------------------- *)

let test_plan_constructor () =
  let expect_error what expected r =
    match r with
    | Error e -> Alcotest.(check string) what expected e
    | Ok _ -> Alcotest.failf "%s: expected Error" what
  in
  expect_error "zero shards" "shards must be at least 1 (got 0)" (SS.plan 0);
  expect_error "negative shards" "shards must be at least 1 (got -3)"
    (SS.plan ~mode:"process" (-3));
  expect_error "unknown mode"
    "shard-mode must be domain or process (got \"threads\")"
    (SS.plan ~mode:"threads" 2);
  List.iter
    (fun (mode, expected) ->
      let p = plan ?mode 4 in
      check_int "shards kept" 4 p.SS.shards;
      check_bool "mode parsed" true (p.SS.mode = expected);
      check_int "no recoveries yet" 0 (Atomic.get p.SS.recovered))
    [
      (None, SS.Domains);
      (Some "domain", SS.Domains);
      (Some "domains", SS.Domains);
      (Some "process", SS.Procs);
      (Some "procs", SS.Procs);
    ];
  (* A one-shard plan runs unsharded: no fleet is built, so none
     records its footprint; a two-shard plan's fleet does. *)
  let _, _, _, g = random_setting 5 in
  let src = P.dense g in
  let footprint p =
    SS.with_fleet ~shards:p src ignore;
    Array.length (Atomic.get p.SS.peak_rss)
  in
  check_int "one shard, no fleet" 0 (footprint (plan 1));
  check_int "two shards, a fleet" 2 (footprint (plan 2))

let suite =
  ( "shard",
    [
      case "ranges is a covering partition" test_ranges_partition;
      case "ranges validates arguments" test_ranges_rejects;
      test_argmax_merge_ties;
      case "tree_reduce rejects empty input" test_tree_reduce_rejects_empty;
      prop_fleet_kernels;
      case "process fleet kernels == Provider kernels" test_fleet_kernels_process;
      case "raw_norms gathers bitwise column_norms" test_raw_norms_bitwise;
      slow_case "LAR/LASSO sharded == unsharded (bitwise)"
        test_lars_sharded_bitwise;
      case "LAR sharded ban path bitwise" test_lars_sharded_bans_bitwise;
      slow_case "OMP/STAR sharded == unsharded (bitwise)"
        test_omp_star_sharded_bitwise;
      slow_case "LAR process shards bitwise" test_lars_process_shards_bitwise;
      case "OMP process shards bitwise" test_omp_process_shards_bitwise;
      slow_case "killed process shard recovers bitwise"
        test_process_shard_kill_recovery;
      case "sharded checkpoint resume bitwise" test_lars_sharded_resume_bitwise;
      case "plan: validating constructor" test_plan_constructor;
    ] )
