(* The domain pool and the determinism contract of the parallel kernels:
   every parallelized hot path must return the same bits as its
   sequential counterpart for a fixed seed, at every domain count. *)
open Test_util

let pool_counts = [ 1; 2; 4 ]

(* --- pool mechanics ------------------------------------------------ *)

let test_empty_range () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let hits = ref 0 in
      Parallel.Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> incr hits);
      check_int "empty range: body never runs" 0 !hits;
      let r =
        Parallel.Pool.parallel_reduce pool ?chunks:None ?grain:None ~lo:3
          ~hi:3 ~init:42
          ~fold:(fun ~lo:_ ~hi:_ -> 0)
          ~combine:( + )
      in
      check_int "empty reduce returns init" 42 r)

let test_single_item () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let seen = ref [] in
      Parallel.Pool.parallel_for pool ~lo:3 ~hi:4 (fun i ->
          seen := i :: !seen);
      check_bool "single index visited once" true (!seen = [ 3 ]))

let test_range_smaller_than_domains () =
  Parallel.Pool.with_pool ~domains:8 (fun pool ->
      let hits = Array.make 3 0 in
      Parallel.Pool.parallel_for pool ~lo:0 ~hi:3 (fun i ->
          hits.(i) <- hits.(i) + 1);
      Array.iteri
        (fun i h -> check_int (Printf.sprintf "index %d hit once" i) 1 h)
        hits)

let test_for_chunks_covers_range () =
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      let hits = Array.make 100 0 in
      Parallel.Pool.parallel_for_chunks pool ~chunks:7 ~lo:0 ~hi:100
        (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Array.iteri
        (fun i h -> check_int (Printf.sprintf "index %d hit once" i) 1 h)
        hits)

let test_reduce_sum () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun chunks ->
          let s =
            Parallel.Pool.parallel_reduce pool ~chunks ?grain:None ~lo:0
              ~hi:1000 ~init:0
              ~fold:(fun ~lo ~hi ->
                let a = ref 0 in
                for i = lo to hi - 1 do
                  a := !a + i
                done;
                !a)
              ~combine:( + )
          in
          check_int (Printf.sprintf "sum with %d chunks" chunks) 499500 s)
        [ 1; 2; 3; 7; 1000 ])

let test_reduce_combines_in_chunk_order () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let ranges =
        Parallel.Pool.parallel_reduce pool ~chunks:5 ?grain:None ~lo:0 ~hi:53
          ~init:[]
          ~fold:(fun ~lo ~hi -> [ (lo, hi) ])
          ~combine:( @ )
      in
      check_int "five chunks" 5 (List.length ranges);
      let expected_lo = ref 0 in
      List.iter
        (fun (lo, hi) ->
          check_int "chunks contiguous and in order" !expected_lo lo;
          check_bool "chunk non-empty" true (hi > lo);
          expected_lo := hi)
        ranges;
      check_int "chunks cover the range" 53 !expected_lo)

let test_exception_propagates_pool_survives () =
  (* The failure contract must hold at every domain count, including the
     degenerate single-domain pool. *)
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          (match
             Parallel.Pool.parallel_for pool ~lo:0 ~hi:100 (fun i ->
                 if i >= 50 then failwith "boom")
           with
          | () -> Alcotest.fail "expected the body's exception to propagate"
          | exception Failure msg ->
              check_bool
                (Printf.sprintf "body exception (domains=%d)" domains)
                true (msg = "boom"));
          (* The pool must stay fully usable after a failed operation. *)
          let hits = Array.make 10 0 in
          Parallel.Pool.parallel_for pool ~lo:0 ~hi:10 (fun i ->
              hits.(i) <- hits.(i) + 1);
          Array.iter
            (fun h ->
              check_int
                (Printf.sprintf "usable after failure (domains=%d)" domains)
                1 h)
            hits))
    pool_counts

let test_lowest_chunk_exception_wins () =
  (* Every chunk raises; the re-raised exception must be the one a
     sequential loop would have hit first (lowest chunk index) — at
     every domain count. *)
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          match
            Parallel.Pool.parallel_for_chunks pool ~chunks:4 ~lo:0 ~hi:100
              (fun ~lo ~hi:_ -> failwith (Printf.sprintf "chunk@%d" lo))
          with
          | () -> Alcotest.fail "expected an exception"
          | exception Failure msg ->
              check_bool
                (Printf.sprintf "lowest chunk wins (domains=%d)" domains)
                true
                (msg = "chunk@0")))
    pool_counts

let test_partial_failure_lowest_index_wins () =
  (* Only some chunks raise; the winner must still be the lowest-indexed
     failing chunk, and successful chunks' work must have completed. *)
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          let done_ = Array.make 4 false in
          match
            Parallel.Pool.parallel_for_chunks pool ~chunks:4 ~lo:0 ~hi:4
              (fun ~lo ~hi:_ ->
                if lo = 1 || lo = 3 then
                  failwith (Printf.sprintf "chunk@%d" lo)
                else done_.(lo) <- true)
          with
          | () -> Alcotest.fail "expected an exception"
          | exception Failure msg ->
              check_bool
                (Printf.sprintf "lowest failing chunk wins (domains=%d)"
                   domains)
                true (msg = "chunk@1");
              check_bool "non-failing chunk 0 ran" true done_.(0)))
    pool_counts

let test_domain_clamping () =
  Parallel.Pool.with_pool ~domains:0 (fun pool ->
      check_int "domains clamped up to 1" 1 (Parallel.Pool.num_domains pool));
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      check_int "requested count kept" 4 (Parallel.Pool.num_domains pool))

let test_shutdown_semantics () =
  let pool = Parallel.Pool.create ~domains:2 () in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool (* idempotent *);
  check_raises_invalid "submit after shutdown" (fun () ->
      Parallel.Pool.parallel_for pool ~lo:0 ~hi:4 ignore);
  check_raises_invalid "set_default_domains 0" (fun () ->
      Parallel.Pool.set_default_domains 0)

let test_nested_parallel_no_deadlock () =
  (* Select's fold-parallel CV calls OMP's column-parallel sweep on the
     same pool; the caller-helps scheduler must not deadlock. *)
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let total = ref 0 in
      let mu = Mutex.create () in
      Parallel.Pool.parallel_for pool ~lo:0 ~hi:8 (fun _ ->
          let s =
            Parallel.Pool.parallel_reduce pool ?chunks:None ?grain:None ~lo:0
              ~hi:100 ~init:0
              ~fold:(fun ~lo ~hi ->
                let a = ref 0 in
                for i = lo to hi - 1 do
                  a := !a + i
                done;
                !a)
              ~combine:( + )
          in
          Mutex.lock mu;
          total := !total + s;
          Mutex.unlock mu);
      check_int "nested reduce per outer index" (8 * 4950) !total)

(* --- determinism of the parallel kernels --------------------------- *)

let with_pools f =
  List.map (fun d -> Parallel.Pool.with_pool ~domains:d f) pool_counts

let all_equal msg = function
  | [] | [ _ ] -> ()
  | ref :: rest ->
      List.iteri
        (fun i x ->
          check_bool
            (Printf.sprintf "%s: domains=%d equals domains=1" msg
               (List.nth pool_counts (i + 1)))
            true (x = ref))
        rest

let sparse_problem ~k ~m seed =
  let rng = Randkit.Prng.create seed in
  let g = Randkit.Gaussian.matrix rng k m in
  let f =
    Array.init k (fun i ->
        (2. *. Linalg.Mat.get g i 1)
        -. (1.5 *. Linalg.Mat.get g i (m / 2))
        +. Linalg.Mat.get g i (m - 1)
        +. (0.05 *. Randkit.Gaussian.sample rng))
  in
  (g, f)

let prop_design_matrix_deterministic seed =
  let rng = Randkit.Prng.create seed in
  let dim = 3 + Randkit.Prng.int rng 3 in
  let basis = Polybasis.Basis.quadratic dim in
  let pts = Array.init 17 (fun _ -> Randkit.Gaussian.vector rng dim) in
  let mats =
    with_pools (fun pool ->
        Linalg.Mat.to_arrays (Polybasis.Design.matrix_rows ~pool basis pts))
  in
  all_equal "design matrix bits" mats;
  true

let prop_omp_fit_deterministic seed =
  let g, f = sparse_problem ~k:40 ~m:25 seed in
  let fits =
    with_pools (fun pool ->
        let m = Rsm.Omp.fit ~pool g f ~lambda:5 in
        (m.Rsm.Model.support, Array.copy m.Rsm.Model.coeffs))
  in
  all_equal "OMP support and coefficient bits" fits;
  true

let prop_cv_select_deterministic seed =
  let g, f = sparse_problem ~k:40 ~m:25 seed in
  let results =
    with_pools (fun pool ->
        let r =
          Rsm.Select.omp ~pool (Randkit.Prng.create (seed + 1)) ~max_lambda:6 g
            f
        in
        (r.Rsm.Select.lambda, Array.copy r.Rsm.Select.curve,
         Rsm.Model.to_dense r.Rsm.Select.model))
  in
  all_equal "CV lambda, curve and model bits" results;
  true

let test_lars_resume_domain_parity () =
  (* A LARS checkpoint written under one domain count must resume to
     the same bits under every other: replay recomputes correlations
     per active column, live steps sweep in parallel — both are
     domain-count invariant. *)
  let g, f = sparse_problem ~k:40 ~m:25 913 in
  let src = Polybasis.Design.Provider.dense g in
  let full =
    Rsm.Serialize.to_string
      (Rsm.Lars.fit_p ~on_singular:`Fallback src f ~lambda:4)
  in
  let ck = ref None in
  ignore
    (Rsm.Lars.path_p ~on_singular:`Fallback
       ~log:(walk_log ~every:2 ~save:(fun c -> ck := Some c) ())
       src f ~max_steps:3);
  let ck = Option.get !ck in
  let fits =
    with_pools (fun pool ->
        Rsm.Serialize.to_string
          (Rsm.Lars.fit_p ~pool ~on_singular:`Fallback
             ~log:(walk_log ~resume:ck ()) src f ~lambda:4))
  in
  all_equal "resumed LARS model bits" fits;
  List.iter
    (fun s -> check_bool "resumed equals uninterrupted" true (s = full))
    fits

let test_cv_resume_domain_parity () =
  (* A CV sweep killed after two folds must resume bitwise at every
     domain count: cached folds load in fold order, refitted folds keep
     their original PRNG streams. *)
  let g, f = sparse_problem ~k:48 ~m:12 914 in
  let src = Polybasis.Design.Provider.dense g in
  let run ?pool ?checkpoint ?resume () =
    Rsm.Select.omp_p ?pool ?store:(store ?resume checkpoint) ~folds:4
      (Randkit.Prng.create 55)
      ~max_lambda:5 src f
  in
  let fingerprint (r : Rsm.Select.result) =
    ( r.Rsm.Select.lambda,
      Array.copy r.Rsm.Select.curve,
      Rsm.Serialize.to_string r.Rsm.Select.model )
  in
  let full = fingerprint (run ()) in
  let dir = Filename.temp_file "rsm-cvpar" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun fn -> Sys.remove (Filename.concat dir fn))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let base = Filename.concat dir "cv" in
      let fold_file = Rsm.Serialize.Checkpoint.Cell.file base ~outputs:1 0 in
      ignore (run ~checkpoint:base ());
      let results =
        with_pools (fun pool ->
            (* Re-kill before every resume so each domain count refits
               folds 2 and 3 rather than loading a predecessor's files. *)
            List.iter
              (fun q ->
                if Sys.file_exists (fold_file q) then Sys.remove (fold_file q))
              [ 2; 3 ];
            fingerprint (run ~pool ~checkpoint:base ~resume:true ()))
      in
      all_equal "resumed CV selection bits" results;
      List.iter
        (fun r -> check_bool "resumed equals uninterrupted" true (r = full))
        results)

let prop_simulator_batch_deterministic seed =
  let sram = Circuit.Sram.build ~cells:12 () in
  let sim = Circuit.Sram.simulator sram in
  let sequential =
    Circuit.Simulator.run sim (Randkit.Prng.create seed) ~k:30
  in
  let batches =
    with_pools (fun pool ->
        Circuit.Simulator.run ~pool sim (Randkit.Prng.create seed) ~k:30)
  in
  List.iter
    (fun (d : Circuit.Simulator.dataset) ->
      check_bool "points identical" true (d.points = sequential.points);
      check_bool "values identical" true (d.values = sequential.values))
    batches;
  true

let seed_gen = QCheck.int_range 1 10_000

let suite =
  ( "parallel",
    [
      case "pool: empty range" test_empty_range;
      case "pool: single item" test_single_item;
      case "pool: range < domains" test_range_smaller_than_domains;
      case "pool: chunked for covers range" test_for_chunks_covers_range;
      case "pool: reduce sums" test_reduce_sum;
      case "pool: reduce combines in chunk order"
        test_reduce_combines_in_chunk_order;
      case "pool: exception propagates, pool survives"
        test_exception_propagates_pool_survives;
      case "pool: lowest-chunk exception wins"
        test_lowest_chunk_exception_wins;
      case "pool: partial failure, lowest failing chunk wins"
        test_partial_failure_lowest_index_wins;
      case "pool: domain count clamping" test_domain_clamping;
      case "pool: shutdown semantics" test_shutdown_semantics;
      case "pool: nested parallelism does not deadlock"
        test_nested_parallel_no_deadlock;
      qtest ~count:15 "design matrix: parallel == sequential" seed_gen
        prop_design_matrix_deterministic;
      qtest ~count:15 "omp fit: parallel == sequential" seed_gen
        prop_omp_fit_deterministic;
      qtest ~count:8 "cv selection: parallel == sequential" seed_gen
        prop_cv_select_deterministic;
      case "lars resume: domain-count parity" test_lars_resume_domain_parity;
      case "cv resume: domain-count parity" test_cv_resume_domain_parity;
      qtest ~count:8 "simulator batch: parallel == sequential" seed_gen
        prop_simulator_batch_deterministic;
    ] )
