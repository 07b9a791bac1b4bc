(* Serving engine: compiled instruction tapes, the streaming yield
   estimator and the model loader.

   The contracts under test are bitwise, not approximate: a compiled
   tape must reproduce Model.predict_point bit for bit on every model,
   basis and point, and the streamed estimator must not change a single
   result bit when the domain count changes. *)

open Test_util

(* Random sparse models over random quadratic/total-degree bases. *)
let model_gen =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* degree = int_range 1 3 in
    let basis =
      if degree <= 2 then Polybasis.Basis.quadratic n
      else Polybasis.Basis.total_degree n degree
    in
    let m = Polybasis.Basis.size basis in
    let* p = int_range 0 (min 12 m) in
    let* support_list =
      if p = 0 then return []
      else
        let* idx = list_repeat p (int_range 0 (m - 1)) in
        return (List.sort_uniq compare idx)
    in
    let support = Array.of_list support_list in
    let* coeffs =
      array_repeat (Array.length support) (float_range (-2.) 2.)
    in
    let model = Rsm.Model.make ~basis_size:m ~support ~coeffs in
    let* seed = int_range 1 1_000_000 in
    return (model, basis, seed))

let arbitrary_model =
  QCheck.make model_gen ~print:(fun (model, basis, seed) ->
      Printf.sprintf "nnz=%d dim=%d M=%d seed=%d" (Rsm.Model.nnz model)
        (Polybasis.Basis.dim basis)
        (Polybasis.Basis.size basis)
        seed)

let random_points rng basis k =
  Array.init k (fun _ ->
      Randkit.Gaussian.vector rng (Polybasis.Basis.dim basis))

let eval_suite =
  [
    qtest ~count:200 "compiled tape bitwise == predict_point" arbitrary_model
      (fun (model, basis, seed) ->
        let tape = Serve.Eval.compile model basis in
        let rng = Randkit.Prng.create seed in
        let pts = random_points rng basis 20 in
        Array.for_all
          (fun p ->
            Serve.Eval.eval_point tape p = Rsm.Model.predict_point model basis p)
          pts);
    case "eval_batch bitwise == scalar, any point count" (fun () ->
        (* Tapes of degree 0 (constant-only) to 5 over every term of a
           total-degree basis, plus the empty model; 0–9 points (every
           4-point group and tail) and a few hundred, sequential and over
           pools whose chunk edges fall off the 4-point grid. *)
        let g = Randkit.Prng.create 5 in
        let models =
          (let basis = Polybasis.Basis.total_degree 3 5 in
           ( Rsm.Model.make
               ~basis_size:(Polybasis.Basis.size basis)
               ~support:[||] ~coeffs:[||],
             basis,
             0 ))
          :: List.init 6 (fun d ->
                 let basis = Polybasis.Basis.total_degree 3 d in
                 let m = Polybasis.Basis.size basis in
                 let coeffs =
                   Array.init m (fun _ -> Randkit.Gaussian.sample g)
                 in
                 ( Rsm.Model.make ~basis_size:m ~support:(Array.init m Fun.id)
                     ~coeffs,
                   basis,
                   d ))
        in
        let bits = Array.map Int64.bits_of_float in
        List.iter
          (fun (model, basis, d) ->
            let tape = Serve.Eval.compile model basis in
            check_int "max degree" d (Serve.Eval.max_degree tape);
            let scratch = Serve.Eval.make_scratch tape in
            List.iter
              (fun n ->
                let pts =
                  Array.map
                    (Array.map (fun x -> 2. *. x))
                    (random_points g basis n)
                in
                let scalar =
                  bits (Array.map (Serve.Eval.eval_with tape scratch) pts)
                in
                let naive =
                  bits (Array.map (Rsm.Model.predict_point model basis) pts)
                in
                let what = Printf.sprintf "degree %d, %d points" d n in
                check_bool (what ^ ": scalar == naive") true (scalar = naive);
                check_bool what true
                  (bits (Serve.Eval.eval_batch tape pts) = scalar);
                List.iter
                  (fun domains ->
                    Parallel.Pool.with_pool ~domains (fun pool ->
                        check_bool
                          (Printf.sprintf "%s, %d domains" what domains)
                          true
                          (bits (Serve.Eval.eval_batch ~pool tape pts)
                          = scalar)))
                  [ 1; 2; 4 ])
              (List.init 10 Fun.id @ [ 301; 350 ]))
          models);
    qtest ~count:50 "eval_batch bitwise identical over a pool" arbitrary_model
      (fun (model, basis, seed) ->
        let tape = Serve.Eval.compile model basis in
        let rng = Randkit.Prng.create seed in
        let pts = random_points rng basis 50 in
        let seq = Serve.Eval.eval_batch tape pts in
        List.for_all
          (fun domains ->
            Parallel.Pool.with_pool ~domains (fun pool ->
                Serve.Eval.eval_batch ~pool tape pts = seq))
          [ 1; 2; 4 ]);
    case "empty model evaluates to 0 everywhere" (fun () ->
        let basis = Polybasis.Basis.quadratic 4 in
        let model =
          Rsm.Model.make
            ~basis_size:(Polybasis.Basis.size basis)
            ~support:[||] ~coeffs:[||]
        in
        let tape = Serve.Eval.compile model basis in
        check_int "nnz" 0 (Serve.Eval.nnz tape);
        check_int "vars" 0 (Serve.Eval.vars_touched tape);
        check_int "max degree" 0 (Serve.Eval.max_degree tape);
        let p = Array.make 4 1.5 in
        check_float "value" 0. (Serve.Eval.eval_point tape p);
        check_bool "batch" true
          (Serve.Eval.eval_batch tape [| p; p |] = [| 0.; 0. |]));
    case "degree-0 (constant-only) model" (fun () ->
        let basis = Polybasis.Basis.quadratic 3 in
        let model =
          Rsm.Model.make
            ~basis_size:(Polybasis.Basis.size basis)
            ~support:[| 0 |] ~coeffs:[| 2.5 |]
        in
        let tape = Serve.Eval.compile model basis in
        check_int "vars" 0 (Serve.Eval.vars_touched tape);
        check_int "tape length" 0 (Serve.Eval.tape_length tape);
        let pts = random_points (rng ()) basis 5 in
        Array.iter
          (fun p -> check_float "constant" 2.5 (Serve.Eval.eval_point tape p))
          pts;
        check_bool "batch" true
          (Serve.Eval.eval_batch tape pts = Array.make 5 2.5));
    case "compile rejects basis-size disagreement" (fun () ->
        let basis = Polybasis.Basis.quadratic 4 in
        let model =
          Rsm.Model.make ~basis_size:7 ~support:[| 1 |] ~coeffs:[| 1. |]
        in
        check_raises_invalid "wrong basis" (fun () ->
            Serve.Eval.compile model basis));
    case "eval rejects wrong point dimension" (fun () ->
        let basis = Polybasis.Basis.quadratic 4 in
        let model =
          Rsm.Model.make
            ~basis_size:(Polybasis.Basis.size basis)
            ~support:[| 1 |] ~coeffs:[| 1. |]
        in
        let tape = Serve.Eval.compile model basis in
        check_raises_invalid "short point" (fun () ->
            Serve.Eval.eval_point tape [| 1.; 2. |]));
  ]

(* A fixed mid-size model shared by the yield and load tests. *)
let fixture () =
  let basis = Polybasis.Basis.quadratic 10 in
  let m = Polybasis.Basis.size basis in
  let g = Randkit.Prng.create 99 in
  let support =
    Randkit.Sampling.subsample g (Array.init m Fun.id) 15
  in
  Array.sort compare support;
  let coeffs = Array.map (fun _ -> Randkit.Gaussian.sample g) support in
  let model = Rsm.Model.make ~basis_size:m ~support ~coeffs in
  (model, basis, Serve.Eval.compile model basis)

(* A tape over exactly 12 variables: the first 20 terms of a 12-factor
   quadratic basis (constant, linear, a few second-order). *)
let twelve_var_tape () =
  let basis = Polybasis.Basis.quadratic 12 in
  let support = Array.init 20 Fun.id in
  let coeffs = Array.map (fun j -> 1. /. float_of_int (j + 1)) support in
  let model =
    Rsm.Model.make ~basis_size:(Polybasis.Basis.size basis) ~support ~coeffs
  in
  Serve.Eval.compile model basis

let alloc_suite =
  [
    case "eval_with on a 12-variable tape boxes only its result" (fun () ->
        let tape = twelve_var_tape () in
        check_int "variables" 12 (Serve.Eval.vars_touched tape);
        let scratch = Serve.Eval.make_scratch tape in
        let dy = Randkit.Gaussian.vector (Randkit.Prng.create 3) 12 in
        (* The returned float is boxed (2 words); a recurrence called
           across a module boundary boxes each variable's value too,
           2 more words per variable. *)
        check_minor_words "eval_with, 12 variables" ~bound:8. (fun () ->
            ignore (Serve.Eval.eval_with tape scratch dy)));
    case "projected estimate allocates O(batches) words beyond its draws"
      (fun () ->
        let _, _, tape = fixture () in
        let spec = Rsm.Yield.spec_both ~lower:(-1.) ~upper:1. in
        let samples = 20_000 in
        (* The ziggurat's wedge and tail restarts box a few words each;
           [fill_at] over the estimate's own key and points allocates
           exactly those, and the stream may add only per-batch and
           per-call words on top, however many samples it draws. *)
        let key = Randkit.Counter.of_prng (Randkit.Prng.create 43) in
        let vars = Some (Serve.Eval.touched_vars tape) in
        let dy = Array.make (Serve.Eval.dim tape) 0. in
        let words = Bytes.create (8 * Serve.Eval.dim tape) in
        let draws () =
          for point = 0 to samples - 1 do
            Randkit.Ziggurat.fill_at key ~point ?vars ~words dy
          done
        in
        draws ();
        let w0 = Gc.minor_words () in
        draws ();
        let draw_words = Gc.minor_words () -. w0 in
        let batches =
          (samples + Serve.Stream.default_batch - 1)
          / Serve.Stream.default_batch
        in
        check_minor_words "projected estimate, 20000 samples"
          ~bound:(draw_words +. 300. +. (64. *. float_of_int batches))
          (fun () ->
            ignore
              (Serve.Stream.estimate ~samples ~sampler:Randkit.Gaussian.Ziggurat
                 tape (Randkit.Prng.create 43) spec)));
  ]

let yield_suite =
  [
    case "streamed estimate bitwise identical at 1/2/4 domains" (fun () ->
        let _, _, tape = fixture () in
        let spec = Rsm.Yield.spec_both ~lower:(-1.) ~upper:1. in
        let at domains =
          Parallel.Pool.with_pool ~domains (fun pool ->
              Serve.Stream.estimate ~pool ~batch:128 ~samples:3000 tape
                (Randkit.Prng.create 13) spec)
        in
        let e1 = at 1 in
        check_bool "2 domains" true (at 2 = e1);
        check_bool "4 domains" true (at 4 = e1);
        check_int "pass+fail=n" e1.Serve.Stream.samples 3000);
    case "streamed values bitwise identical at 1/2/4 domains" (fun () ->
        let _, _, tape = fixture () in
        let at domains =
          Parallel.Pool.with_pool ~domains (fun pool ->
              Serve.Stream.values ~pool ~batch:100 ~samples:1050 tape
                (Randkit.Prng.create 17))
        in
        let v1 = at 1 in
        check_bool "2 domains" true (at 2 = v1);
        check_bool "4 domains" true (at 4 = v1));
    case "counter-sampler stream is invariant to the batch size" (fun () ->
        let _, _, tape = fixture () in
        let spec = Rsm.Yield.spec_both ~lower:(-1.) ~upper:1. in
        let samples = 1003 in
        let run ?batch ~project domains =
          Parallel.Pool.with_pool ~domains (fun pool ->
              let sampler = Randkit.Gaussian.Ziggurat in
              ( Serve.Stream.estimate ~pool ?batch ~sampler ~project ~samples
                  tape (Randkit.Prng.create 29) spec,
                Serve.Stream.values ~pool ?batch ~sampler ~project ~samples
                  tape (Randkit.Prng.create 29) ))
        in
        let e0, v0 = run ~project:false 1 in
        let bits = Array.map Int64.bits_of_float in
        List.iter
          (fun batch ->
            let e1, _ = run ~batch ~project:false 1 in
            List.iter
              (fun (project, domains) ->
                let e, v = run ~batch ~project domains in
                let what =
                  Printf.sprintf "batch %d, project %b, %d domains" batch
                    project domains
                in
                (* The moments fold per-batch sums in batch order, so
                   only a fixed batch pins their last bit. *)
                check_bool (what ^ ": estimate") true (e = e1);
                check_bool (what ^ ": yield, se, pass") true
                  (e.Serve.Stream.pass = e0.Serve.Stream.pass
                  && Int64.bits_of_float e.Serve.Stream.yield
                     = Int64.bits_of_float e0.Serve.Stream.yield
                  && Int64.bits_of_float e.Serve.Stream.std_error
                     = Int64.bits_of_float e0.Serve.Stream.std_error);
                check_bool (what ^ ": values") true (bits v = bits v0))
              [ (false, 2); (false, 4); (true, 1); (true, 2); (true, 4) ])
          [ 1; 2; 3; 5; 7; 128 ]);
    case "polar and ziggurat estimates agree within sampling error"
      (fun () ->
        (* The two samplers draw different streams from different
           seeds: they must agree statistically, never bitwise. *)
        let _, _, tape = fixture () in
        let spec = Rsm.Yield.spec_both ~lower:(-2.) ~upper:2. in
        let e =
          Serve.Stream.estimate ~samples:20_000 tape (Randkit.Prng.create 19)
            spec
        in
        let z =
          Serve.Stream.estimate ~samples:20_000
            ~sampler:Randkit.Gaussian.Ziggurat tape (Randkit.Prng.create 23)
            spec
        in
        check_float ~eps:0.02 "yield" z.Serve.Stream.yield e.Serve.Stream.yield;
        check_bool "se sane" true
          (e.Serve.Stream.std_error > 0. && e.Serve.Stream.std_error < 0.02));
    case "estimate rejects bad arguments" (fun () ->
        let _, _, tape = fixture () in
        let spec = Rsm.Yield.spec_min 0. in
        check_raises_invalid "samples" (fun () ->
            Serve.Stream.estimate ~samples:0 tape (rng ()) spec);
        check_raises_invalid "batch" (fun () ->
            Serve.Stream.estimate ~batch:0 ~samples:10 tape (rng ()) spec));
  ]

(* A linear Hermite model of Gaussian factors is Gaussian; adding a
   quadratic term breaks normality — measurable via Jarque-Bera on the
   streamed model Monte Carlo. *)
let test_model_output_normality () =
  let jarque_bera xs =
    let n = float_of_int (Array.length xs) in
    let mu = Stat.Descriptive.mean xs in
    let central r =
      Array.fold_left (fun acc x -> acc +. ((x -. mu) ** float_of_int r)) 0. xs
      /. n
    in
    let m2 = central 2 in
    let skew = if m2 = 0. then 0. else central 3 /. (m2 ** 1.5) in
    let kurt = if m2 = 0. then 0. else (central 4 /. (m2 *. m2)) -. 3. in
    n /. 6. *. ((skew *. skew) +. (kurt *. kurt /. 4.))
  in
  let basis = Polybasis.Basis.quadratic 3 in
  let lin_idx =
    let rec go i =
      if Polybasis.Term.equal (Polybasis.Basis.term basis i) (Polybasis.Term.linear 0)
      then i
      else go (i + 1)
    in
    go 0
  in
  let sq_idx =
    let rec go i =
      if Polybasis.Term.equal (Polybasis.Basis.term basis i) (Polybasis.Term.square 1)
      then i
      else go (i + 1)
    in
    go 0
  in
  let linear =
    Rsm.Model.make ~basis_size:(Polybasis.Basis.size basis) ~support:[| lin_idx |]
      ~coeffs:[| 2. |]
  in
  let quad =
    Rsm.Model.make ~basis_size:(Polybasis.Basis.size basis)
      ~support:[| lin_idx; sq_idx |] ~coeffs:[| 1.; 1.5 |]
  in
  let g = rng () in
  let values m =
    Serve.Stream.values ~samples:20000 (Serve.Eval.compile m basis) g
  in
  let v_lin = values linear in
  let v_quad = values quad in
  check_bool "linear model output is Gaussian" true (jarque_bera v_lin < 8.);
  check_bool "quadratic model output is not" true (jarque_bera v_quad > 100.)

let load_suite =
  let save_tmp model name =
    let path = Filename.concat (Filename.get_temp_dir_name ()) name in
    Rsm.Serialize.save path model;
    path
  in
  let write_tmp name bytes =
    let path = Filename.concat (Filename.get_temp_dir_name ()) name in
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    path
  in
  let mismatch path expected actual =
    Printf.sprintf "digest mismatch for %s: expected %Lx, file content is %Lx"
      path expected actual
  in
  [
    case "load digests file bytes and compiles" (fun () ->
        let model, basis, _ = fixture () in
        let path = save_tmp model "serve_load.rsm" in
        (match Serve.Eval.load basis path with
        | Error e -> Alcotest.failf "load failed: %s" e
        | Ok l ->
            check_bool "digest of the file bytes" true
              (l.Serve.Eval.digest = Rsm.Serialize.digest model);
            check_bool "predicts" true
              (Serve.Eval.eval_point l.Serve.Eval.tape
                 (Array.make (Polybasis.Basis.dim basis) 0.5)
              = Rsm.Model.predict_point model basis
                  (Array.make (Polybasis.Basis.dim basis) 0.5)));
        Sys.remove path);
    case "load rejects a digest mismatch" (fun () ->
        let model, basis, _ = fixture () in
        let path = save_tmp model "serve_load_expect.rsm" in
        let good = Rsm.Serialize.digest model in
        (match Serve.Eval.load ~expect:1234L basis path with
        | Ok _ -> Alcotest.fail "expected a digest-mismatch rejection"
        | Error msg ->
            Alcotest.(check string) "mismatch message"
              (mismatch path 1234L good) msg);
        (match Serve.Eval.load ~expect:good basis path with
        | Ok l -> check_bool "digest echoed" true (l.Serve.Eval.digest = good)
        | Error e -> Alcotest.failf "pinned load failed: %s" e);
        Sys.remove path);
    case "load reports IO and parse failures as Error" (fun () ->
        let basis = Polybasis.Basis.quadratic 10 in
        (match Serve.Eval.load basis "/nonexistent/model.rsm" with
        | Ok _ -> Alcotest.fail "expected IO error"
        | Error _ -> ());
        let path = write_tmp "serve_load_bad.rsm" "not a model\n" in
        (match Serve.Eval.load basis path with
        | Ok _ -> Alcotest.fail "expected parse error"
        | Error _ -> ());
        Sys.remove path);
    case "load checks the digest before the parse" (fun () ->
        let basis = Polybasis.Basis.quadratic 10 in
        let bytes = "not a model\n" in
        let path = write_tmp "serve_load_order.rsm" bytes in
        let actual = Rsm.Serialize.digest_string bytes in
        let wrong = Int64.succ actual in
        (match Serve.Eval.load ~expect:wrong basis path with
        | Ok _ -> Alcotest.fail "expected a digest-mismatch rejection"
        | Error msg ->
            Alcotest.(check string) "mismatch, not a parse error"
              (mismatch path wrong actual) msg);
        (match Serve.Eval.load ~expect:actual basis path with
        | Ok _ -> Alcotest.fail "expected a parse error"
        | Error msg ->
            let parse_error =
              match Rsm.Serialize.of_string bytes with
              | Error e -> path ^ ": " ^ e
              | Ok _ -> Alcotest.fail "fixture parses"
            in
            Alcotest.(check string) "parse error" parse_error msg);
        Sys.remove path);
    case "load rejects a model of the wrong basis size" (fun () ->
        let model, _, _ = fixture () in
        let path = save_tmp model "serve_load_wrong_basis.rsm" in
        (match Serve.Eval.load (Polybasis.Basis.quadratic 3) path with
        | Ok _ -> Alcotest.fail "expected basis-size rejection"
        | Error _ -> ());
        Sys.remove path);
    case "digest is stable across serialize round-trips" (fun () ->
        let model, _, _ = fixture () in
        let d1 = Rsm.Serialize.digest model in
        match Rsm.Serialize.of_string (Rsm.Serialize.to_string model) with
        | Error e -> Alcotest.failf "round-trip failed: %s" e
        | Ok model' -> check_bool "same digest" true (Rsm.Serialize.digest model' = d1));
  ]

let suite =
  ( "serve",
    eval_suite @ alloc_suite @ yield_suite @ load_suite
    @ [
        slow_case "linear models are Gaussian, quadratic are not"
          test_model_output_normality;
      ] )
