(* Known-answer tests: digests of the exact bits the samplers and the
   compiled evaluator produce, pinned so that a change to how a stream
   is computed (state layout, fused loops, unboxed kernels) cannot
   change what it computes. Every value is printed exactly — int64
   words as [%Lx], floats as [%h] — and the pin is the MD5 of the
   printout. A pin only ever changes together with a deliberate,
   documented change of stream. *)

open Test_util

let digest f =
  let b = Buffer.create 65536 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned name expected f =
  case name (fun () -> Alcotest.(check string) name expected (digest f))

let floats b a = Array.iter (Printf.bprintf b "%h\n") a

(* --- Prng ------------------------------------------------------------- *)

let seeds = [ 0; 1; 42; 20260705; -5; max_int ]

let prng_stream b =
  let open Randkit in
  List.iter
    (fun seed ->
      let g = Prng.create seed in
      for _ = 1 to 64 do
        Printf.bprintf b "%Lx\n" (Prng.bits64 g)
      done;
      for _ = 1 to 64 do
        Printf.bprintf b "%h\n" (Prng.float g)
      done;
      List.iter
        (fun n ->
          for _ = 1 to 16 do
            Printf.bprintf b "%d\n" (Prng.int g n)
          done)
        [ 1; 7; 1_000_003; max_int ];
      for _ = 1 to 16 do
        Printf.bprintf b "%b\n" (Prng.bool g)
      done;
      Array.iter (Printf.bprintf b "%d\n") (Prng.permutation g 20);
      let child = Prng.split g in
      for _ = 1 to 16 do
        let c = Prng.bits64 child in
        Printf.bprintf b "%Lx %Lx\n" c (Prng.bits64 g)
      done;
      Array.iter
        (fun c ->
          for _ = 1 to 8 do
            Printf.bprintf b "%Lx\n" (Prng.bits64 c)
          done)
        (Prng.split_n g 3);
      let d = Prng.copy g in
      for _ = 1 to 8 do
        let x = Prng.bits64 g in
        Printf.bprintf b "%Lx %Lx\n" x (Prng.bits64 d)
      done)
    seeds

(* --- sequential normals ----------------------------------------------- *)

(* Odd and even lengths: the polar fill writes pairs, so an odd length
   drops the last pair's second variate. The generator's next word
   after each fill pins how much of the stream the fill consumed. *)
let gaussian_stream b =
  let open Randkit in
  let g = Prng.create 7 in
  List.iter
    (fun n ->
      let out = Array.make n Float.nan in
      Gaussian.fill g out;
      floats b out;
      Printf.bprintf b "%Lx\n" (Prng.bits64 g))
    [ 0; 1; 2; 7; 316; 1001 ];
  floats b (Gaussian.vector g 9);
  let u, v = Gaussian.sample2 g in
  Printf.bprintf b "%h %h %h\n" u v (Gaussian.sample g);
  Printf.bprintf b "%Lx\n" (Prng.bits64 g)

(* 10⁵ sequential ziggurat draws reach the wedge and the tail. *)
let ziggurat_stream b =
  let open Randkit in
  let g = Prng.create 8 in
  let out = Array.make 100_000 0. in
  Ziggurat.fill g out;
  floats b out;
  Printf.bprintf b "%h %Lx\n" (Ziggurat.sample g) (Prng.bits64 g)

(* --- counter-mode bits and normals ------------------------------------ *)

let counter_stream b =
  let open Randkit in
  List.iter
    (fun seed ->
      let key = Counter.create seed in
      Printf.bprintf b "%Lx\n" (Counter.key key);
      List.iter
        (fun p ->
          let pk = Counter.at key p in
          List.iter
            (fun coord ->
              List.iter
                (fun draw ->
                  Printf.bprintf b "%Lx %h\n"
                    (Counter.bits64 pk ~coord ~draw)
                    (Counter.float pk ~coord ~draw))
                [ 0; 1; 2; 7 ])
            [ 0; 1; 315; 100_000 ])
        [ 0; 1; 12_345; 1 lsl 40 ])
    [ 0; 1; 77 ];
  Printf.bprintf b "%Lx\n" (Counter.key (Counter.of_prng (Prng.create 3)))

(* Path classification from the first word of an address, on a table
   rebuilt from the published 256-layer constants: the fast path
   accepts [u·x_i < x_(i+1)]; otherwise layer 0 is the tail and any
   other layer the wedge test. *)
let zig_xtab =
  let r = 3.6541528853610088 and v = 4.92867323399707195e-3 in
  let pdf x = exp (-0.5 *. x *. x) in
  let x = Array.make 257 0. in
  x.(0) <- v /. pdf r;
  x.(1) <- r;
  for i = 2 to 255 do
    x.(i) <- sqrt (-2. *. log ((v /. x.(i - 1)) +. pdf x.(i - 1)))
  done;
  x

type path = Fast | Wedge | Tail

let first_word_path pk ~coord =
  let w = Randkit.Counter.bits64 pk ~coord ~draw:0 in
  let i = Int64.to_int (Int64.logand w 0xFFL) in
  let u = Int64.to_float (Int64.shift_right_logical w 11) *. 0x1.0p-53 in
  if u *. zig_xtab.(i) < zig_xtab.(i + 1) then Fast
  else if i = 0 then Tail
  else Wedge

let normal_at_addresses = (5_000, 40)

let normal_at_stream b =
  let open Randkit in
  let points, coords = normal_at_addresses in
  let key = Counter.create 2026 in
  let fast = ref 0 and wedge = ref 0 and tail = ref 0 and inside = ref 0 in
  for p = 0 to points - 1 do
    let pk = Counter.at key p in
    for coord = 0 to coords - 1 do
      let x = Ziggurat.normal_at pk ~coord in
      Printf.bprintf b "%h\n" x;
      match first_word_path pk ~coord with
      | Fast -> incr fast
      | Wedge -> incr wedge
      | Tail ->
          incr tail;
          if Float.abs x <= Ziggurat.tail_start then incr inside
    done
  done;
  check_int "tail values beyond r" 0 !inside;
  (* ~99% fast, ~1% wedge, ~3·10⁻⁴ tail: all three paths are pinned. *)
  check_bool "fast path taken" true (!fast > 190_000);
  check_bool "wedge path taken" true (!wedge > 100);
  check_bool "tail path taken" true (!tail > 10)

(* The bulk counter fill against the scalar draw on the same 2·10⁵
   addresses, so each path (fast, wedge restart, tail restart) is
   compared: over every coordinate, and over an unsorted subset of 12
   that leaves the rest of the buffer alone. *)
let test_fill_at_matches_normal_at () =
  let open Randkit in
  let points, coords = normal_at_addresses in
  let key = Counter.create 2026 in
  let bits = Array.map Int64.bits_of_float in
  let vars = [| 39; 3; 17; 0; 22; 8; 31; 12; 5; 27; 14; 36 |] in
  let words = Bytes.create (8 * coords) in
  let full = Array.make coords 0. and sub = Array.make coords Float.nan in
  let paths = Array.make 3 0 in
  for p = 0 to points - 1 do
    let pk = Counter.at key p in
    let expected = Array.init coords (fun coord -> Ziggurat.normal_at pk ~coord) in
    for coord = 0 to coords - 1 do
      let k =
        match first_word_path pk ~coord with Fast -> 0 | Wedge -> 1 | Tail -> 2
      in
      paths.(k) <- paths.(k) + 1
    done;
    Ziggurat.fill_at key ~point:p ~words full;
    if bits full <> bits expected then
      Alcotest.failf "point %d: fill_at differs from normal_at" p;
    Array.fill sub 0 coords Float.nan;
    Ziggurat.fill_at key ~point:p ~vars ~words sub;
    Array.iteri
      (fun c x ->
        let wanted = Array.mem c vars in
        if wanted && Int64.bits_of_float x <> Int64.bits_of_float expected.(c)
        then Alcotest.failf "point %d coord %d: ?vars fill differs" p c;
        if (not wanted) && not (Float.is_nan x) then
          Alcotest.failf "point %d coord %d: written outside ?vars" p c)
      sub
  done;
  check_bool "wedge and tail addresses compared" true
    (paths.(1) > 100 && paths.(2) > 10);
  check_raises_invalid "short words buffer" (fun () ->
      Ziggurat.fill_at key ~point:0 ~words:(Bytes.create 8) full)

(* --- streamed yield, Monte-Carlo values, compiled evaluation ---------- *)

(* A 40-dim quadratic basis and a 12-term model, as in the sampler
   tests, but a private copy: the pinned inputs must not move when
   those tests change their fixture. *)
let fixture () =
  let basis = Polybasis.Basis.quadratic 40 in
  let m = Polybasis.Basis.size basis in
  let g = Randkit.Prng.create 99 in
  let support = Randkit.Sampling.subsample g (Array.init m Fun.id) 12 in
  Array.sort compare support;
  let coeffs = Array.map (fun _ -> Randkit.Gaussian.sample g) support in
  let model = Rsm.Model.make ~basis_size:m ~support ~coeffs in
  (model, basis, Serve.Eval.compile model basis)

(* Degree up to 4 over 6 variables, so the Hermite recurrence runs
   several steps per variable. *)
let deep_fixture () =
  let basis = Polybasis.Basis.total_degree 6 4 in
  let m = Polybasis.Basis.size basis in
  let g = Randkit.Prng.create 98 in
  let support = Randkit.Sampling.subsample g (Array.init m Fun.id) 30 in
  Array.sort compare support;
  let coeffs = Array.map (fun _ -> Randkit.Gaussian.sample g) support in
  let model = Rsm.Model.make ~basis_size:m ~support ~coeffs in
  (model, basis, Serve.Eval.compile model basis)

let spec = Rsm.Yield.spec_both ~lower:(-1.5) ~upper:1.5

let estimate_stream b =
  let _, _, tape = fixture () in
  let run label ?batch ~sampler ?project () =
    let e =
      Serve.Stream.estimate ?batch ~sampler ?project ~samples:3_000 tape
        (Randkit.Prng.create 4) spec
    in
    Printf.bprintf b "%s: %h %h %d %d %h %h %d %d\n" label e.yield e.std_error
      e.pass e.samples e.mean e.std e.batches e.batch
  in
  List.iter
    (fun batch ->
      run "polar" ?batch ~sampler:Randkit.Gaussian.Polar ();
      run "projected" ?batch ~sampler:Randkit.Gaussian.Ziggurat ~project:true ();
      run "full" ?batch ~sampler:Randkit.Gaussian.Ziggurat ~project:false ())
    [ Some 100; None ];
  List.iter
    (fun (sampler, project) ->
      floats b
        (Serve.Stream.values ~batch:100 ~sampler ?project ~samples:500 tape
           (Randkit.Prng.create 5)))
    [
      (Randkit.Gaussian.Polar, None);
      (Randkit.Gaussian.Ziggurat, Some true);
      (Randkit.Gaussian.Ziggurat, Some false);
    ]

let eval_stream b =
  List.iter
    (fun (_, basis, tape) ->
      let g = Randkit.Prng.create 11 in
      let pts =
        Array.init 300 (fun _ ->
            Randkit.Gaussian.vector g (Polybasis.Basis.dim basis))
      in
      let scratch = Serve.Eval.make_scratch tape in
      floats b (Array.map (Serve.Eval.eval_with tape scratch) pts);
      floats b (Serve.Eval.eval_batch tape pts);
      floats b (Serve.Eval.eval_batch tape pts))
    [ fixture (); deep_fixture () ]

let suite =
  ( "known-answer",
    [
      pinned "prng: create/bits64/float/int/split/split_n/copy"
        "d71273f3f3abfcb981b295415de7915c" prng_stream;
      pinned "gaussian: fill at odd and even lengths"
        "72f79cf64c6ea79a7ce4eb789dac0e57" gaussian_stream;
      pinned "ziggurat: sequential fill" "4fe069b98840d99537d8ae511d9c085c"
        ziggurat_stream;
      pinned "counter: at/bits64/float" "5abc52d69ac9a5b87a9d3d7a07734688"
        counter_stream;
      pinned "ziggurat: normal_at over 2e5 addresses, every path"
        "f6e8095edb9eac859c180c4b54926252" normal_at_stream;
      case "ziggurat: fill_at == normal_at, with and without ?vars"
        test_fill_at_matches_normal_at;
      pinned "stream: estimate fields, polar/projected/full"
        "0297fbf1f96cd26c90b1fd38ecba0ed2" estimate_stream;
      pinned "eval: eval_with and eval_batch values"
        "e634f0b9382da5a97f765646cc8f3042" eval_stream;
    ] )
