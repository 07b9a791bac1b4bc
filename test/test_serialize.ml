open Test_util

let model () =
  Rsm.Model.make ~basis_size:21311 ~support:[| 0; 7; 20310; 21310 |]
    ~coeffs:[| 893.25; -1.5e-7; 0.3333333333333333; 2.7182818284590452 |]

let test_roundtrip_string () =
  let m = model () in
  match Rsm.Serialize.of_string (Rsm.Serialize.to_string m) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok m' ->
      check_int "basis size" m.Rsm.Model.basis_size m'.Rsm.Model.basis_size;
      Alcotest.(check (array int)) "support" m.Rsm.Model.support m'.Rsm.Model.support;
      check_vec ~eps:0. "coefficients bit-exact" m.Rsm.Model.coeffs
        m'.Rsm.Model.coeffs

let test_roundtrip_file () =
  let m = model () in
  let path = Filename.temp_file "rsm_model" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rsm.Serialize.save path m;
      match Rsm.Serialize.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok m' ->
          check_vec ~eps:0. "coefficients" m.Rsm.Model.coeffs m'.Rsm.Model.coeffs)

let test_empty_model () =
  let m = Rsm.Model.make ~basis_size:10 ~support:[||] ~coeffs:[||] in
  match Rsm.Serialize.of_string (Rsm.Serialize.to_string m) with
  | Ok m' -> check_int "nnz" 0 (Rsm.Model.nnz m')
  | Error e -> Alcotest.failf "empty model failed: %s" e

let expect_error name s =
  match Rsm.Serialize.of_string s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name

let test_rejects_garbage () =
  expect_error "empty" "";
  expect_error "bad header" "not-a-model\n";
  expect_error "wrong version" "rsm-model 2\nbasis_size 3\nnnz 0\n";
  expect_error "count mismatch" "rsm-model 1\nbasis_size 3\nnnz 2\n0 1.0\n";
  expect_error "index out of range" "rsm-model 1\nbasis_size 3\nnnz 1\n5 1.0\n";
  expect_error "duplicate index" "rsm-model 1\nbasis_size 5\nnnz 2\n1 1.0\n1 2.0\n";
  expect_error "bad float" "rsm-model 1\nbasis_size 3\nnnz 1\n0 abc\n"

let test_comments_ignored () =
  let s = "rsm-model 1\n# a comment\nbasis_size 4\nnnz 1\n# another\n2 1.5\n" in
  match Rsm.Serialize.of_string s with
  | Ok m -> check_float "value" 1.5 (Rsm.Model.coeff m 2)
  | Error e -> Alcotest.failf "comments broke parsing: %s" e

let test_predictions_survive_roundtrip () =
  let gen = Randkit.Prng.create 91 in
  let g = Randkit.Gaussian.matrix gen 40 25 in
  let f = Array.init 40 (fun i -> Linalg.Mat.get g i 3 -. (2. *. Linalg.Mat.get g i 11)) in
  let m = Rsm.Omp.fit g f ~lambda:2 in
  match Rsm.Serialize.of_string (Rsm.Serialize.to_string m) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok m' ->
      check_vec ~eps:0. "identical predictions"
        (Rsm.Model.predict_design m g)
        (Rsm.Model.predict_design m' g)

(* --- the atomic writer ------------------------------------------------ *)

let test_save_is_atomic () =
  (* The model goes through the write-then-rename every checkpoint uses:
     the bytes are [to_string]'s, and no temp file is left beside them. *)
  let m = Rsm.Model.add_note (model ()) "provenance note" in
  let path = Filename.temp_file "rsm_model" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rsm.Serialize.save path m;
      let ic = open_in_bin path in
      let bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_bool "file bytes are to_string" true
        (bytes = Rsm.Serialize.to_string m);
      check_bool "no temp file left" false (Sys.file_exists (path ^ ".tmp")))

(* --- reader round-trip and mutation fuzzing ---------------------------- *)

module Ckpt = Rsm.Serialize.Checkpoint
module Cell = Rsm.Serialize.Checkpoint.Cell

(* Printable notes, spaces included, so leading and trailing padding is
   exercised; the writer flattens newlines, so none are generated. *)
let gen_note =
  QCheck.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 12))

let gen_finite =
  QCheck.Gen.(map (fun x -> if Float.is_finite x then x else 0.5) float)

let gen_walk =
  let open QCheck.Gen in
  let* k = int_range 1 500 in
  let* m = int_range 1 40 in
  let col = int_range 0 (m - 1) and event_col = int_range (-1) (m - 1) in
  let* solver = oneofl [ "omp"; "star"; "lar"; "lasso" ] in
  let* scale = gen_finite in
  let* na = int_range 0 6 in
  let* active = array_repeat na col in
  let* signs = array_repeat na (oneofl [ 1; -1 ]) in
  let* banned = array_size (int_range 0 3) col in
  let* events =
    array_size (int_range 0 8)
      (let* added = event_col in
       let* banned = event_col in
       let* dropped = event_col in
       let* gamma = gen_finite in
       return { Ckpt.added; banned; dropped; gamma })
  in
  let* notes = array_size (int_range 0 3) gen_note in
  let* mu_digest = ui64 in
  let* beta_digest = ui64 in
  return
    { Ckpt.solver; k; m; scale; active; signs; banned; events; notes;
      mu_digest; beta_digest }

let gen_cell =
  let open QCheck.Gen in
  let* outputs = int_range 1 4 in
  let* output = int_range 0 (outputs - 1) in
  let* folds = int_range 2 6 in
  let* fold = int_range 0 (folds - 1) in
  let* n = int_range 1 1000 in
  let* max_lambda = int_range 1 8 in
  let* plan_digest = ui64 in
  let* curve = array_repeat max_lambda gen_finite in
  return
    { Cell.output; outputs; fold; folds; n; max_lambda; plan_digest; curve }

let gen_model =
  let open QCheck.Gen in
  let* basis_size = int_range 1 30 in
  let* mask = array_repeat basis_size bool in
  let support =
    Array.of_list
      (List.filter (fun j -> mask.(j)) (List.init basis_size Fun.id))
  in
  let* coeffs = array_repeat (Array.length support) gen_finite in
  let* notes = array_size (int_range 0 2) gen_note in
  return
    (Rsm.Model.with_notes
       (Rsm.Model.make ~basis_size ~support ~coeffs)
       notes)

(* Every mutant of a valid file: each line truncation, each line
   deleted or duplicated, and one bit of every byte flipped. *)
let mutants ~seed s =
  let lines = String.split_on_char '\n' s in
  let n = List.length lines in
  let join l = String.concat "\n" l in
  let rng = Random.State.make [| seed |] in
  List.concat
    [
      List.init n (fun i -> join (List.filteri (fun j _ -> j < i) lines));
      List.init n (fun i -> join (List.filteri (fun j _ -> j <> i) lines));
      List.init n (fun i ->
          let twice j l = if j = i then [ l; l ] else [ l ] in
          join (List.concat (List.mapi twice lines)));
      List.init (String.length s) (fun i ->
          String.mapi
            (fun j c ->
              if j = i then
                Char.chr (Char.code c lxor (1 lsl Random.State.int rng 8))
              else c)
            s);
    ]

(* A checkpoint reader accepts only the bytes its writer prints, so a
   mutant ends in [Error] or in a record that prints as the mutant. *)
let canonical_or_error ~to_string ~of_string mutant =
  match of_string mutant with
  | Error _ -> true
  | Ok c -> to_string c = mutant

let qfuzz name gen print prop =
  qtest ~count:60 name (QCheck.make ~print gen) prop

let test_padded_empty_walk () =
  let c =
    {
      Ckpt.solver = "lar";
      k = 5;
      m = 3;
      scale = 0.;
      active = [||];
      signs = [||];
      banned = [||];
      events = [||];
      notes = [| "  padded note  "; "" |];
      mu_digest = 0L;
      beta_digest = -1L;
    }
  in
  match Ckpt.of_string (Ckpt.to_string c) with
  | Ok c' -> check_bool "empty log and padded notes round-trip" true (c = c')
  | Error e -> Alcotest.failf "roundtrip: %s" e

let fuzz_cases =
  [
    case "walk log: empty event list and padded notes round-trip"
      test_padded_empty_walk;
    qfuzz "walk log round-trips" gen_walk Ckpt.to_string (fun c ->
        Ckpt.of_string (Ckpt.to_string c) = Ok c);
    qfuzz "cell round-trips" gen_cell Cell.to_string (fun c ->
        Cell.of_string (Cell.to_string c) = Ok c);
    qfuzz "walk log mutants: Error or canonical bytes" gen_walk Ckpt.to_string
      (fun c ->
        List.for_all
          (canonical_or_error ~to_string:Ckpt.to_string
             ~of_string:Ckpt.of_string)
          (mutants ~seed:c.Ckpt.k (Ckpt.to_string c)));
    qfuzz "cell mutants: Error or canonical bytes" gen_cell Cell.to_string
      (fun c ->
        List.for_all
          (canonical_or_error ~to_string:Cell.to_string
             ~of_string:Cell.of_string)
          (mutants ~seed:c.Cell.n (Cell.to_string c)));
    qfuzz "model mutants: Error or a record that re-serializes to itself"
      gen_model Rsm.Serialize.to_string (fun m ->
        let s = Rsm.Serialize.to_string m in
        List.for_all
          (fun mutant ->
            match Rsm.Serialize.of_string mutant with
            | Error _ -> true
            | Ok m' ->
                let s' = Rsm.Serialize.to_string m' in
                Result.map Rsm.Serialize.to_string (Rsm.Serialize.of_string s')
                = Ok s')
          (mutants ~seed:(String.length s) s));
  ]

(* --- expression export --- *)

let test_expression_linear () =
  let b = Polybasis.Basis.constant_linear 3 in
  let m =
    Rsm.Model.make ~basis_size:4 ~support:[| 0; 2 |] ~coeffs:[| 10.; -2.5 |]
  in
  Alcotest.(check string) "expression" "f = 10 - 2.5*y1"
    (Rsm.Serialize.to_expression m b)

let test_expression_quadratic () =
  let b = Polybasis.Basis.quadratic 2 in
  (* Find the y0^2 term index. *)
  let sq =
    let rec go i =
      if Polybasis.Term.equal (Polybasis.Basis.term b i) (Polybasis.Term.square 0)
      then i
      else go (i + 1)
    in
    go 0
  in
  let m = Rsm.Model.make ~basis_size:(Polybasis.Basis.size b) ~support:[| sq |] ~coeffs:[| 3. |] in
  Alcotest.(check string) "hermite spelled out" "f = 3*((y0^2 - 1)/sqrt2)"
    (Rsm.Serialize.to_expression m b)

let test_expression_empty () =
  let b = Polybasis.Basis.constant_linear 2 in
  let m = Rsm.Model.make ~basis_size:3 ~support:[||] ~coeffs:[||] in
  Alcotest.(check string) "zero model" "f = 0" (Rsm.Serialize.to_expression m b)

let suite =
  ( "serialize",
    [
      case "roundtrip via string" test_roundtrip_string;
      case "roundtrip via file" test_roundtrip_file;
      case "empty model" test_empty_model;
      case "rejects garbage" test_rejects_garbage;
      case "comments ignored" test_comments_ignored;
      case "predictions survive roundtrip" test_predictions_survive_roundtrip;
      case "save writes through a temp file and a rename" test_save_is_atomic;
    ]
    @ fuzz_cases )

(* The response-surface equation a model prints as. *)
let expression_suite =
  ( "serialize-equation",
    [
      case "expression: linear" test_expression_linear;
      case "expression: quadratic hermite" test_expression_quadratic;
      case "expression: empty" test_expression_empty;
    ] )
