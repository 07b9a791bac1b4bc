let to_string m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "rsm-model 1\n";
  (* Notes ride as comment lines: older parsers skip them, this one
     round-trips them. Newlines inside a note would break the framing. *)
  Array.iter
    (fun note ->
      let flat =
        String.map (function '\n' | '\r' -> ' ' | c -> c) note
      in
      Buffer.add_string buf ("#note " ^ flat ^ "\n"))
    (Model.notes m);
  Buffer.add_string buf (Printf.sprintf "basis_size %d\n" m.Model.basis_size);
  Buffer.add_string buf (Printf.sprintf "nnz %d\n" (Model.nnz m));
  Array.iteri
    (fun p j ->
      Buffer.add_string buf (Printf.sprintf "%d %.17g\n" j m.Model.coeffs.(p)))
    m.Model.support;
  Buffer.contents buf

let note_prefix = "#note "

let of_string s =
  let raw = String.split_on_char '\n' s |> List.map String.trim in
  let notes =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:note_prefix l then
          Some (String.sub l (String.length note_prefix)
                  (String.length l - String.length note_prefix))
        else None)
      raw
  in
  let lines =
    raw
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  match lines with
  | header :: rest when String.trim header = "rsm-model 1" -> (
      let parse_field name line =
        match String.split_on_char ' ' line with
        | [ key; v ] when key = name -> int_of_string_opt v
        | _ -> None
      in
      match rest with
      | size_line :: nnz_line :: coeff_lines -> (
          match
            (parse_field "basis_size" size_line, parse_field "nnz" nnz_line)
          with
          | Some basis_size, Some nnz ->
              if basis_size < 0 then Error "negative basis_size"
              else if List.length coeff_lines <> nnz then
                Error
                  (Printf.sprintf "expected %d coefficient lines, found %d" nnz
                     (List.length coeff_lines))
              else begin
                let parsed =
                  List.map
                    (fun line ->
                      match String.split_on_char ' ' line with
                      | [ idx; value ] -> (
                          match
                            (int_of_string_opt idx, float_of_string_opt value)
                          with
                          | Some i, Some v -> Ok (i, v)
                          | _ -> Error ("malformed coefficient line: " ^ line))
                      | _ -> Error ("malformed coefficient line: " ^ line))
                    coeff_lines
                in
                let rec collect acc = function
                  | [] -> Ok (List.rev acc)
                  | Ok x :: tl -> collect (x :: acc) tl
                  | Error e :: _ -> Error e
                in
                match collect [] parsed with
                | Error e -> Error e
                | Ok pairs -> (
                    let support = Array.of_list (List.map fst pairs) in
                    let coeffs = Array.of_list (List.map snd pairs) in
                    match Model.make ~basis_size ~support ~coeffs with
                    | m -> Ok (Model.with_notes m (Array.of_list notes))
                    | exception Invalid_argument e -> Error e)
              end
          | _ -> Error "missing basis_size or nnz header field")
      | _ -> Error "truncated header")
  | first :: _ -> Error ("unrecognized header: " ^ first)
  | [] -> Error "empty input"

(* Write-then-rename: a crash mid-write never leaves a partial file in
   place of the previous good one. Models and checkpoints both write
   through it; the close is checked, so a failed flush never renames. *)
let atomic_write path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc s;
      close_out oc);
  Sys.rename tmp path

let read_file path parse =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> parse (really_input_string ic (in_channel_length ic)))

let save path m = atomic_write path (to_string m)

let load path = read_file path of_string

(* FNV-1a 64: one byte step, shared by the model content digest and the
   checkpoints' state digests. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) 0x100000001b3L

(* The content digest a served model file is pinned by: over the
   serialized text instead of float bit patterns. *)
let digest_string s =
  String.fold_left (fun h c -> fnv_byte h (Char.code c)) fnv_offset s

let digest m = digest_string (to_string m)

let term_expression t =
  if Array.length t = 0 then ""
  else
    String.concat "*"
      (Array.to_list
         (Array.map
            (fun (v, d) ->
              match d with
              | 1 -> Printf.sprintf "y%d" v
              | 2 -> Printf.sprintf "((y%d^2 - 1)/sqrt2)" v
              | 3 -> Printf.sprintf "((y%d^3 - 3*y%d)/sqrt6)" v v
              | _ -> Printf.sprintf "He%d(y%d)" d v)
            t))

let to_expression m basis =
  if Polybasis.Basis.size basis <> m.Model.basis_size then
    invalid_arg "Serialize.to_expression: basis size disagrees with model";
  if Model.nnz m = 0 then "f = 0"
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf "f =";
    Array.iteri
      (fun p j ->
        let c = m.Model.coeffs.(p) in
        let term = Polybasis.Basis.term basis j in
        let sign = if c >= 0. then (if p = 0 then " " else " + ") else " - " in
        Buffer.add_string buf sign;
        Buffer.add_string buf (Printf.sprintf "%.6g" (Float.abs c));
        let e = term_expression term in
        if e <> "" then begin
          Buffer.add_char buf '*';
          Buffer.add_string buf e
        end)
      m.Model.support;
    Buffer.contents buf
  end


module Checkpoint = struct
  type event = { added : int; banned : int; dropped : int; gamma : float }

  type t = {
    solver : string;
    k : int;
    m : int;
    scale : float;
    active : int array;
    signs : int array;
    banned : int array;
    events : event array;
    notes : string array;
    mu_digest : int64;
    beta_digest : int64;
  }

  (* FNV-1a over the 8 little-endian bytes of each entry, the
     state-digest primitive of both records. *)
  let fnv_fold h bits =
    let h = ref h in
    for b = 0 to 7 do
      h :=
        fnv_byte !h
          (Int64.to_int
             (Int64.logand (Int64.shift_right_logical bits (8 * b)) 0xffL))
    done;
    !h

  let digest v =
    Array.fold_left (fun h x -> fnv_fold h (Int64.bits_of_float x)) fnv_offset v

  (* --- the one writer and the one line reader ---------------------- *)

  (* Each record is its header line, then one "<name> <value>" line per
     field; an empty value prints as the bare name. *)
  let render header fields =
    let buf = Buffer.create 512 in
    Buffer.add_string buf header;
    Buffer.add_char buf '\n';
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf name;
        if v <> "" then Buffer.add_char buf ' ';
        Buffer.add_string buf v;
        Buffer.add_char buf '\n')
      fields;
    Buffer.contents buf

  let int = string_of_int
  let float = Printf.sprintf "%.17g"
  let hex = Printf.sprintf "%Lx"
  let list conv a = String.concat " " (Array.to_list (Array.map conv a))
  let flat = String.map (function '\n' | '\r' -> ' ' | c -> c)

  (* Headers of the formats this reader replaced. Checkpoints are resume
     state, not archives: an old file is refused by name, never
     converted. *)
  let retired =
    [ "rsm-ckpt 1"; "rsm-ckpt 2"; "rsm-cv-ckpt 1"; "rsm-multi-ckpt 1" ]

  exception Malformed of string

  let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

  type cursor = { mutable lines : string list }

  (* The next line, which must be field [name]; [conv] parses its value. *)
  let field cur name conv =
    match cur.lines with
    | [] | [ "" ] -> malformed "truncated checkpoint: missing %s" name
    | line :: rest -> (
        cur.lines <- rest;
        let p = String.length name + 1 in
        let value =
          if line = name then Some ""
          else if String.starts_with ~prefix:(name ^ " ") line then
            Some (String.sub line p (String.length line - p))
          else None
        in
        match value with
        | None -> malformed "expected '%s <value>', got: %s" name line
        | Some v -> (
            match conv v with
            | Some x -> x
            | None -> malformed "malformed %s field: %s" name line))

  let items conv v =
    if v = "" then Some [||]
    else
      let parsed = List.map conv (String.split_on_char ' ' v) in
      if List.mem None parsed then None
      else Some (Array.of_list (List.map Option.get parsed))

  let read_int cur name = field cur name int_of_string_opt
  let read_float cur name = field cur name float_of_string_opt
  let read_hex cur name =
    field cur name (fun v -> Int64.of_string_opt ("0x" ^ v))
  let read_ints cur name = field cur name (items int_of_string_opt)

  (* [n] further records read by [one]; stops at the first missing line,
     so a corrupt count never allocates ahead of the file. *)
  let read_n cur what n one =
    if n < 0 then malformed "negative %s count" what;
    let acc = ref [] in
    for _ = 1 to n do
      acc := one cur :: !acc
    done;
    Array.of_list (List.rev !acc)

  (* A file parses only when its bytes are exactly what [to_string]
     writes for the record read, so every accepted file round-trips. *)
  let parse ~header ~to_string read s =
    match String.split_on_char '\n' s with
    | h :: lines when h = header -> (
        match read { lines } with
        | exception Malformed e -> Error e
        | c when to_string c = s -> Ok c
        | _ -> Error "non-canonical checkpoint bytes")
    | h :: _ when List.mem h retired ->
        Error
          (Printf.sprintf
             "checkpoint format '%s' is no longer read; rerun without --resume"
             h)
    | h :: _ -> Error ("unrecognized checkpoint header: " ^ h)
    | [] -> Error "empty checkpoint"

  (* --- the walk log ------------------------------------------------- *)

  let header = "rsm-ckpt 3"
  let solvers = [ "omp"; "star"; "lar"; "lasso" ]

  let to_string c =
    render header
      ([
         ("solver", c.solver);
         ("k", int c.k);
         ("m", int c.m);
         ("scale", float c.scale);
         ("active", list int c.active);
         ("signs", list int c.signs);
         ("banned", list int c.banned);
         ("nsteps", int (Array.length c.events));
       ]
      @ Array.to_list
          (Array.map
             (fun e ->
               ( "event",
                 Printf.sprintf "%d %d %d %s" e.added e.banned e.dropped
                   (float e.gamma) ))
             c.events)
      @ [ ("nnotes", int (Array.length c.notes)) ]
      @ Array.to_list (Array.map (fun n -> ("note", flat n)) c.notes)
      @ [ ("mu_digest", hex c.mu_digest); ("beta_digest", hex c.beta_digest) ])

  let read_event cur =
    field cur "event" (fun v ->
        match String.split_on_char ' ' v with
        | [ a; b; d; g ] -> (
            match
              ( int_of_string_opt a,
                int_of_string_opt b,
                int_of_string_opt d,
                float_of_string_opt g )
            with
            | Some added, Some banned, Some dropped, Some gamma ->
                Some { added; banned; dropped; gamma }
            | _ -> None)
        | _ -> None)

  let read_walk cur =
    let solver = field cur "solver" Option.some in
    let k = read_int cur "k" in
    let m = read_int cur "m" in
    let scale = read_float cur "scale" in
    let active = read_ints cur "active" in
    let signs = read_ints cur "signs" in
    let banned = read_ints cur "banned" in
    let events = read_n cur "step" (read_int cur "nsteps") read_event in
    let notes =
      read_n cur "note" (read_int cur "nnotes") (fun cur ->
          field cur "note" Option.some)
    in
    let mu_digest = read_hex cur "mu_digest" in
    let beta_digest = read_hex cur "beta_digest" in
    let column j = j >= 0 && j < m and event_column j = j >= -1 && j < m in
    if not (List.mem solver solvers) then malformed "unknown solver %s" solver;
    if k <= 0 || m <= 0 then malformed "non-positive problem shape";
    if not (Float.is_finite scale) then malformed "non-finite scale";
    if Array.length signs <> Array.length active then
      malformed "signs do not align with the active set";
    if not (Array.for_all column active && Array.for_all column banned) then
      malformed "column index out of range";
    if not (Array.for_all (fun s -> s = 1 || s = -1) signs) then
      malformed "signs must be +/-1";
    if
      not
        (Array.for_all
           (fun e ->
             event_column e.added && event_column e.banned
             && event_column e.dropped && Float.is_finite e.gamma)
           events)
    then malformed "event out of range or non-finite gamma";
    { solver; k; m; scale; active; signs; banned; events; notes; mu_digest;
      beta_digest }

  let of_string s = parse ~header ~to_string read_walk s
  let save path c = atomic_write path (to_string c)
  let load path = read_file path of_string

  (* --- the walk drivers' shared resume check and emission rule ------ *)

  let check_problem ~who ~solver ~k ~m c =
    if c.solver <> solver then
      invalid_arg
        (Printf.sprintf "%scheckpoint is for solver %s, not %s" who c.solver
           solver);
    if c.k <> k || c.m <> m then
      invalid_arg
        (Printf.sprintf "%scheckpoint shape %dx%d disagrees with problem %dx%d"
           who c.k c.m k m)

  let verify ~who ~expected got =
    let check ok msg = if not ok then invalid_arg (who ^ msg) in
    check (got.active = expected.active)
      "replayed active set disagrees with the checkpoint";
    check (got.banned = expected.banned)
      "replayed banned set disagrees with the checkpoint";
    check (got.notes = expected.notes)
      "replayed notes disagree with the checkpoint";
    check
      (got.mu_digest = expected.mu_digest)
      "fit-vector digest mismatch (different data or flags?)";
    check
      (got.beta_digest = expected.beta_digest)
      "coefficient digest mismatch (different data or flags?)";
    check (got.signs = expected.signs)
      "replayed correlation signs disagree with the checkpoint";
    check (got = expected) "replayed walk disagrees with the checkpoint"

  type log = { every : int; save : (t -> unit) option; resume : t option }

  let log ?(every = 0) ?save ?resume () =
    if every < 0 then Error "negative checkpoint interval"
    else Ok { every; save; resume }

  let emitter log ~start capture =
    let last = ref start in
    fun ~final n ->
      match log with
      | Some { every; save = Some cb; _ }
        when n > !last && (final || (every > 0 && n mod every = 0)) ->
          cb (capture ());
          last := n
      | _ -> ()

  (* --- the CV cell -------------------------------------------------- *)

  module Cell = struct
    type t = {
      output : int;
      outputs : int;
      fold : int;
      folds : int;
      n : int;
      max_lambda : int;
      plan_digest : int64;
      curve : float array;
    }

    let plan_digest v =
      Array.fold_left (fun h x -> fnv_fold h (Int64.of_int x)) fnv_offset v

    let file base ~outputs r q =
      if outputs = 1 then Printf.sprintf "%s.fold%d" base q
      else Printf.sprintf "%s.out%d.fold%d" base r q

    let header = "rsm-cv-ckpt 2"

    let to_string c =
      render header
        [
          ("output", int c.output);
          ("outputs", int c.outputs);
          ("fold", int c.fold);
          ("folds", int c.folds);
          ("n", int c.n);
          ("max_lambda", int c.max_lambda);
          ("plan_digest", hex c.plan_digest);
          ("curve", list float c.curve);
        ]

    let read cur =
      let output = read_int cur "output" in
      let outputs = read_int cur "outputs" in
      let fold = read_int cur "fold" in
      let folds = read_int cur "folds" in
      let n = read_int cur "n" in
      let max_lambda = read_int cur "max_lambda" in
      let plan_digest = read_hex cur "plan_digest" in
      let curve = field cur "curve" (items float_of_string_opt) in
      if outputs < 1 then malformed "non-positive output count";
      if output < 0 || output >= outputs then
        malformed "output index out of range";
      if folds < 2 then malformed "fewer than 2 folds";
      if fold < 0 || fold >= folds then malformed "fold index out of range";
      if n <= 0 then malformed "non-positive sample count";
      if max_lambda <= 0 then malformed "non-positive max_lambda";
      if Array.length curve <> max_lambda then
        malformed "curve has %d entries, expected %d" (Array.length curve)
          max_lambda;
      { output; outputs; fold; folds; n; max_lambda; plan_digest; curve }

    let of_string s = parse ~header ~to_string read s
    let save path c = atomic_write path (to_string c)
    let load path = read_file path of_string
  end
end
