(* The determinism matrix: usage main.exe RSM_CLI (bin/rsm_cli.exe).

   A group is one fit or one yield estimate; its cells are the product
   of the engine axes it lists. Each cell runs in a directory of its
   own and must leave the files of the group's first cell (model
   files, walk log, CV cells) byte for byte, and print its report but
   for the lines that time the fit or name the engine or checkpoint. A
   model cell's "sweep engine" line must name the CV driver
   [Rsm.Select.fused_driver] picks.

   A --resume cell starts from the checkpoint files of the group's
   killed run: the first cell's command under --dense, SIGKILLed once a
   checkpoint file lands, which must leave fewer walk steps or grid
   cells than the first cell's and no model.

   Prints one line per group; exits 1 when a group fails. *)

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

type cell = {
  tag : string;
  flags : string list;
  env : string list;
  refuse : string option;  (** the cell must exit 2 with this on stderr *)
}

let v ?(env = []) ?refuse tag flags = { tag; flags = words flags; env; refuse }

let product axes =
  let cross a c =
    { a with tag = String.trim (a.tag ^ " " ^ c.tag); flags = a.flags @ c.flags;
      env = a.env @ c.env }
  in
  List.fold_right
    (fun axis cells -> List.concat_map (fun a -> List.map (cross a) cells) axis)
    axes [ v "" "" ]

let dense = v "dense" "--dense"
let mf = v "mf" "--matrix-free"
let design = [ dense; mf ]
let f = Printf.sprintf
let domains = List.map (fun d -> v (f "d%d" d) (f "--domains %d" d))
let s n = v (f "s%d" n) (if n = 1 then "" else f "--shards %d" n)
let p n = v (f "p%d" n) (f "--shards %d --shard-mode process" n)

(* Process shard 1 is SIGKILLed on its 2nd query; the parent respawns
   it and asks again. *)
let p_killed n =
  { (p n) with tag = f "p%d-killed" n; env = [ "RSM_SHARD_FAULT=1:2" ] }

let resume = [ v "fresh" ""; v "resumed" "--resume" ]

(* Another seed draws other samples of the same shape: the replayed
   walk's digest disagrees with the log. *)
let foreign =
  v ~refuse:"fit-vector digest mismatch" "seed 2" "--resume --seed 2"

type group = { name : string; base : string list; cells : cell list }

let group ?(extra = []) name base axes =
  { name; base = words base; cells = product axes @ extra }

let per ?extra methods name base axes =
  List.map
    (fun m -> group ?extra (name ^ "-" ^ m) (base ^ " --method " ^ m) axes)
    methods

let methods = [ "omp"; "star"; "lar"; "lasso" ]
let outputs = " --outputs gain,bandwidth,power,offset"
let offset = "model --circuit opamp --metric offset --test 100"
let long = offset ^ " --parasitics 4000 --samples 400 --max-lambda 100"
let sram = "model --circuit sram --samples 800 --test 200 --max-lambda 60"

let burst =
  " --method lar --burst-rate 0.02 --burst-len 15 --breaker-threshold 3 \
   --quorum 0.5 --screen-space both"

let groups ~served =
  let yields mode base =
    [ group (mode ^ "-polar") base [ domains [ 1; 2; 4 ] ];
      group (mode ^ "-polar-b7") (base ^ " --batch 7") [ domains [ 1; 2; 4 ] ];
      group (mode ^ "-ziggurat") (base ^ " --sampler ziggurat")
        [ [ v "b8192" ""; v "b7" "--batch 7" ];
          [ v "projected" ""; v "full" "--no-project" ];
          domains [ 1; 2; 4 ] ] ]
  in
  List.concat
    [ per methods "cv" (offset ^ " --samples 250 --max-lambda 10 --folds 4")
        [ design; domains [ 1; 2 ]; [ s 1; s 4; p 3; p_killed 3 ] ];
      (* Op-amp power picks λ below the cap of 60, so the fused
         driver's refit is read from its walk's prefix. *)
      per methods "refit"
        "model --circuit opamp --metric power --test 100 --samples 250 \
         --max-lambda 60 --folds 4"
        [ design; domains [ 1; 2 ]; [ s 1; s 4 ] ];
      per methods "outputs"
        ("model --circuit opamp --parasitics 30 --samples 200 --test 100 \
          --max-lambda 8" ^ outputs)
        [ design; domains [ 1; 2 ]; [ s 1; s 4; p 3 ] ];
      (* The per-job grid writes its 16 cells a walk apart, so the kill
         lands in a live grid. *)
      [ group "outputs-resume-lar"
          ("model --circuit opamp --samples 800 --test 100 --max-lambda 100 \
            --method lar --checkpoint ckpt" ^ outputs)
          [ design; resume ] ];
      (* Over M = 4051 bases a walk outlives its first log emission,
         and a per-job grid its first cell, by far. *)
      per ~extra:[ foreign ] methods "walk" (long ^ " --checkpoint ckpt")
        [ design; resume ];
      per methods "store" (long ^ " --folds 4 --checkpoint ckpt")
        [ design; resume ];
      (* The LAR step-length screen answers a step from a few of the
         SRAM's columns, the shards its sweeps and dots. Sharded
         matrix-free cells cost seconds here; the cv groups run them. *)
      per ~extra:[ mf ] [ "lar"; "lasso" ] "screen" sram
        [ [ dense ]; [ s 1; s 2; s 4; p 2; p 4 ] ];
      per ~extra:[ mf ] [ "lar"; "lasso" ] "screen-walk"
        (sram ^ " --checkpoint ckpt")
        [ [ dense ]; [ s 1; s 2; s 4; p 2; p 4; p_killed 4 ] ];
      (* Most correlation phases of this walk answer from carried
         bounds. *)
      [ group "carried-lar"
          "model --circuit opamp --samples 600 --method lar --max-lambda 60"
          [ design; [ s 1; s 2 ] ];
        group "burst" (offset ^ " --samples 300 --max-lambda 8" ^ burst)
          [ design; domains [ 1; 2; 4 ]; [ s 1; s 4 ] ];
        group "burst-walk"
          (offset ^ " --samples 800 --max-lambda 300 --checkpoint ckpt" ^ burst)
          [ design; resume ] ];
      yields "serve"
        ("yield --model " ^ served
       ^ " --lower=-30 --upper=30 --mc-samples 50000");
      yields "fit"
        "yield --circuit opamp --metric offset --samples 200 --max-lambda 8 \
         --lower=-30 --upper=30 --mc-samples 20000" ]

let ( // ) = Filename.concat
let files dir = List.sort compare (Array.to_list (Sys.readdir dir))
let read path = In_channel.with_open_bin path In_channel.input_all
let lines path = String.split_on_char '\n' (read path)
let is_ckpt f =
  String.starts_with ~prefix:"ckpt" f && not (Filename.check_suffix f ".tmp")

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let rec contains s sub =
  String.starts_with ~prefix:sub s
  || (s <> "" && contains (String.sub s 1 (String.length s - 1)) sub)

(* Start [cli args] in the existing directory [dir]; stdout and stderr
   go to [dir].out and [dir].err. *)
let spawn cli dir ?(env = []) args =
  let fd ext = Unix.openfile (dir ^ ext) [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let out = fd ".out" and err = fd ".err" in
  Unix.chdir dir;
  let env = Array.append (Array.of_list env) (Unix.environment ()) in
  let pid =
    Unix.create_process_env cli (Array.of_list (cli :: args)) env Unix.stdin
      out err
  in
  Unix.close out;
  Unix.close err;
  pid

let wait pid =
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1

(* Walk steps in a walk log, or cells in a CV store. *)
let progress dir =
  match List.filter is_ckpt (files dir) with
  | [ "ckpt" ] -> (
      match Rsm.Serialize.Checkpoint.load (dir // "ckpt") with
      | Ok c -> Array.length c.events
      | Error e -> fail "walk log of %s: %s" dir e)
  | cells -> List.length cells

(* Run [args] under --dense in [dir], SIGKILL it once a checkpoint file
   lands, check what it left, then drop every other surviving cell: a
   resume meets holes, not only a missing tail. *)
let kill cli dir ~first args =
  Unix.mkdir dir 0o755;
  let pid = spawn cli dir (args @ [ "--dense"; "--checkpoint-every"; "1" ]) in
  let rec poll n =
    if List.exists is_ckpt (files dir) then (
      Unix.kill pid Sys.sigkill;
      ignore (wait pid))
    else if n = 0 || fst (Unix.waitpid [ WNOHANG ] pid) <> 0 then
      fail "killed run: no checkpoint before it ended"
    else (Unix.sleepf 0.005; poll (n - 1))
  in
  poll 12_000;
  let left = progress dir and full = progress first in
  if List.exists (String.starts_with ~prefix:"model") (files dir) then
    fail "killed run wrote a model";
  if left >= full then fail "killed run holds %d of %d" left full;
  List.iteri
    (fun i f -> if i mod 2 = 1 then Sys.remove (dir // f))
    (List.filter (fun f -> f <> "ckpt" && is_ckpt f) (files dir));
  Printf.sprintf ", killed run held %d of %d" left full

let copy_ckpts src dst =
  List.iter
    (fun f ->
      Out_channel.with_open_bin (dst // f) (fun oc ->
          output_string oc (read (src // f))))
    (List.filter is_ckpt (files src))

(* The "sweep engine" line the CLI must print for [args]. *)
let driver_label args =
  let has f = List.mem f args in
  let rec shards = function
    | "--shards" :: n :: _ -> int_of_string n
    | _ :: r -> shards r
    | [] -> 1
  in
  let streamed = has "--matrix-free" in
  let fused = Rsm.Select.fused_driver ~streamed ~shards:(shards args) in
  "  sweep engine  : exact"
  ^
  if has "--outputs" then if fused then ", fused outputs" else ", per-job grid"
  else if has "--checkpoint" && not (has "--folds") then ""
  else if fused then ", fused CV"
  else ", per-fold CV"

(* The report lines that may differ between the cells of a group. *)
let varies line =
  List.exists
    (fun p -> String.starts_with ~prefix:("  " ^ p) line)
    [ "fitting cost"; "design engine"; "sweep engine"; "shard engine";
      "shard recovery"; "checkpoint"; "streamed"; "sampler" ]

let compare_cells (first, first_tag) (dir, tag) =
  let pair = Printf.sprintf "[%s] vs [%s]" first_tag tag in
  if files first <> files dir then
    fail "%s: files %s vs %s" pair
      (String.concat "," (files first))
      (String.concat "," (files dir));
  List.iter
    (fun f ->
      if read (first // f) <> read (dir // f) then fail "%s: %s differs" pair f)
    (files first);
  let report d = List.filter (fun l -> not (varies l)) (lines (d ^ ".out")) in
  let rec diff = function
    | a :: r, b :: r' when a = b -> diff (r, r')
    | [], [] -> ()
    | a, b ->
        let hd = function l :: _ -> l | [] -> "(end)" in
        fail "%s: report line %S vs %S" pair (hd a) (hd b)
  in
  diff (report first, report dir)

(* Run every cell of [g] under [root]; the note names the killed run. *)
let run_group cli root g =
  let gdir = root // g.name in
  Unix.mkdir gdir 0o755;
  let first = (gdir // "0", (List.hd g.cells).tag) in
  let killed = gdir // "killed" in
  let note = lazy (kill cli killed ~first:(fst first) g.base) in
  let model = List.hd g.base = "model" in
  List.iteri
    (fun i c ->
      let dir = gdir // string_of_int i in
      Unix.mkdir dir 0o755;
      if List.mem "--resume" c.flags then (
        ignore (Lazy.force note);
        copy_ckpts killed dir);
      let args =
        g.base @ c.flags @ if model then [ "--save-model"; "model" ] else []
      in
      let code = wait (spawn cli dir ~env:c.env args) in
      let out = lines (dir ^ ".out") and err = read (dir ^ ".err") in
      match c.refuse with
      | Some msg ->
          if code <> 2 || not (contains err msg) then
            fail "[%s]: exit %d, not 2 with %S" c.tag code msg
      | None ->
          if code <> 0 then fail "[%s]: exit %d: %s" c.tag code err;
          if model && not (List.mem (driver_label args) out) then
            fail "[%s]: no %S line" c.tag (driver_label args);
          let recovered = String.starts_with ~prefix:"  shard recovery" in
          if c.env <> [] && not (List.exists recovered out) then
            fail "[%s]: no shard recovery line" c.tag;
          if i > 0 then compare_cells first (dir, c.tag))
    g.cells;
  if Lazy.is_val note then Lazy.force note else ""

(* One forked worker per group, as many at a time as the host has
   cores. *)
let () =
  let cli =
    match Sys.argv with
    | [| _; c |] -> if Filename.is_relative c then Sys.getcwd () // c else c
    | _ -> prerr_endline "usage: main.exe RSM_CLI"; exit 2
  in
  let root = Filename.temp_dir "rsm-determinism" "" in
  let served = root // "served" in
  Unix.mkdir served 0o755;
  let fit = offset ^ " --samples 250 --max-lambda 10 --save-model model" in
  if wait (spawn cli served (words fit)) <> 0 then (
    prerr_endline ("the served model's fit failed: " ^ read (served ^ ".err"));
    exit 1);
  let t0 = Unix.gettimeofday () in
  let groups = groups ~served:(served // "model") in
  let live = ref 0 and failed = ref 0 in
  let reap () =
    decr live;
    if snd (Unix.wait ()) <> WEXITED 0 then incr failed
  in
  let report g =
    let t = Unix.gettimeofday () in
    match run_group cli root g with
    | note ->
        Printf.printf "ok    %-20s %3d cells %6.2f s%s\n%!" g.name
          (List.length g.cells) (Unix.gettimeofday () -. t) note;
        0
    | exception e ->
        let msg = match e with Fail m -> m | e -> Printexc.to_string e in
        Printf.printf "FAIL  %s: %s\n%!" g.name msg;
        1
  in
  List.iter
    (fun g ->
      if !live >= Domain.recommended_domain_count () then reap ();
      match Unix.fork () with 0 -> exit (report g) | _ -> incr live)
    groups;
  while !live > 0 do reap () done;
  Printf.printf "%d groups, %d failed, %.1f s\n" (List.length groups) !failed
    (Unix.gettimeofday () -. t0);
  if !failed > 0 then (Printf.printf "cells kept in %s\n" root; exit 1);
  ignore (Sys.command ("rm -rf " ^ Filename.quote root))
