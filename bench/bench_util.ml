(* Shared plumbing for the benchmark harness: experiment construction,
   design-matrix building, method dispatch with cost accounting, and
   plain-text table rendering. *)

open Linalg

let default_seed = 20090726 (* DAC 2009 conference date *)

(* --- text tables --- *)

let hrule widths =
  let parts = List.map (fun w -> String.make (w + 2) '-') widths in
  "+" ^ String.concat "+" parts ^ "+"

let render_row widths cells =
  let padded =
    List.map2
      (fun w c ->
        let pad = max 0 (w - String.length c) in
        " " ^ c ^ String.make pad ' ' ^ " ")
      widths cells
  in
  "|" ^ String.concat "|" padded ^ "|"

let print_table ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let widths =
    List.init ncols (fun j ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row j))) 0 all)
  in
  Printf.printf "\n== %s ==\n" title;
  print_endline (hrule widths);
  print_endline (render_row widths header);
  print_endline (hrule widths);
  List.iter (fun row -> print_endline (render_row widths row)) rows;
  print_endline (hrule widths)

(* The engine values' constructors return [result]; a bench builds
   only valid ones. *)
let ok = function Ok v -> v | Error e -> invalid_arg e

let walk_log ?every ?save ?resume () =
  ok (Rsm.Serialize.Checkpoint.log ?every ?save ?resume ())

let pct x = Printf.sprintf "%.2f%%" (100. *. x)

(* A paper gate's verdict: one line per failure, or one "ok" line;
   true when nothing failed. *)
let report_gate name = function
  | [] ->
      Printf.printf "%s gate: ok\n" name;
      true
  | failures ->
      List.iter (Printf.printf "%s gate failed: %s\n" name) failures;
      false

(* Process peak resident set (VmHWM) in MB, or -1 where /proc is
   unavailable. A lifetime high-water mark: read it right after the
   scenario whose footprint is being measured. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception _ -> -1.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> -1.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
              let rest = String.sub line 6 (String.length line - 6) in
              let fields =
                String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) rest)
                |> List.filter (fun s -> s <> "")
              in
              match fields with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some v -> v /. 1024.
                  | None -> -1.)
              | [] -> -1.
            end
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Median-of-[reps] wall clock of [f]: the right summary when each rep
   does identical work and a ratio of two of them is reported. *)
let median_of ~reps f =
  let ts =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare ts;
  ts.(reps / 2)

let secs x =
  if x >= 3600. then Printf.sprintf "%.1f h" (x /. 3600.)
  else if x >= 60. then Printf.sprintf "%.1f min" (x /. 60.)
  else Printf.sprintf "%.1f s" x

(* --- canonical speed summary --------------------------------------- *)

(* The commit of the checkout the bench runs in; git is asked only when
   the working directory is a checkout's root. *)
let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    match
      Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short"; "HEAD" |]
    with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let line = try input_line ic with End_of_file -> "unknown" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> line
        | _ -> "unknown")

(* The host stamp of a recorded measurement, as a JSON field:
   processors, compiler, commit and the domain count it ran on. *)
let stamp ~domains =
  Printf.sprintf
    "\"host\": {\"nproc\": %d, \"compiler\": \"ocaml %s\", \"commit\": %S, \
     \"domains\": %d}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ()) domains

(* BENCH_speed.json (repo root, tracked in git) records one scenario per
   line: `  "name": <single-line JSON object>`. Scenarios merge
   textually — a bench run replaces its own line and leaves the others —
   so no JSON parser is needed. *)
let summary_file = "BENCH_speed.json"

(* The scenarios currently in the bench suite, in file order. A merge
   drops any other key, so a renamed or retired scenario does not leave
   a stale entry behind forever. *)
let known_scenarios =
  [ "sweep"; "multi"; "speed"; "eval"; "bigm_sharded"; "robustness" ]

let update_summary ~scenario ~payload =
  if String.contains payload '\n' then
    invalid_arg "Bench_util.update_summary: payload must be a single line";
  let lines =
    match open_in summary_file with
    | exception _ -> []
    | ic ->
        let rec collect acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> collect (line :: acc)
        in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> collect [])
  in
  let entries =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if String.length line < 4 || line.[0] <> '"' then None
        else
          match String.index_from_opt line 1 '"' with
          | None -> None
          | Some close -> (
              let name = String.sub line 1 (close - 1) in
              let rest =
                String.sub line (close + 1) (String.length line - close - 1)
              in
              match String.index_opt rest ':' with
              | None -> None
              | Some c ->
                  let v =
                    String.trim
                      (String.sub rest (c + 1) (String.length rest - c - 1))
                  in
                  let v =
                    if String.length v > 0 && v.[String.length v - 1] = ','
                    then String.sub v 0 (String.length v - 1)
                    else v
                  in
                  if name = "" || v = "" then None else Some (name, v)))
      lines
  in
  let entries =
    List.filter (fun (n, _) -> List.mem n known_scenarios) entries
  in
  let entries =
    if List.mem_assoc scenario entries then
      List.map
        (fun (n, v) -> if n = scenario then (n, payload) else (n, v))
        entries
    else entries @ [ (scenario, payload) ]
  in
  let oc = open_out summary_file in
  output_string oc "{\n";
  List.iteri
    (fun i (n, v) ->
      output_string oc
        (Printf.sprintf "  %S: %s%s\n" n v
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  output_string oc "}\n";
  close_out oc

(* --- experiment plumbing --- *)

type prepared = {
  g_train : Mat.t;
  f_train : float array;
  g_test : Mat.t;
  f_test : float array;
  sim_cost : float;  (** accounted Spectre seconds for the training set *)
}

let prepare basis sim rng ~train ~test =
  let e = Circuit.Testbench.generate sim rng ~train ~test in
  {
    g_train = Polybasis.Design.matrix_rows basis e.Circuit.Testbench.train.Circuit.Simulator.points;
    f_train = e.Circuit.Testbench.train.Circuit.Simulator.values;
    g_test = Polybasis.Design.matrix_rows basis e.Circuit.Testbench.test.Circuit.Simulator.points;
    f_test = e.Circuit.Testbench.test.Circuit.Simulator.values;
    sim_cost = Circuit.Testbench.training_cost e;
  }

(* Prepared data reusing raw sample points for a second basis (used by the
   quadratic experiments, which share the simulation budget). *)
let prepare_two bases sim rng ~train ~test =
  let e = Circuit.Testbench.generate sim rng ~train ~test in
  List.map
    (fun basis ->
      {
        g_train =
          Polybasis.Design.matrix_rows basis
            e.Circuit.Testbench.train.Circuit.Simulator.points;
        f_train = e.Circuit.Testbench.train.Circuit.Simulator.values;
        g_test =
          Polybasis.Design.matrix_rows basis
            e.Circuit.Testbench.test.Circuit.Simulator.points;
        f_test = e.Circuit.Testbench.test.Circuit.Simulator.values;
        sim_cost = Circuit.Testbench.training_cost e;
      })
    bases

type outcome = {
  method_ : Rsm.Solver.method_;
  error : float;
  nnz : int;
  fit_seconds : float;
  sim_seconds : float;
}

(* Fit one method with cross-validated sparsity (the paper's flow) and
   measure wall-clock fitting cost, which includes the CV runs. *)
let run_method ?(train_sub = None) ?(max_lambda = 100) prep method_ =
  let g_train, f_train, sim_seconds =
    match train_sub with
    | None -> (prep.g_train, prep.f_train, prep.sim_cost)
    | Some k ->
        let idx = Array.init k (fun i -> i) in
        ( Mat.select_rows prep.g_train idx,
          Array.sub prep.f_train 0 k,
          prep.sim_cost *. float_of_int k /. float_of_int (Mat.rows prep.g_train) )
  in
  let rng = Randkit.Prng.create default_seed in
  let (model, fit_seconds) =
    Circuit.Testbench.timed (fun () ->
        if Rsm.Solver.needs_overdetermined method_ then
          Rsm.Ls.fit ~method_:Lstsq.Normal g_train f_train
        else Rsm.Solver.fit_cv ~max_lambda rng g_train f_train method_)
  in
  {
    method_;
    error = Rsm.Model.error_on model prep.g_test prep.f_test;
    nnz = Rsm.Model.nnz model;
    fit_seconds;
    sim_seconds;
  }

let cost_rows outcomes =
  List.map
    (fun o ->
      [
        Rsm.Solver.name o.method_;
        pct o.error;
        string_of_int o.nnz;
        secs o.sim_seconds;
        secs o.fit_seconds;
        secs (o.sim_seconds +. o.fit_seconds);
      ])
    outcomes

let cost_header =
  [ "method"; "test error"; "bases used"; "sim cost"; "fit cost"; "total" ]

let speedup_line outcomes =
  match
    ( List.find_opt (fun o -> o.method_ = Rsm.Solver.Ls) outcomes,
      List.find_opt (fun o -> o.method_ = Rsm.Solver.Omp) outcomes )
  with
  | Some ls, Some omp ->
      let s =
        (ls.sim_seconds +. ls.fit_seconds) /. (omp.sim_seconds +. omp.fit_seconds)
      in
      Printf.printf "OMP speedup over LS (total cost): %.1fx\n" s
  | _ -> ()
