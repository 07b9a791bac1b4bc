(* End-to-end benchmark entry point.

   [main.exe --workload W --seed N --seconds S --trace 0|1] runs one
   workload in this process. Untraced (the default) it sets the
   workload up several times, warms up once, times whole flows for S
   seconds and reports the end-to-end metrics; traced it reruns the
   flow stage by stage under spans, writes a Chrome trace and reports
   the per-layer metrics. Either way the last line of standard output
   is one JSON object with [correct], [attempted], [failed] and
   [metrics], whose names and units come from BENCHMARK.json.

   [main.exe compare OLD NEW] compares two directories of untraced
   reports against the bounds in BENCHMARK.json. *)

let default_seed = 20090726 (* DAC 2009 conference date *)
let out_dir = Filename.concat "e2ebench" "out"
let spec_file = "BENCHMARK.json"
let setup_reps = 5

type metric_spec = { name : string; unit_ : string; better : string; bound : float }

let metric_specs key =
  List.map
    (fun m ->
      {
        name = (match Json.member "name" m with Json.Str s -> s | _ -> "");
        unit_ = (match Json.member "unit" m with Json.Str s -> s | _ -> "");
        better = (match Json.member "better" m with Json.Str s -> s | _ -> "lower");
        bound = (match Json.member "bound" m with Json.Null -> 0. | v -> Json.to_float v);
      })
    (match Json.member key (Json.read_file spec_file) with Json.Arr l -> l | _ -> [])

let median xs = (Measure.summarize (Array.of_list xs)).Measure.median

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* --- run stamp ------------------------------------------------------ *)

(* Only asks git when the working directory is itself a checkout's
   root, so a run outside a repository never looks above it. *)
let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
        let line = try input_line ic with End_of_file -> "unknown" in
        (match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> "unknown")

let stamp (w : Workloads.t) ~seed ~seconds ~quick ~trace ~reps =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (commit ()));
      ("workload_domains", Json.Int w.domains);
      ("effective_domains", Json.Int (Parallel.Pool.default_domains ()));
      ("seed", Json.Int seed);
      ("seconds", Json.Num seconds);
      ("reps", Json.Int reps);
      ("quick", Json.Bool quick);
      ("trace", Json.Bool trace);
    ]

(* --- one run ---------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable checks : (string * bool) list }

let check t name ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1;
  t.checks <- (name, ok) :: t.checks;
  Printf.eprintf "[%s] %s\n%!" (if ok then "ok" else "FAIL") name

(* Times [flow] for [seconds] after one warm-up, counting raised flows
   as failed operations and checking every result's digest against the
   first one. Returns the measured run and the first result. *)
let timed_flows t ~min_reps ~seconds ~flow ~digest =
  let first = ref None and mismatches = ref 0 and flows = ref 0 and raised = ref 0 in
  let run =
    Measure.repeat ~min_reps ~seconds
      ~after:(fun r ->
        incr flows;
        match (r, !first) with
        | Error e, _ ->
            incr raised;
            Printf.eprintf "flow failed: %s\n%!" e
        | Ok r, None -> first := Some (r, digest r)
        | Ok r, Some (_, d) -> if digest r <> d then incr mismatches)
      (fun () -> match flow () with r -> Ok r | exception e -> Error (Printexc.to_string e))
  in
  t.attempted <- t.attempted + !flows;
  t.failed <- t.failed + !raised;
  check t
    (Printf.sprintf "%d flows return identical outputs" !flows)
    (!mismatches = 0 && !first <> None);
  (run, Option.map fst !first, Option.map snd !first)

let result_line t metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (t.failed = 0));
         ("attempted", Json.Int t.attempted);
         ("failed", Json.Int t.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (s, v) -> (s.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str s.unit_) ]))
                metrics) );
       ])

let cpu_check t (w : Workloads.t) (run : Measure.run) =
  let ratio = run.cpu_s /. run.wall_s in
  check t
    (Printf.sprintf "CPU/wall %.2f within %d domain(s) + 0.25" ratio w.domains)
    (ratio <= float_of_int w.domains +. 0.25);
  ratio

(* One measured quantity of an untraced run, with all its samples. *)
type measured = { m_name : string; m_unit : string; samples : float array }

let measured_json m =
  let s = Measure.summarize m.samples in
  ( m.m_name,
    Json.Obj
      [
        ("unit", Json.Str m.m_unit);
        ("median", Json.Num s.median);
        ("q1", Json.Num s.q1);
        ("q3", Json.Num s.q3);
        ("min", Json.Num s.lo);
        ("max", Json.Num s.hi);
        ("n", Json.Int s.n);
        ("samples", Json.Arr (List.map (fun x -> Json.Num x) (Array.to_list m.samples)));
      ] )

let untraced (w : Workloads.t) ~seed ~seconds ~quick =
  let t = { attempted = 0; failed = 0; checks = [] } in
  (* Each set-up starts after a full collection, with no earlier set-up
     still reachable, so every repetition does the same work. *)
  let setup_cpu = Array.make setup_reps 0. and setup_wall = Array.make setup_reps 0. in
  let prepared = ref None in
  for i = 0 to setup_reps - 1 do
    prepared := None;
    Gc.compact ();
    let c0 = Measure.cpu () and t0 = Measure.now () in
    prepared := Some (w.setup ~quick ~seed);
    setup_wall.(i) <- Measure.now () -. t0;
    setup_cpu.(i) <- Measure.cpu () -. c0
  done;
  let run, layers =
    match Option.get !prepared with
    | Workloads.Prepared p -> (
        let run, first, _ = timed_flows t ~min_reps:3 ~seconds ~flow:p.flow ~digest:p.digest in
        match first with
        | None -> (run, [])
        | Some r ->
            let counts, checks = p.inspect r in
            List.iter (fun (name, ok) -> check t name ok) checks;
            (run, counts))
  in
  let cpu_per_wall = cpu_check t w run in
  let measured =
    [
      { m_name = "setup_s"; m_unit = "s"; samples = setup_cpu };
      { m_name = "setup_wall_s"; m_unit = "s"; samples = setup_wall };
      { m_name = "flow_cpu_s"; m_unit = "s"; samples = run.cpu_times };
      { m_name = "flow_wall_s"; m_unit = "s"; samples = run.times };
      { m_name = "peak_rss_mb"; m_unit = "MB"; samples = [| Measure.peak_rss_mb () |] };
    ]
  in
  let metrics =
    List.map
      (fun s ->
        match List.find_opt (fun m -> m.m_name = s.name) measured with
        | Some m -> (s, (Measure.summarize m.samples).median)
        | None -> failwith ("no measurement for end-to-end metric " ^ s.name))
      (metric_specs "end_to_end")
  in
  ensure_out_dir ();
  let report = Filename.concat out_dir (Printf.sprintf "e2e_%s.json" w.name) in
  Json.write_file report
    (Json.Obj
       [
         ("workload", Json.Str w.name);
         ("stamp", stamp w ~seed ~seconds ~quick ~trace:false ~reps:run.summary.n);
         ("correct", Json.Bool (t.failed = 0));
         ("attempted", Json.Int t.attempted);
         ("failed", Json.Int t.failed);
         ( "checks",
           Json.Arr
             (List.rev_map (fun (n, ok) -> Json.Obj [ ("name", Json.Str n); ("ok", Json.Bool ok) ]) t.checks) );
         ("metrics", Json.Obj (List.map measured_json measured));
         ( "layers",
           Json.Obj
             (List.map (fun (n, v) -> (n, Json.Num v)) (("parallel.cpu_per_wall", cpu_per_wall) :: layers)) );
       ]);
  Printf.printf "%s  seed %d  %d domain(s)  %s\n" w.name seed w.domains
    (if quick then "quick" else "full");
  List.iter
    (fun m ->
      let s = Measure.summarize m.samples in
      Printf.printf "  %-14s %10.4f %-3s [%.4f, %.4f]  n=%d  spread %.1f%%\n" m.m_name s.median
        m.m_unit s.q1 s.q3 s.n (100. *. Measure.rel_spread s))
    measured;
  Printf.printf "  report         %s\n" report;
  (t, metrics)

let traced (w : Workloads.t) ~seed ~seconds ~quick =
  let t = { attempted = 0; failed = 0; checks = [] } in
  match Trace.span ~cat:"setup" "setup" (fun () -> w.setup ~quick ~seed) with
  | Workloads.Prepared p ->
  let run, _, flow_digest =
    timed_flows t ~min_reps:2 ~seconds:(seconds /. 2.) ~flow:p.flow ~digest:p.digest
  in
  let peak_rss_mb = Measure.peak_rss_mb () in
  let staged = ref [] in
  let _ =
    Measure.repeat ~warmup:0 ~min_reps:2 ~seconds:(seconds /. 4.)
      ~after:(fun r -> staged := r :: !staged)
      (fun () -> Trace.span ~cat:"flow" "flow" p.staged)
  in
  let last, _ = List.hd !staged in
  t.attempted <- t.attempted + List.length !staged;
  check t "staged flow is byte-identical to the pipeline flow"
    (Some (p.digest last) = flow_digest);
  let roots = List.filter (fun s -> s.Trace.name = "flow" && s.Trace.parent = 0) (Trace.spans ()) in
  let per_root f = median (List.map f roots) in
  let flow_wall = per_root Trace.dur in
  let stage_sum_frac =
    per_root (fun r ->
        List.fold_left (fun a c -> a +. Trace.dur c) 0. (Trace.children r.Trace.id) /. Trace.dur r)
  in
  check t
    (Printf.sprintf "stage spans cover %.1f%% of the traced flow (>= 95%%)" (100. *. stage_sum_frac))
    (stage_sum_frac >= 0.95 && stage_sum_frac <= 1.);
  let stage_names =
    [ "circuit.simulate"; "robust.screen"; "robust.point_screen"; "polybasis.design"; "rsm.cv_fit" ]
  in
  let stages =
    List.map (fun n -> (n ^ "_s", per_root (fun r -> Trace.child_total r.Trace.id n))) stage_names
  in
  let extras =
    match !staged with
    | [] -> []
    | (_, first) :: _ ->
        List.map (fun (n, _) -> (n, median (List.map (fun (_, e) -> List.assoc n e) !staged))) first
  in
  let counts, checks = p.inspect last in
  List.iter (fun (name, ok) -> check t name ok) checks;
  let cpu_per_wall = cpu_check t w run in
  let probes = Trace.span ~cat:"probe" "probes" (fun () -> p.probes last) in
  let mw x = x /. 1e6 in
  let values =
    stages @ extras @ counts @ probes
    @ [
        ("rsm.cv_share", List.assoc "rsm.cv_fit_s" stages /. flow_wall);
        ("parallel.cpu_per_wall", cpu_per_wall);
        ("runtime.peak_rss_mb", peak_rss_mb);
        ("runtime.minor_mwords", mw run.minor_words);
        ("runtime.major_mwords", mw run.major_words);
        ("runtime.major_collections", run.major_collections);
        ("trace.stage_sum_frac", stage_sum_frac);
        ("trace.overhead_frac", (flow_wall /. run.summary.median) -. 1.);
      ]
  in
  let specs = metric_specs "per_layer" in
  (* A layer the workload never calls reads 0; the list names them. *)
  let unexercised = List.filter (fun s -> not (List.mem_assoc s.name values)) specs in
  let metrics =
    List.map (fun s -> (s, Option.value (List.assoc_opt s.name values) ~default:0.)) specs
  in
  ensure_out_dir ();
  let trace_file = Filename.concat out_dir (Printf.sprintf "trace_%s.json" w.name) in
  Trace.write_chrome trace_file;
  let report = Filename.concat out_dir (Printf.sprintf "layers_%s.json" w.name) in
  Json.write_file report
    (Json.Obj
       [
         ("workload", Json.Str w.name);
         ("stamp", stamp w ~seed ~seconds ~quick ~trace:true ~reps:(List.length roots));
         ("correct", Json.Bool (t.failed = 0));
         ("untraced_flow_s", Json.Num run.summary.median);
         ("traced_flow_s", Json.Num flow_wall);
         ("layers", Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) values));
         ("unexercised", Json.Arr (List.map (fun s -> Json.Str s.name) unexercised));
       ]);
  Printf.printf "%s  seed %d  %d domain(s)  traced, %d staged flow(s)\n" w.name seed w.domains
    (List.length roots);
  List.iter (fun (s, v) -> Printf.printf "  %-32s %14.6g %s\n" s.name v s.unit_) metrics;
  Printf.printf "  trace        %s\n  report       %s\n" trace_file report;
  (t, metrics)

let run_one name seed seconds trace quick =
  let w = List.find (fun (w : Workloads.t) -> w.name = name) Workloads.all in
  Parallel.Pool.set_default_domains w.domains;
  let t, metrics =
    if trace then traced w ~seed ~seconds ~quick else untraced w ~seed ~seconds ~quick
  in
  Parallel.Pool.shutdown (Parallel.Pool.default ());
  print_endline (result_line t metrics)

(* --- compare ---------------------------------------------------------- *)

(* Verdict for one metric. A quartile range wider than the bound leaves
   the comparison unresolved, unless the samples do not overlap at all:
   every new sample better than every old one is ok, every one worse
   (by more than the bound at the median) is a regression. *)
let verdict (s : metric_spec) ~old_m ~new_m =
  let sign = if s.better = "higher" then -1. else 1. in
  let med m = Json.to_float (Json.member "median" m) in
  let samples m =
    match Json.member "samples" m with
    | Json.Arr l -> List.map Json.to_float l
    | _ -> [ med m ]
  in
  let rel_iqr m =
    match (Json.member "q1" m, Json.member "q3" m) with
    | Json.Null, _ | _, Json.Null -> 0.
    | q1, q3 -> (Json.to_float q3 -. Json.to_float q1) /. Float.abs (med m)
  in
  let worse = sign *. (med new_m -. med old_m) /. Float.abs (med old_m) in
  let spread = Float.max (rel_iqr old_m) (rel_iqr new_m) in
  let every p =
    List.for_all (fun n -> List.for_all (fun o -> p n o) (samples old_m)) (samples new_m)
  in
  let better a b = sign *. (a -. b) < 0. in
  if worse > s.bound && (spread <= s.bound || every (fun n o -> better o n)) then "regressed"
  else if spread > s.bound && not (every better) then "unresolved"
  else "ok"

let compare_dirs old_dir new_dir =
  let specs = metric_specs "end_to_end" in
  let regressed = ref false in
  let range m =
    match (Json.member "q1" m, Json.member "q3" m) with
    | Json.Null, _ | _, Json.Null -> "-"
    | q1, q3 -> Printf.sprintf "[%.4g, %.4g]" (Json.to_float q1) (Json.to_float q3)
  in
  Printf.printf "%-20s %-12s %12s %22s %12s %22s %7s  %s\n" "workload" "metric" "old" "old IQR"
    "new" "new IQR" "bound" "verdict";
  List.iter
    (fun (w : Workloads.t) ->
      let file d = Filename.concat d (Printf.sprintf "e2e_%s.json" w.name) in
      if Sys.file_exists (file old_dir) && Sys.file_exists (file new_dir) then begin
        let o = Json.member "metrics" (Json.read_file (file old_dir))
        and n = Json.member "metrics" (Json.read_file (file new_dir)) in
        List.iter
          (fun s ->
            let old_m = Json.member s.name o and new_m = Json.member s.name n in
            if old_m <> Json.Null && new_m <> Json.Null then begin
              let v = verdict s ~old_m ~new_m in
              if v = "regressed" then regressed := true;
              let med m = Json.to_float (Json.member "median" m) in
              Printf.printf "%-20s %-12s %12.5g %22s %12.5g %22s %6.0f%%  %s\n" w.name s.name
                (med old_m) (range old_m) (med new_m) (range new_m) (100. *. s.bound) v
            end)
          specs
      end)
    Workloads.all;
  if !regressed then exit 1

(* --- command line ------------------------------------------------------ *)

open Cmdliner

let workload =
  let names = List.map (fun (w : Workloads.t) -> (w.name, w.name)) Workloads.all in
  Arg.(required & opt (some (enum names)) None & info [ "workload" ] ~doc:"Workload to run.")

let seed = Arg.(value & opt int default_seed & info [ "seed" ] ~doc:"Seed of every input.")

let seconds =
  Arg.(value & opt float 20. & info [ "seconds" ] ~doc:"Seconds of timed flows.")

let trace =
  Arg.(
    value
    & opt (enum [ ("0", false); ("1", true) ]) false
    & info [ "trace" ] ~doc:"1: traced run reporting the per-layer metrics.")

let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Small problem sizes (smoke run).")

let e2e = Term.(const run_one $ workload $ seed $ seconds $ trace $ quick)

let dir n = Arg.(required & pos n (some dir) None & info [] ~docv:(if n = 0 then "OLD" else "NEW"))

let () =
  let info = Cmd.info "e2ebench" ~doc:"End-to-end benchmark of the rsm modeling flow." in
  let cmds =
    [
      Cmd.v (Cmd.info "e2e" ~doc:"Run one workload (the default command).") e2e;
      Cmd.v
        (Cmd.info "compare" ~doc:"Compare two directories of e2e reports; exit 1 on a regression.")
        Term.(const compare_dirs $ dir 0 $ dir 1);
    ]
  in
  exit (Cmd.eval (Cmd.group ~default:e2e info cmds))
