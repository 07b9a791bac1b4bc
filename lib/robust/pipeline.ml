module Provider = Polybasis.Design.Provider

type screen_space = Response | Factor | Both

let screen_space_to_string = function
  | Response -> "response"
  | Factor -> "factor"
  | Both -> "both"

let screen_space_of_string s =
  match String.lowercase_ascii s with
  | "response" | "value" -> Some Response
  | "factor" | "point" -> Some Factor
  | "both" -> Some Both
  | _ -> None

let default_quorum = 0.9

type config = {
  method_ : Rsm.Solver.method_;
  folds : int;
  max_lambda : int;
  samples : int;
  screen : bool;
  screen_threshold : float;
  screen_space : screen_space;
  screen_confidence : float;
  faults : Circuit.Simulator.fault_plan;
  retry : Circuit.Simulator.retry_policy;
  adaptive : Retry.policy option;
  min_samples : int;
  quorum : float;
  streamed : bool;
  store : Rsm.Select.store option;
  sweep : Rsm.Corr_sweep.sweep;
  shards : Rsm.Shard_sweep.plan option;
  rescreen : bool;
}

let config ?(method_ = Rsm.Solver.Omp) ?(folds = 4) ?(max_lambda = 100)
    ?(samples = 1000) ?(screen = true)
    ?(screen_threshold = Screen.default_threshold)
    ?(screen_space = Response)
    ?(screen_confidence = Screen.default_confidence)
    ?(faults = Circuit.Simulator.no_faults)
    ?(retry = Circuit.Simulator.retry_policy ()) ?adaptive
    ?(min_samples = 30) ?(quorum = default_quorum)
    ?(streamed = false) ?store ?shards ?(rescreen = false) () =
  let fail fmt = Printf.ksprintf (fun m -> Error (Error.Invalid_input m)) fmt in
  if folds < 2 then fail "folds must be at least 2, got %d" folds
  else if max_lambda < 1 then fail "max_lambda must be positive, got %d" max_lambda
  else if samples < 1 then fail "samples must be positive, got %d" samples
  else if screen_threshold <= 0. then
    fail "screen threshold must be positive, got %g" screen_threshold
  else if not (screen_confidence > 0. && screen_confidence < 1.) then
    fail "screen confidence must lie in (0, 1), got %g" screen_confidence
  else if min_samples < 1 then
    fail "min_samples must be positive, got %d" min_samples
  else if min_samples > samples then
    fail "min_samples (%d) exceeds the requested sample count (%d)" min_samples
      samples
  else if not (quorum > 0. && quorum <= 1.) then
    fail "quorum must lie in (0, 1], got %g" quorum
  else if store <> None && not (Rsm.Solver.path_method method_) then
    fail "checkpointing supports the star, lar, lasso and omp methods only"
  else
    Ok
      {
        method_;
        folds;
        max_lambda;
        samples;
        screen;
        screen_threshold;
        screen_space;
        screen_confidence;
        faults;
        retry;
        adaptive;
        min_samples;
        quorum;
        streamed;
        store;
        sweep = Rsm.Corr_sweep.Exact;
        shards;
        rescreen;
      }

type outcome = {
  model : Rsm.Model.t;
  dataset : Circuit.Simulator.dataset;
  run_report : Circuit.Simulator.run_report;
  screen_report : Screen.report option;
  point_report : Screen.point_report option;
  adaptive_report : Retry.report option;
  cv_lambda : (int * int) option;
}

let ( let* ) = Result.bind

(* Residual rescreen after a warm-start fit: score each row's residual
   on the robust MAD scale and, when rows cross the threshold, repair
   the active-set normal equations by *down-dating* the Gram factor one
   dropped row at a time (O(d·p²), [Cholesky.Grow.downdate_row]) instead
   of refactorizing from the surviving rows (O(K·p² + p³)). The support
   is kept; only the coefficients move. If the down-dated factor loses
   positive definiteness — too few surviving rows, near-duplicate
   support columns — the refit falls back to a cold [Rsm.Refit] solve on
   the kept rows, which always succeeds (ridge rung). *)
let screen_refit ?(threshold = Screen.default_threshold) src f model =
  if threshold <= 0. then
    invalid_arg "Pipeline.screen_refit: threshold must be positive";
  let n = Provider.rows src in
  if Array.length f <> n then
    invalid_arg "Pipeline.screen_refit: response length mismatch";
  let support = model.Rsm.Model.support in
  let p = Array.length support in
  if p = 0 then (model, [||])
  else begin
    let pred = Rsm.Model.predict_p model src in
    let res = Array.init n (fun i -> f.(i) -. pred.(i)) in
    let med = Stat.Descriptive.median res in
    let dev = Array.map (fun r -> Float.abs (r -. med)) res in
    let sigma = Screen.mad_consistency *. Stat.Descriptive.median dev in
    let dropped = ref [] in
    if sigma > 0. then
      for i = n - 1 downto 0 do
        if Float.abs (res.(i) -. med) /. sigma > threshold then
          dropped := i :: !dropped
      done;
    let dropped = Array.of_list !dropped in
    let d = Array.length dropped in
    if d = 0 then (model, [||])
    else if n - d < p then
      (* Fewer surviving rows than support columns: no refit can be
         better-determined than the warm start — keep it, annotated. *)
      ( Rsm.Model.add_note model
          (Printf.sprintf
             "rescreen: %d of %d rows flagged, too few left for the %d-column \
              support; model kept"
             d n p),
        dropped )
    else begin
      let cols = Array.map (fun j -> Provider.column src j) support in
      let is_dropped = Array.make n false in
      Array.iter (fun i -> is_dropped.(i) <- true) dropped;
      let coeffs, how =
        match
          let g = Linalg.Cholesky.Grow.create p in
          let b = Array.make p 0. in
          for q = 0 to p - 1 do
            let v =
              Array.init q (fun a -> Linalg.Vec.dot cols.(a) cols.(q))
            in
            Linalg.Cholesky.Grow.append g v (Linalg.Vec.dot cols.(q) cols.(q));
            b.(q) <- Linalg.Vec.dot cols.(q) f
          done;
          Array.iter
            (fun i ->
              let x = Array.map (fun col -> col.(i)) cols in
              Linalg.Cholesky.Grow.downdate_row g x;
              Array.iteri
                (fun q col -> b.(q) <- b.(q) -. (f.(i) *. col.(i)))
                cols)
            dropped;
          Linalg.Cholesky.Grow.solve g b
        with
        | coeffs -> (coeffs, "gram downdate")
        | exception Linalg.Cholesky.Not_positive_definite _ ->
            (* Down-dated Gram went indefinite: cold LS on the kept rows
               through the fallback ladder (ridge rung never fails). *)
            let kept = ref [] in
            for i = n - 1 downto 0 do
              if not is_dropped.(i) then kept := i :: !kept
            done;
            let kept = Array.of_list !kept in
            let gather col = Array.map (fun i -> col.(i)) kept in
            let f_kept = gather f in
            let coeffs, rung =
              Rsm.Refit.solve_cols (Array.map gather cols) f_kept
            in
            ( coeffs,
              match Rsm.Refit.note rung with
              | None -> "cold refit"
              | Some note -> Printf.sprintf "cold refit, %s" note )
      in
      let refit =
        Rsm.Model.make ~basis_size:model.Rsm.Model.basis_size ~support
          ~coeffs
      in
      let refit =
        Array.fold_left Rsm.Model.add_note refit (Rsm.Model.notes model)
      in
      ( Rsm.Model.add_note refit
          (Printf.sprintf "rescreen: dropped %d of %d rows (%s)" d n how),
        dropped )
    end
  end

(* The provenance line a quorum-degraded fit carries on the model
   itself: what was lost, where, and under which outage windows. One
   line, because notes serialize as single [#note] lines. *)
let degraded_note ~requested ~survived ~quorum
    (run : Circuit.Simulator.run_report) =
  let delivery_lost = run.Circuit.Simulator.requested - run.delivered in
  let screened = run.delivered - survived in
  let burst =
    if run.burst_windows > 0 then
      Printf.sprintf "; %d burst window(s) over %d sample(s)"
        run.burst_windows run.burst_samples
    else ""
  in
  let breaker =
    if run.breaker_trips > 0 then
      Printf.sprintf "; %d breaker trip(s)" run.breaker_trips
    else ""
  in
  Printf.sprintf
    "degraded: kept %d of %d requested rows (%d lost in delivery, %d \
     screened) above quorum %g%%%s%s"
    survived requested delivery_lost screened (100. *. quorum) burst breaker

type hygiene = {
  run : Circuit.Simulator.run_report;
  adaptive : Retry.report option;
  screens : Screen.report option array;
  point : Screen.point_report option;
}

type delivery = {
  rows : Circuit.Simulator.dataset array;
  hygiene : hygiene;
  notes : string array;
  src : Provider.t;
}

(* A stage that returns its own typed verdict, with any raise caught. *)
let typed f = Result.join (Error.guard f)

(* Sub-datasets at [idx] that keep one physically shared point array. *)
let split_shared ds idx =
  let first = Circuit.Simulator.split ds.(0) idx in
  Array.map
    (fun d ->
      {
        (Circuit.Simulator.split d idx) with
        Circuit.Simulator.points = first.Circuit.Simulator.points;
      })
    ds

(* Intersect per-output kept sets: a row survives only when every
   output's screen kept it, so all outputs keep one shared row set —
   and hence one design matrix. [kepts] are ascending index arrays in
   the same (delivered-row) index space. *)
let intersect_kept ~n kepts =
  let count = Array.make n 0 in
  Array.iter (Array.iter (fun i -> count.(i) <- count.(i) + 1)) kepts;
  let r = Array.length kepts in
  let shared = ref [] in
  for i = n - 1 downto 0 do
    if count.(i) = r then shared := i :: !shared
  done;
  Array.of_list !shared

let deliver ~pool (cfg : config) sims basis rng =
  let outputs = Array.length sims in
  if outputs = 0 then
    Error (Error.Invalid_input "deliver: at least one simulator required")
  else if cfg.adaptive <> None && outputs > 1 then
    Error
      (Error.Config
         "adaptive retry is not available for multi-output fits: the breaker \
          driver owns the per-sample retry loop of a single simulator; use \
          the fixed retry policy or fit each output separately")
  else
    let* rows, run, adaptive =
      Error.guard (fun () ->
          match cfg.adaptive with
          | None ->
              let ds, r =
                Circuit.Simulator.run_robust_multi ?pool ~faults:cfg.faults
                  ~retry:cfg.retry sims rng ~k:cfg.samples
              in
              (ds, r, None)
          | Some policy ->
              let d, r =
                Retry.run ?pool ~faults:cfg.faults policy sims.(0) rng
                  ~k:cfg.samples
              in
              ([| d |], r.Retry.run, Some r))
    in
    let screen_response =
      cfg.screen
      && match cfg.screen_space with Response | Both -> true | Factor -> false
    in
    let screen_factor =
      cfg.screen
      && match cfg.screen_space with Factor | Both -> true | Response -> false
    in
    let* rows, screens =
      if not screen_response then Ok (rows, Array.make outputs None)
      else
        (* Each output is screened on its own center/spread (a gain
           outlier says nothing about the power scale), then the kept
           sets are intersected so the surviving rows are shared. With
           one output the intersection is that output's kept set. *)
        let rec screen_all r acc =
          if r = outputs then Ok (Array.of_list (List.rev acc))
          else
            let* _, rep =
              typed (fun () ->
                  Screen.screen ~threshold:cfg.screen_threshold rows.(r))
            in
            screen_all (r + 1) (rep :: acc)
        in
        let* reports = screen_all 0 [] in
        let n = Circuit.Simulator.dataset_size rows.(0) in
        Ok
          ( split_shared rows
              (intersect_kept ~n (Array.map (fun r -> r.Screen.kept) reports)),
            Array.map Option.some reports )
    in
    let* rows, point =
      if not screen_factor then Ok (rows, None)
      else
        (* The factor points are shared across outputs, so the point
           screen runs once and its verdict is applied to every output. *)
        let* _, rep =
          typed (fun () ->
              Screen.mahalanobis ~confidence:cfg.screen_confidence rows.(0))
        in
        Ok (split_shared rows rep.Screen.p_kept, Some rep)
    in
    let n = Circuit.Simulator.dataset_size rows.(0) in
    let quorum_floor =
      int_of_float (Float.ceil (cfg.quorum *. float_of_int cfg.samples))
    in
    if n < cfg.min_samples then
      Error
        (Error.Simulation
           (Printf.sprintf
              "only %d of %d requested samples survived delivery and \
               screening (minimum %d); raise the sample count, the retry \
               budget, or the screen threshold"
              n cfg.samples cfg.min_samples))
    else if n < quorum_floor then
      Error
        (Error.Simulation
           (Printf.sprintf
              "quorum lost: only %d of %d requested samples survived \
               delivery and screening, below the %g%% quorum (%d); raise the \
               sample count or the retry budget, or lower --quorum to accept \
               a degraded fit"
              n cfg.samples (100. *. cfg.quorum) quorum_floor))
    else
      let notes =
        if n >= cfg.samples then [||]
        else
          [|
            degraded_note ~requested:cfg.samples ~survived:n ~quorum:cfg.quorum
              run;
          |]
      in
      let* src =
        Error.guard (fun () ->
            let pts = rows.(0).Circuit.Simulator.points in
            if cfg.streamed then Provider.streamed basis pts
            else Provider.dense (Polybasis.Design.matrix_rows ?pool basis pts))
      in
      Ok { rows; hygiene = { run; adaptive; screens; point }; notes; src }

let post_fit cfg d models =
  Error.guard (fun () ->
      Array.mapi
        (fun r model ->
          let model = Array.fold_left Rsm.Model.add_note model d.notes in
          if not cfg.rescreen then model
          else
            fst
              (screen_refit ~threshold:cfg.screen_threshold d.src
                 d.rows.(r).Circuit.Simulator.values model))
        models)

(* The solver stage of both fits: one cross-validated grid over every
   delivered output, then the post-fit stage. *)
let solve cfg d rng =
  let* sels =
    Error.guard (fun () ->
        Rsm.Solver.select_multi_p ~folds:cfg.folds ~max_lambda:cfg.max_lambda
          ~on_singular:`Fallback ?shards:cfg.shards
          ?store:cfg.store rng d.src
          (Array.map (fun r -> r.Circuit.Simulator.values) d.rows)
          cfg.method_)
  in
  let* models =
    post_fit cfg d (Array.map (fun s -> s.Rsm.Solver.model) sels)
  in
  Ok (models, Array.map (fun s -> s.Rsm.Solver.lambda) sels)

let fit ?pool cfg sim basis rng =
  let* d = deliver ~pool cfg [| sim |] basis rng in
  let* models, lambdas = solve cfg d rng in
  Ok
    {
      model = models.(0);
      dataset = d.rows.(0);
      run_report = d.hygiene.run;
      screen_report = d.hygiene.screens.(0);
      point_report = d.hygiene.point;
      adaptive_report = d.hygiene.adaptive;
      cv_lambda = lambdas.(0);
    }

type multi_outcome = {
  models : Rsm.Model.t array;
  datasets : Circuit.Simulator.dataset array;
  m_run_report : Circuit.Simulator.run_report;
  screen_reports : Screen.report option array;
  m_point_report : Screen.point_report option;
  cv_lambdas : (int * int) option array;
}

let fit_multi ?pool cfg sims basis rng =
  let* d = deliver ~pool cfg sims basis rng in
  let* models, cv_lambdas = solve cfg d rng in
  Ok
    {
      models;
      datasets = d.rows;
      m_run_report = d.hygiene.run;
      screen_reports = d.hygiene.screens;
      m_point_report = d.hygiene.point;
      cv_lambdas;
    }

let outcome_hygiene o =
  {
    run = o.run_report;
    adaptive = o.adaptive_report;
    screens = [| o.screen_report |];
    point = o.point_report;
  }

let multi_hygiene o =
  {
    run = o.m_run_report;
    adaptive = None;
    screens = o.screen_reports;
    point = o.m_point_report;
  }

let hygiene_lines ~names h =
  let adaptive =
    match h.adaptive with
    | None -> []
    | Some r ->
        [
          Printf.sprintf
            "adaptive retry: %d event(s), %d retr%s granted, %d denied"
            (Array.length r.Retry.events)
            r.Retry.retries_granted
            (if r.Retry.retries_granted = 1 then "y" else "ies")
            r.Retry.retries_denied;
        ]
  in
  let label r line = if names = [||] then line else names.(r) ^ " " ^ line in
  let screens =
    List.filter_map Fun.id
      (List.mapi
         (fun r rep ->
           Option.map (fun rep -> label r (Screen.report_summary rep)) rep)
         (Array.to_list h.screens))
    @ Option.to_list (Option.map Screen.point_report_summary h.point)
  in
  (Circuit.Simulator.report_summary h.run :: adaptive)
  @ if screens = [] then [ "screen: off" ] else screens

let outcome_summary o =
  String.concat "\n"
    (hygiene_lines ~names:[||] (outcome_hygiene o)
    @ Printf.sprintf "model: %d bases selected from %d rows"
        (Rsm.Model.nnz o.model)
        (Circuit.Simulator.dataset_size o.dataset)
      :: Array.to_list
           (Array.map (Printf.sprintf "note: %s") (Rsm.Model.notes o.model)))

let multi_outcome_summary ?names o =
  let outputs = Array.length o.models in
  let names =
    match names with
    | Some ns when Array.length ns = outputs -> ns
    | _ -> Array.init outputs (Printf.sprintf "output %d")
  in
  let rows = Circuit.Simulator.dataset_size o.datasets.(0) in
  String.concat "\n"
    (hygiene_lines ~names (multi_hygiene o)
    @ List.concat
        (Array.to_list
           (Array.mapi
              (fun r m ->
                Printf.sprintf "%s: %d bases selected from %d rows" names.(r)
                  (Rsm.Model.nnz m) rows
                :: Array.to_list
                     (Array.map
                        (Printf.sprintf "%s note: %s" names.(r))
                        (Rsm.Model.notes m)))
              o.models)))
