module Provider = Polybasis.Design.Provider

type result = { model : Model.t; lambda : int; curve : float array }

(* Held-out error curve of a fitted fold path — shared verbatim by the
   per-job and fused drivers so their curves come from the same float
   sequence. A path shorter than [max_lambda] is padded by its last
   model: an early-stopped path keeps its final error for larger λ. *)
let held_out_curve ~max_lambda src f models held_out =
  if Array.length models = 0 then
    invalid_arg "Select: solver produced an empty path";
  let src_ho = Provider.select_rows src held_out in
  let f_ho = Array.map (fun i -> f.(i)) held_out in
  Array.init max_lambda (fun l ->
      let m = models.(min l (Array.length models - 1)) in
      Model.error_on_p m src_ho f_ho)

(* Mean CV curve ε(λ) over the fold curves (averaged in fold order)
   and the λ at its minimum, refit on all data: read from the
   prefix of the lockstep's all-rows walk when the fused driver ran one
   ([refit]), walked again otherwise. *)
let choose ~path_models ~rng ~refit src f fold_curves =
  let curve = Stat.Crossval.mean_curve fold_curves in
  let lambda = Stat.Crossval.argmin curve + 1 in
  let final =
    match refit with
    | Some prefix -> prefix ~max_lambda:lambda
    | None -> path_models ~rng src f ~max_lambda:lambda
  in
  { model = final.(Array.length final - 1); lambda; curve }

(* Every selector checks its responses once, before the fold plan is
   drawn, so a wrong length fails with one message before any fold or
   refit runs. *)
let check_response src f =
  if Array.length f <> Provider.rows src then
    invalid_arg "Select: response length mismatch"

(* The λ grid of a path selector: paths cannot exceed M, nor — for
   solvers bounded by their rows — the smallest fold's training size
   n − ⌈n/Q⌉. The fold count is checked first: Q < 2 has no held-out
   fold, and Q = 0 would divide by zero. *)
let lambda_cap ?(folds = 4) ~rows_bound ~max_lambda src =
  if folds < 2 then invalid_arg "Select: need at least 2 folds";
  let n = Provider.rows src and m = Provider.cols src in
  min max_lambda (if rows_bound then min (n - ((n + folds - 1) / folds)) m else m)

(* The one CV-driver rule: a path method fuses its output × fold grid
   exactly when the provider is streamed and the selection sweeps are
   unsharded. Fusing shares column generation, which only streamed
   providers pay per sweep; the sharded engine owns each solver run's
   sweep. Both drivers give the same bits. *)
let fused_driver ~streamed ~shards = streamed && shards <= 1

(* Fused lockstep job fitting: one solver engine per (response, rows)
   job — an (output, fold) cell of the grid, or an output's all-rows
   refit walk — advanced in lockstep; each round answers every live
   engine's pending request with a single fused multi-residual [sweep]
   over the full provider (per-job rows as index sets), and [advance]
   feeds each engine its answer. A job's sweep accumulates over exactly
   its rows in ascending order — bitwise the sweep over its
   [select_rows] provider — and each engine is the solver's own walk,
   so every job walks bitwise as it would alone while streamed column
   generation is paid once per round instead of once per live job.

   Jobs are [(f, rows, refit)] with [f] the job's full-length response;
   the result is each job's [prefix] reader, [None] for a dropped refit
   walk, and [on_done i prefix] runs in the round job [i]'s walk
   finishes, so a grid cell is stored while the lockstep still runs. A
   refit walk runs to the grid's λ budget, past the λ the curve will
   choose and where the walk capped at that λ may never go: a lasso
   drop's Gram rebuild there can fail under [`Stop]. Such a walk is
   dropped, and [choose] walks the chosen λ on its own. *)
let lockstep ~create ~finished ~sweep ~advance ~prefix ~on_done src jobs =
  let n = Provider.rows src in
  let engines =
    Array.map
      (fun (f, rows, _) ->
        let f_rows = Array.map (fun i -> f.(i)) rows in
        (* A job over every row walks the provider itself. *)
        if Array.length rows = n then create src f_rows
        else create (Provider.select_rows src rows) f_rows)
      jobs
  in
  let dropped = Array.make (Array.length jobs) false in
  let rec loop live =
    (* A walk that finished last round is reported as it leaves. *)
    let live =
      List.filter
        (fun i ->
          if dropped.(i) then false
          else if finished engines.(i) then begin
            on_done i (prefix engines.(i));
            false
          end
          else true)
        live
    in
    if live <> [] then begin
      let live = Array.of_list live in
      let answers =
        sweep
          (Array.map (fun i -> engines.(i)) live)
          ~rows:(Array.map (fun i -> (fun (_, rows, _) -> rows) jobs.(i)) live)
      in
      Array.iteri
        (fun a i ->
          let _, _, refit = jobs.(i) in
          match advance engines.(i) answers.(a) with
          | () -> ()
          | exception Linalg.Cholesky.Not_positive_definite _ when refit ->
              dropped.(i) <- true)
        live;
      loop (Array.to_list live)
    end
  in
  loop (List.init (Array.length jobs) Fun.id);
  Array.mapi (fun i e -> if dropped.(i) then None else Some (prefix e)) engines

type store = { base : string; resume : bool }

let store ?(resume = false) = function
  | None when resume -> Error "resume requires a checkpoint path"
  | None -> Ok None
  | Some base -> Ok (Some { base; resume })

(* File-backed caches of the grid's cells over
   [Serialize.Checkpoint.Cell]: every finished (output, fold) cell
   writes [Cell.file base ~outputs r q]; on resume, a cell file must
   name its own cell of this grid — output and fold counts, dataset
   size, λ grid — and its fold plan, and is then loaded back and its
   fit skipped. A cell from a different seed, dataset, fold count,
   output count or λ grid is a hard error, never silently blended into
   the average. *)
let grid_caches { base; resume } ~outputs ~folds ~n ~max_lambda plan =
  let module Cell = Serialize.Checkpoint.Cell in
  let plan_digest = Cell.plan_digest plan.Stat.Crossval.assignment in
  let cell r q curve =
    { Cell.output = r; outputs; fold = q; folds; n; max_lambda; plan_digest;
      curve }
  in
  let shape (c : Cell.t) =
    Printf.sprintf "(output %d of %d, fold %d of %d, n=%d, max_lambda=%d)"
      c.output c.outputs c.fold c.folds c.n c.max_lambda
  in
  Array.init outputs (fun r ->
      let file q = Cell.file base ~outputs r q in
      let fail q msg =
        invalid_arg ("Select: fold checkpoint " ^ file q ^ msg)
      in
      let load q =
        if not (resume && Sys.file_exists (file q)) then None
        else
          match Cell.load (file q) with
          | Error e -> fail q (": " ^ e)
          | Ok c ->
              let have = shape c and want = shape (cell r q c.Cell.curve) in
              if have <> want then
                fail q (" is cell " ^ have ^ "; the sweep expects " ^ want);
              if c.Cell.plan_digest <> plan_digest then
                fail q
                  " was written for a different fold plan (different seed or \
                   data?)";
              Some c.Cell.curve
      in
      let store q curve = Cell.save (file q) (cell r q curve) in
      Some { Stat.Crossval.load; store })

(* The one CV selector, for R ≥ 1 responses over one design: one fold
   plan, Q fold streams and one refit stream, all drawn from the
   caller's generator whatever R is; one grid of R×Q (output, fold)
   cells; R refits at each output's chosen λ, each on a copy of the
   refit stream. [fused_driver] picks how the grid runs: the fused
   lockstep driver ([fit_jobs]), or the per-job driver, which fits each
   cell's path on its own [select_rows] copy, cells in parallel over
   the pool, each on a copy of its fold's stream, so no two jobs share
   a mutable generator. Each cell owns its slot and the averaging runs
   in fold order, so output [r]'s result is bitwise independent of R,
   the driver and the domain count. *)
let select ?(folds = 4) ?pool ?shards ?store ~fit_jobs
    ~path_models rng ~max_lambda src fs =
  if max_lambda <= 0 then invalid_arg "Select: max_lambda must be positive";
  let outputs = Array.length fs in
  if outputs = 0 then invalid_arg "Select: at least one output required";
  Array.iter (check_response src) fs;
  let n = Provider.rows src in
  let plan = Stat.Crossval.make_plan rng ~n ~folds in
  (* Fold streams are split in fold order before any cell runs — also
     before any checkpointed cell is loaded and skipped — so a
     stochastic solver draws the same stream in fold q whether the
     cells run sequentially, in parallel, or resumed. *)
  let fold_rngs = Randkit.Prng.split_n rng folds in
  let refit_rng = Randkit.Prng.split rng in
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let caches =
    Option.map
      (fun st -> grid_caches st ~outputs ~folds ~n ~max_lambda plan)
      store
  in
  let fused =
    fused_driver ~streamed:(Provider.is_streamed src)
      ~shards:(match shards with Some p -> p.Shard_sweep.shards | None -> 1)
  in
  let refits = Array.make outputs None in
  let grid =
    Stat.Crossval.run_fold_curves_multi ?caches ~outputs plan
      ~fit_curves:(fun jobs finish ->
        if fused then begin
          (* The grid's cells, then one all-rows refit walk per output:
             each round's one pass serves them all. A cell is finished
             — and stored — in the round its walk ends. *)
          let count = Array.length jobs in
          let all_rows = Array.init n Fun.id in
          let walks =
            fit_jobs
              ~on_done:(fun i prefix ->
                if i < count then begin
                  let r, _, _, held_out = jobs.(i) in
                  finish i
                    (held_out_curve ~max_lambda src fs.(r)
                       (prefix ~max_lambda) held_out)
                end)
              (Array.append
                 (Array.map
                    (fun (r, _, train, _) -> (fs.(r), train, false))
                    jobs)
                 (Array.map (fun f -> (f, all_rows, true)) fs))
          in
          Array.iteri (fun r _ -> refits.(r) <- walks.(count + r)) fs
        end
        else
          let count = Array.length jobs in
          Parallel.Pool.parallel_for pool ~chunks:count ~lo:0 ~hi:count
            (fun i ->
              let r, q, train, held_out = jobs.(i) in
              let f = fs.(r) in
              let models =
                path_models ~rng:(Randkit.Prng.copy fold_rngs.(q))
                  (Provider.select_rows src train)
                  (Array.map (fun i -> f.(i)) train)
                  ~max_lambda
              in
              finish i (held_out_curve ~max_lambda src f models held_out)))
  in
  Array.mapi
    (fun r fold_curves ->
      choose ~path_models
        ~rng:(Randkit.Prng.copy refit_rng) ~refit:refits.(r) src fs.(r)
        fold_curves)
    grid

(* OMP/STAR: every live engine's selection from one fused argmax. The
   walk capped at λ is this walk's first min(λ, steps) steps: the cap
   only ends a walk. *)
let fused_greedy (type e) (module E : Greedy.ENGINE with type t = e) ?pool
    ~create src =
  lockstep src ~create ~finished:E.finished
    ~sweep:(fun es ~rows ->
      Provider.argmax_abs_multi ?pool ~skips:(Array.map E.skip_mask es) src
        ~rows (Array.map E.residual es))
    ~advance:(fun e pick -> ignore (E.advance e pick))
    ~prefix:(fun e ~max_lambda ->
      let models = E.models e in
      Array.sub models 0 (min max_lambda (Array.length models)))

(* LAR round: each live walk's pending request — residual or
   equiangular direction, the walks are mutually independent — served
   from one [gram_tr_multi] pass, except a request whose screen holds
   (a correlation its carried bounds answer, or a direction its
   step-length screen answers): that walk answers from its own provider
   (a fold's row copy included) inside [advance], where a refit lane's
   [Not_positive_definite] is still caught. Each walk owns its λ budget: a LAR
   walk leaves the lockstep one step past λ bases, a lasso walk at its
   step budget. The walk a smaller λ drives is a prefix of this one:
   cut to [step_budget λ] steps, this walk can only hold more LAR steps
   past the first model with more than λ bases, which λ's models never
   read. *)
let fused_lars ?mode ?on_singular ?pool src ~max_lambda =
  lockstep src
    ~create:(fun src_tr f_tr ->
      Lars.Engine.create ?mode ?pool ?on_singular src_tr f_tr ~max_lambda)
    ~finished:Lars.Engine.finished
    ~sweep:(fun es ~rows ->
      let swept =
        List.filter
          (fun i -> Option.is_none (Lars.Engine.screen es.(i)))
          (List.init (Array.length es) Fun.id)
        |> Array.of_list
      in
      let answers = Array.make (Array.length es) None in
      if swept <> [||] then
        Array.iteri
          (fun a g -> answers.(swept.(a)) <- Some g)
          (Provider.gram_tr_multi ?pool src
             ~rows:(Array.map (fun i -> rows.(i)) swept)
             (Array.map (fun i -> Lars.Engine.request es.(i)) swept));
      answers)
    ~advance:(fun e -> function
      | Some g -> Lars.Engine.supply e g
      | None -> Lars.Engine.supply_screened e)
    ~prefix:(fun e ~max_lambda:l ->
      let steps = Lars.Engine.steps e in
      Lars.lambda_models src ~max_lambda:l
        (Array.sub steps 0 (min (Array.length steps) (Lars.step_budget l))))

(* Each method's grid: its λ cap, its fused job fitter and its per-job
   (and refit) path models. A single-output selector is its grid at
   R = 1. *)
let omp_multi_p ?folds ?pool ?on_singular ?shards ?store rng
    ~max_lambda src fs =
  let max_lambda = lambda_cap ?folds ~rows_bound:true ~max_lambda src in
  (* OMP's path is also bounded by its own training rows. *)
  let cap src l = min l (min (Provider.rows src) (Provider.cols src)) in
  select ?folds ?pool ?shards ?store
    ~fit_jobs:
      (fused_greedy (module Omp.Engine) ?pool src
         ~create:(fun src_tr f_tr ->
           Omp.Engine.create ?on_singular src_tr f_tr
             ~max_lambda:(cap src_tr max_lambda)))
    ~path_models:(fun ~rng:_ src f ~max_lambda ->
      Array.map
        (fun s -> s.Omp.model)
        (Omp.path_p ?pool ?on_singular ?shards src f
           ~max_lambda:(cap src max_lambda)))
    rng ~max_lambda src fs

let star_multi_p ?folds ?pool ?shards ?store rng ~max_lambda src fs =
  let max_lambda = lambda_cap ?folds ~rows_bound:false ~max_lambda src in
  select ?folds ?pool ?shards ?store
    ~fit_jobs:
      (fused_greedy (module Star.Engine) ?pool src
         ~create:(fun src_tr f_tr ->
           Star.Engine.create src_tr f_tr ~max_lambda))
    ~path_models:(fun ~rng:_ src f ~max_lambda ->
      Array.map
        (fun s -> s.Star.model)
        (Star.path_p ?pool ?shards src f ~max_lambda))
    rng ~max_lambda src fs

(* LAR/lasso: the λ-driven walk, which in LAR mode stops one step past
   [max_lambda] bases. *)
let lars_multi_p ?folds ?mode ?pool ?on_singular ?shards ?store rng
    ~max_lambda src fs =
  let max_lambda = lambda_cap ?folds ~rows_bound:true ~max_lambda src in
  select ?folds ?pool ?shards ?store
    ~fit_jobs:(fused_lars ?mode ?on_singular ?pool src ~max_lambda)
    ~path_models:(fun ~rng:_ src f ~max_lambda ->
      Lars.lambda_models src ~max_lambda
        (Lars.lambda_path_p ?mode ?pool ?on_singular ?shards src f
           ~max_lambda))
    rng ~max_lambda src fs

(* [?sweep] is [Exact], the one sweep. *)
let omp_p ?folds ?pool ?on_singular ?sweep:(_ : Corr_sweep.sweep option)
    ?shards ?store rng ~max_lambda src f =
  (omp_multi_p ?folds ?pool ?on_singular ?shards ?store rng ~max_lambda
     src [| f |]).(0)

let lars_p ?folds ?mode ?pool ?on_singular
    ?sweep:(_ : Corr_sweep.sweep option) ?shards ?store rng ~max_lambda src f =
  (lars_multi_p ?folds ?mode ?pool ?on_singular ?shards ?store rng
     ~max_lambda src [| f |]).(0)

let omp ?folds ?pool ?on_singular rng ~max_lambda g f =
  omp_p ?folds ?pool ?on_singular rng ~max_lambda (Provider.dense g) f
