module Provider = Polybasis.Design.Provider

type rule = Min_error | One_se

type result = { model : Model.t; lambda : int; curve : float array }

(* File-backed fold cache over [Serialize.Checkpoint.Cv]: every finished
   fold writes [<base>.fold<q>]; on resume, files whose shape and plan
   digest match are loaded back and their folds skipped. A checkpoint
   from a different seed, dataset size, fold count or lambda grid is a
   hard error, never silently blended into the average. *)
let fold_cache ~base ~resume ~folds ~n ~max_lambda ~plan_digest =
  let module Cv = Serialize.Checkpoint.Cv in
  let load q =
    if not resume then None
    else
      let path = Cv.fold_file base q in
      if not (Sys.file_exists path) then None
      else
        match Cv.load path with
        | Error e ->
            invalid_arg (Printf.sprintf "Select: fold checkpoint %s: %s" path e)
        | Ok c ->
            if c.Cv.fold <> q then
              invalid_arg
                (Printf.sprintf "Select: fold checkpoint %s is for fold %d"
                   path c.Cv.fold);
            if c.Cv.folds <> folds || c.Cv.n <> n || c.Cv.max_lambda <> max_lambda
            then
              invalid_arg
                (Printf.sprintf
                   "Select: fold checkpoint %s shape (%d folds, n=%d, \
                    max_lambda=%d) disagrees with the sweep (%d folds, n=%d, \
                    max_lambda=%d)"
                   path c.Cv.folds c.Cv.n c.Cv.max_lambda folds n max_lambda);
            if c.Cv.plan_digest <> plan_digest then
              invalid_arg
                (Printf.sprintf
                   "Select: fold checkpoint %s was written for a different \
                    fold plan (different seed or data?)"
                   path);
            Some c.Cv.curve
  in
  let store q curve =
    Cv.save (Cv.fold_file base q)
      { Cv.fold = q; folds; n; max_lambda; plan_digest; curve }
  in
  { Stat.Crossval.load; store }

(* Held-out error curve of a fitted fold path — shared verbatim by the
   per-fold and fused drivers so their curves come from the same float
   sequence. *)
let held_out_curve ~max_lambda src f models held_out =
  if Array.length models = 0 then
    invalid_arg "Select: solver produced an empty path";
  let src_ho = Provider.select_rows src held_out in
  let f_ho = Array.map (fun i -> f.(i)) held_out in
  Array.init max_lambda (fun l ->
      let m = models.(min l (Array.length models - 1)) in
      Model.error_on_p m src_ho f_ho)

(* Mean CV curve ε(λ) over the fold curves (averaged in fold order)
   and the λ the rule picks from it, refit on all data — the one
   reduction behind every selector, single- or multi-output. *)
let choose ~folds ~rule ~max_lambda ~path_models ~rng src f fold_curves =
  let fq = float_of_int folds in
  let curve =
    Array.init max_lambda (fun l ->
        Array.fold_left (fun acc fc -> acc +. (fc.(l) /. fq)) 0. fold_curves)
  in
  let best = Stat.Crossval.argmin curve in
  let lambda =
    match rule with
    | Min_error -> best + 1
    | One_se ->
        (* Fold-to-fold standard error of the mean at the minimum. *)
        let at_min = Array.map (fun fc -> fc.(best)) fold_curves in
        let threshold =
          curve.(best) +. (Stat.Descriptive.std at_min /. sqrt fq)
        in
        let l = ref best in
        (* Smallest lambda within one SE of the minimum. *)
        for cand = best - 1 downto 0 do
          if (not (Float.is_nan curve.(cand))) && curve.(cand) <= threshold
          then l := cand
        done;
        !l + 1
  in
  let final = path_models ~rng src f ~max_lambda:lambda in
  { model = final.(Array.length final - 1); lambda; curve }

(* Every selector checks its responses once, before the fold plan is
   drawn, so a wrong length fails with one message before any fold or
   refit runs. *)
let check_response src f =
  if Array.length f <> Provider.rows src then
    invalid_arg "Select: response length mismatch"

let generic_impl ?(folds = 4) ?(rule = Min_error) ?pool ?checkpoint
    ?(resume = false) ?fused_curves rng ~max_lambda ~path_models src f =
  if max_lambda <= 0 then invalid_arg "Select: max_lambda must be positive";
  check_response src f;
  let n = Provider.rows src in
  let plan = Stat.Crossval.make_plan rng ~n ~folds in
  (* Per-fold streams are split from the master generator in fold order
     before any fold runs — also before any checkpointed fold is loaded
     and skipped — so a stochastic solver draws the same stream in fold
     q whether the folds run sequentially, in parallel, or resumed. *)
  let fold_rngs = Randkit.Prng.split_n rng folds in
  let refit_rng = Randkit.Prng.split rng in
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let cache =
    match checkpoint with
    | None -> None
    | Some base ->
        let plan_digest =
          Serialize.Checkpoint.Cv.plan_digest plan.Stat.Crossval.assignment
        in
        Some (fold_cache ~base ~resume ~folds ~n ~max_lambda ~plan_digest)
  in
  (* Per-fold error curves: the mean gives the paper's epsilon(lambda),
     the spread gives the standard error the One_se rule needs. In the
     per-fold driver, folds are fitted in parallel (one chunk per
     fold); the fused driver instead runs all fold solvers in lockstep
     sharing one multi-residual sweep per step. Either way each fold
     owns its own slot and the averaging runs in fold order, so the
     curve is bitwise independent of the driver and domain count. *)
  let fold_curves =
    match fused_curves with
    | Some fit_curves -> Stat.Crossval.run_fold_curves_batch ?cache plan ~fit_curves
    | None ->
        Stat.Crossval.run_fold_curves ~pool ?cache plan
          ~fit_curve:(fun q ~train ~held_out ->
            let src_tr = Provider.select_rows src train in
            let f_tr = Array.map (fun i -> f.(i)) train in
            let models =
              path_models ~rng:fold_rngs.(q) src_tr f_tr ~max_lambda
            in
            held_out_curve ~max_lambda src f models held_out)
  in
  choose ~folds ~rule ~max_lambda ~path_models ~rng:refit_rng src f fold_curves

let generic_p ?folds ?rule ?pool ?checkpoint ?resume rng ~max_lambda
    ~path_models src f =
  generic_impl ?folds ?rule ?pool ?checkpoint ?resume rng ~max_lambda
    ~path_models src f

let generic ?folds ?rule ?pool rng ~max_lambda ~path_models g f =
  generic_p ?folds ?rule ?pool rng ~max_lambda
    ~path_models:(fun ~rng src f ~max_lambda ->
      path_models ~rng (Provider.to_dense ?pool src) f ~max_lambda)
    (Provider.dense g) f

(* The λ grid of a path selector: paths cannot exceed M, nor — for
   solvers bounded by their rows — the smallest fold's training size
   n − ⌈n/Q⌉. The fold count is checked first: Q < 2 has no held-out
   fold, and Q = 0 would divide by zero. *)
let lambda_cap ?(folds = 4) ~rows_bound ~max_lambda src =
  if folds < 2 then invalid_arg "Select: need at least 2 folds";
  let n = Provider.rows src and m = Provider.cols src in
  min max_lambda (if rows_bound then min (n - ((n + folds - 1) / folds)) m else m)

(* The one CV-driver rule: a path method fuses its folds (and, with
   several outputs, its output × fold grid) exactly when the provider
   is streamed, the sweep is exact and the selection sweeps are
   unsharded. Fusing shares column generation, which only streamed
   providers pay per sweep; the incremental LAR engine keeps per-walk
   state no shared sweep can serve, and the sharded engine owns each
   solver run's sweep. Both drivers give the same bits. *)
let fused_driver ~streamed ~sweep ~shards =
  streamed && sweep = Corr_sweep.Exact && shards <= 1

(* Fused lockstep job fitting: one solver engine per (response,
   training-rows) job — a fold of one output, or any (output, fold)
   cell of a multi-output grid — advanced in lockstep; each [round]
   answers every live engine's pending request with a single fused
   multi-residual sweep over the full provider (per-job training rows
   as index sets). A job's sweep accumulates over exactly its training
   rows in ascending order — bitwise the sweep over its [select_rows]
   provider — and each engine is the solver's own walk, so the
   resulting curves are bitwise identical to job-at-a-time fitting
   while streamed column generation is paid once per round instead of
   once per live job. Jobs are [(f, train, held_out)] with [f] the
   job's full-length response. *)
let lockstep ~create ~finished ~round ~models src ~max_lambda jobs =
  let engines =
    Array.map
      (fun (f, train, _) ->
        create (Provider.select_rows src train) (Array.map (fun i -> f.(i)) train))
      jobs
  in
  let rec loop () =
    let live =
      List.filter
        (fun i -> not (finished engines.(i)))
        (List.init (Array.length jobs) Fun.id)
    in
    if live <> [] then begin
      let live = Array.of_list live in
      round
        (Array.map (fun i -> engines.(i)) live)
        ~rows:(Array.map (fun i -> (fun (_, train, _) -> train) jobs.(i)) live);
      loop ()
    end
  in
  loop ();
  Array.map2
    (fun e (f, _, held_out) ->
      held_out_curve ~max_lambda src f (models e) held_out)
    engines jobs

(* OMP/STAR: every live engine's selection from one fused argmax. *)
let fused_greedy (type e) (module E : Greedy.ENGINE with type t = e) ?pool
    ~create src ~max_lambda =
  lockstep src ~max_lambda ~create ~finished:E.finished ~models:E.models
    ~round:(fun es ~rows ->
      let picks =
        Corr_sweep.argmax_abs_multi ?pool ~skips:(Array.map E.skip_mask es)
          src ~rows (Array.map E.residual es)
      in
      Array.iteri (fun i e -> ignore (E.advance e picks.(i))) es)

(* OMP's λ grid is also bounded by each fold's training rows. *)
let omp_engine ?on_singular ~max_lambda src_tr f_tr =
  let rows = Provider.rows src_tr and cols = Provider.cols src_tr in
  Omp.Engine.create ?on_singular src_tr f_tr
    ~max_lambda:(min max_lambda (min rows cols))

(* LAR round: each live walk's pending request — residual or
   equiangular direction, the walks are mutually independent — served
   from one [gram_tr_multi] pass. Each walk owns its λ budget: a LAR
   walk leaves the lockstep one step past λ bases, a lasso walk at its
   step budget. *)
let fused_lars ?mode ?on_singular ?pool src ~max_lambda =
  lockstep src ~max_lambda
    ~create:(fun src_tr f_tr ->
      Lars.Engine.create ?mode ?pool ?on_singular src_tr f_tr ~max_lambda)
    ~finished:Lars.Engine.finished
    ~round:(fun es ~rows ->
      let sweeps =
        Corr_sweep.gram_tr_multi ?pool src ~rows
          (Array.map Lars.Engine.request es)
      in
      Array.iteri (fun i e -> Lars.Engine.supply e sweeps.(i)) es)
    ~models:(fun e -> Lars.lambda_models src ~max_lambda (Lars.Engine.steps e))

(* Per-fold (and refit) path models of each solver. *)
let omp_models ?pool ?on_singular ?shards ?shard_mode ?recovered () ~rng:_ src
    f ~max_lambda =
  let max_lambda = min max_lambda (min (Provider.rows src) (Provider.cols src)) in
  Array.map
    (fun s -> s.Omp.model)
    (Omp.path_p ?pool ?on_singular ?shards ?shard_mode ?recovered src f
       ~max_lambda)

let star_models ?pool ?shards ?shard_mode ?recovered () ~rng:_ src f
    ~max_lambda =
  Array.map
    (fun s -> s.Star.model)
    (Star.path_p ?pool ?shards ?shard_mode ?recovered src f ~max_lambda)

(* LAR/lasso: the λ-driven walk, which in LAR mode stops one step past
   [max_lambda] bases. *)
let lars_models ?mode ?pool ?on_singular ?sweep ?shards ?shard_mode ?recovered
    () ~rng:_ src f ~max_lambda =
  Lars.lambda_models src ~max_lambda
    (Lars.lambda_path_p ?mode ?pool ?on_singular ?sweep ?shards ?shard_mode
       ?recovered src f ~max_lambda)

(* Single-output selection: the fused lockstep fold driver when
   [fused_driver] picks it, fold-at-a-time otherwise. *)
let select_single ?folds ?rule ?pool ?checkpoint ?resume
    ?(sweep = Corr_sweep.Exact) ?(shards = 1) ~fit_jobs ~path_models rng
    ~max_lambda src f =
  let fused_curves =
    if fused_driver ~streamed:(Provider.is_streamed src) ~sweep ~shards then
      Some
        (fun pending ->
          fit_jobs
            (Array.map (fun (_, train, held_out) -> (f, train, held_out)) pending))
    else None
  in
  generic_impl ?folds ?rule ?pool ?checkpoint ?resume ?fused_curves rng
    ~max_lambda ~path_models src f

let omp_p ?folds ?rule ?pool ?on_singular ?(sweep = Corr_sweep.Exact) ?shards
    ?shard_mode ?recovered ?checkpoint ?resume rng ~max_lambda src f =
  Result.iter_error
    (fun msg -> invalid_arg ("Select.omp_p: " ^ msg))
    (Corr_sweep.lar_only ~lar:false sweep);
  let max_lambda = lambda_cap ?folds ~rows_bound:true ~max_lambda src in
  select_single ?folds ?rule ?pool ?checkpoint ?resume ?shards
    ~fit_jobs:
      (fused_greedy (module Omp.Engine) ?pool src ~max_lambda
         ~create:(omp_engine ?on_singular ~max_lambda))
    ~path_models:
      (omp_models ?pool ?on_singular ?shards ?shard_mode ?recovered ())
    rng ~max_lambda src f

let star_p ?folds ?rule ?pool ?shards ?shard_mode ?recovered ?checkpoint
    ?resume rng ~max_lambda src f =
  let max_lambda = lambda_cap ?folds ~rows_bound:false ~max_lambda src in
  select_single ?folds ?rule ?pool ?checkpoint ?resume ?shards
    ~fit_jobs:
      (fused_greedy (module Star.Engine) ?pool src ~max_lambda
         ~create:(fun src_tr f_tr ->
           Star.Engine.create src_tr f_tr ~max_lambda))
    ~path_models:(star_models ?pool ?shards ?shard_mode ?recovered ())
    rng ~max_lambda src f

let lars_p ?folds ?rule ?mode ?pool ?on_singular ?sweep ?shards ?shard_mode
    ?recovered ?checkpoint ?resume rng ~max_lambda src f =
  let max_lambda = lambda_cap ?folds ~rows_bound:true ~max_lambda src in
  select_single ?folds ?rule ?pool ?checkpoint ?resume ?sweep ?shards
    ~fit_jobs:(fused_lars ?mode ?on_singular ?pool src ~max_lambda)
    ~path_models:
      (lars_models ?mode ?pool ?on_singular ?sweep ?shards ?shard_mode
         ?recovered ())
    rng ~max_lambda src f

(* Multi-output λ selection: R responses share one fold plan, one
   fused lockstep grid of R×Q fold solvers, and R per-output refits.
   The PRNG draws mirror [generic_impl] exactly — one plan, Q fold
   streams, one refit stream, all from the caller's generator — and
   the path solvers ignore their fold streams, so output [r]'s result
   is bitwise the single-output run of [generic_impl] on [fs.(r)] with
   a copy of the same generator. *)
let select_multi ?(folds = 4) ?(rule = Min_error) ?checkpoint
    ?(resume = false) ~fit_jobs ~path_models rng ~max_lambda src fs =
  if max_lambda <= 0 then invalid_arg "Select: max_lambda must be positive";
  let outputs = Array.length fs in
  if outputs = 0 then invalid_arg "Select: at least one output required";
  Array.iter (check_response src) fs;
  let n = Provider.rows src in
  let plan = Stat.Crossval.make_plan rng ~n ~folds in
  let _fold_rngs = Randkit.Prng.split_n rng folds in
  let refit_rng = Randkit.Prng.split rng in
  let caches =
    match checkpoint with
    | None -> None
    | Some base ->
        let module M = Serialize.Checkpoint.Multi in
        let plan_digest =
          Serialize.Checkpoint.Cv.plan_digest plan.Stat.Crossval.assignment
        in
        let manifest = { M.outputs; folds; n; max_lambda; plan_digest } in
        let mpath = M.manifest_file base in
        (if resume && Sys.file_exists mpath then
           match M.load mpath with
           | Error e ->
               invalid_arg
                 (Printf.sprintf "Select: multi checkpoint %s: %s" mpath e)
           | Ok m ->
               if m <> manifest then
                 invalid_arg
                   (Printf.sprintf
                      "Select: multi checkpoint %s grid (%d outputs, %d \
                       folds, n=%d, max_lambda=%d) disagrees with the sweep \
                       (%d outputs, %d folds, n=%d, max_lambda=%d) or was \
                       written for a different fold plan"
                      mpath m.M.outputs m.M.folds m.M.n m.M.max_lambda outputs
                      folds n max_lambda));
        M.save mpath manifest;
        Some
          (Array.init outputs (fun r ->
               Some
                 (fold_cache ~base:(M.output_base base r) ~resume ~folds ~n
                    ~max_lambda ~plan_digest)))
  in
  let grid =
    Stat.Crossval.run_fold_curves_multi ?caches ~outputs plan
      ~fit_curves:(fun jobs ->
        (* Each (output, fold) cell is a lockstep job carrying that
           output's response. *)
        fit_jobs
          (Array.map (fun (r, _, train, held_out) -> (fs.(r), train, held_out)) jobs))
  in
  Array.mapi
    (fun r fold_curves ->
      choose ~folds ~rule ~max_lambda ~path_models ~rng:refit_rng src fs.(r)
        fold_curves)
    grid

let omp_multi_p ?folds ?rule ?pool ?on_singular ?checkpoint ?resume rng
    ~max_lambda src fs =
  let max_lambda = lambda_cap ?folds ~rows_bound:true ~max_lambda src in
  select_multi ?folds ?rule ?checkpoint ?resume
    ~fit_jobs:
      (fused_greedy (module Omp.Engine) ?pool src ~max_lambda
         ~create:(omp_engine ?on_singular ~max_lambda))
    ~path_models:(omp_models ?pool ?on_singular ())
    rng ~max_lambda src fs

let star_multi_p ?folds ?rule ?pool ?checkpoint ?resume rng ~max_lambda src
    fs =
  let max_lambda = lambda_cap ?folds ~rows_bound:false ~max_lambda src in
  select_multi ?folds ?rule ?checkpoint ?resume
    ~fit_jobs:
      (fused_greedy (module Star.Engine) ?pool src ~max_lambda
         ~create:(fun src_tr f_tr ->
           Star.Engine.create src_tr f_tr ~max_lambda))
    ~path_models:(star_models ?pool ())
    rng ~max_lambda src fs

let lars_multi_p ?folds ?rule ?mode ?pool ?on_singular ?checkpoint ?resume
    rng ~max_lambda src fs =
  let max_lambda = lambda_cap ?folds ~rows_bound:true ~max_lambda src in
  select_multi ?folds ?rule ?checkpoint ?resume
    ~fit_jobs:(fused_lars ?mode ?on_singular ?pool src ~max_lambda)
    ~path_models:(lars_models ?mode ?pool ?on_singular ())
    rng ~max_lambda src fs

let omp ?folds ?rule ?pool ?on_singular rng ~max_lambda g f =
  omp_p ?folds ?rule ?pool ?on_singular rng ~max_lambda (Provider.dense g) f

let star ?folds ?rule ?pool rng ~max_lambda g f =
  star_p ?folds ?rule ?pool rng ~max_lambda (Provider.dense g) f

let lars ?folds ?rule ?mode ?pool ?on_singular rng ~max_lambda g f =
  lars_p ?folds ?rule ?mode ?pool ?on_singular rng ~max_lambda
    (Provider.dense g) f
