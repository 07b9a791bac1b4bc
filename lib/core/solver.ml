open Linalg
module Provider = Polybasis.Design.Provider

type method_ = Ls | Star | Lar | Lasso | Omp | Stomp | Cosamp

let all = [ Ls; Star; Lar; Omp ]

let name = function
  | Ls -> "LS"
  | Star -> "STAR"
  | Lar -> "LAR"
  | Lasso -> "LASSO"
  | Omp -> "OMP"
  | Stomp -> "StOMP"
  | Cosamp -> "CoSaMP"

let of_name s =
  match String.lowercase_ascii s with
  | "ls" | "least-squares" -> Some Ls
  | "star" -> Some Star
  | "lar" | "lars" -> Some Lar
  | "lasso" -> Some Lasso
  | "omp" -> Some Omp
  | "stomp" -> Some Stomp
  | "cosamp" -> Some Cosamp
  | _ -> None

let needs_overdetermined = function Ls -> true | _ -> false

let path_method = function
  | Star | Lar | Lasso | Omp -> true
  | Ls | Stomp | Cosamp -> false

let check_sweep m sweep =
  Corr_sweep.lar_only ~lar:(match m with Lar | Lasso -> true | _ -> false) sweep

let require_sweep who m sweep =
  Result.iter_error (fun msg -> invalid_arg (who ^ ": " ^ msg))
    (check_sweep m sweep)

let default_lambda g = max 1 (min (Mat.rows g) (Mat.cols g) / 2)

let fit ?lambda g f m =
  let lambda = match lambda with Some l -> l | None -> default_lambda g in
  match m with
  | Ls -> Ls.fit g f
  | Star -> Star.fit g f ~lambda
  | Lar -> Lars.fit ~mode:Lars.Lar g f ~lambda
  | Lasso -> Lars.fit ~mode:Lars.Lasso g f ~lambda
  | Omp -> Omp.fit g f ~lambda:(min lambda (min (Mat.rows g) (Mat.cols g)))
  | Stomp -> Stomp.fit ~max_selected:(min lambda (min (Mat.rows g) (Mat.cols g))) g f
  | Cosamp ->
      Cosamp.fit g f ~s:(max 1 (min lambda (min (Mat.rows g / 3) (Mat.cols g))))

(* CV for the methods whose knob is not a λ path (StOMP's threshold,
   CoSaMP's sparsity): the grid entry with the lowest mean held-out
   error. [fit] returns [None] where a knob cannot fit a fold, which
   scores NaN. *)
let cv_knob ?(folds = 4) rng g f grid fit =
  let plan = Stat.Crossval.make_plan rng ~n:(Mat.rows g) ~folds in
  let curve =
    Stat.Crossval.run_curves plan ~fit_curve:(fun ~train ~held_out ->
        let g_tr = Mat.select_rows g train in
        let f_tr = Array.map (fun i -> f.(i)) train in
        let g_ho = Mat.select_rows g held_out in
        let f_ho = Array.map (fun i -> f.(i)) held_out in
        Array.map
          (fun k ->
            match fit g_tr f_tr k with
            | Some m -> Model.error_on m g_ho f_ho
            | None -> Float.nan)
          grid)
  in
  grid.(Stat.Crossval.argmin curve)

let fit_cv ?folds ?max_lambda rng g f m =
  let max_lambda =
    match max_lambda with
    | Some l -> l
    | None -> max 1 (min (min (Mat.rows g / 2) (Mat.cols g)) 200)
  in
  match m with
  | Ls -> Ls.fit g f
  | Star -> (Select.star ?folds rng ~max_lambda g f).Select.model
  | Lar -> (Select.lars ?folds ~mode:Lars.Lar rng ~max_lambda g f).Select.model
  | Lasso ->
      (Select.lars ?folds ~mode:Lars.Lasso rng ~max_lambda g f).Select.model
  | Omp -> (Select.omp ?folds rng ~max_lambda g f).Select.model
  | Stomp ->
      (* StOMP's threshold, not lambda, is its knob. *)
      let threshold =
        cv_knob ?folds rng g f [| 2.0; 2.5; 3.0 |] (fun g f threshold ->
            Some (Stomp.fit ~threshold g f))
      in
      Stomp.fit ~threshold g f
  | Cosamp ->
      (* CV over the target sparsity s, like lambda for OMP. *)
      let smax = max 1 (min (max_lambda / 2) (min (Mat.rows g / 3) (Mat.cols g))) in
      let grid = Array.init (min smax 12) (fun i -> ((i + 1) * smax / min smax 12) |> max 1) in
      let s =
        cv_knob ?folds rng g f grid (fun g f s ->
            match Cosamp.fit g f ~s with
            | m -> Some m
            | exception Invalid_argument _ -> None)
      in
      Cosamp.fit g f ~s

let fit_cv_p ?folds ?max_lambda ?on_singular ?(sweep = Corr_sweep.Exact)
    ?shards ?shard_mode ?recovered ?cv_checkpoint ?cv_resume ?(notes = [||])
    rng src f m =
  require_sweep "Solver.fit_cv_p" m sweep;
  let max_lambda =
    match max_lambda with
    | Some l -> l
    | None ->
        max 1 (min (min (Provider.rows src / 2) (Provider.cols src)) 200)
  in
  let checkpoint = cv_checkpoint and resume = cv_resume in
  let model =
  match m with
  | Star ->
      (Select.star_p ?folds ?shards ?shard_mode ?recovered ?checkpoint
         ?resume rng ~max_lambda src f)
        .Select.model
  | Lar ->
      (Select.lars_p ?folds ~mode:Lars.Lar ?on_singular ~sweep ?shards
         ?shard_mode ?recovered ?checkpoint ?resume rng ~max_lambda src f)
        .Select.model
  | Lasso ->
      (Select.lars_p ?folds ~mode:Lars.Lasso ?on_singular ~sweep ?shards
         ?shard_mode ?recovered ?checkpoint ?resume rng ~max_lambda src f)
        .Select.model
  | Omp ->
      (Select.omp_p ?folds ?on_singular ?shards ?shard_mode ?recovered
         ?checkpoint ?resume rng ~max_lambda src f)
        .Select.model
  | Ls | Stomp | Cosamp ->
      (* These paths need the materialized matrix (full LS / batch
         thresholding); free for a dense provider. *)
      fit_cv ?folds ~max_lambda rng (Provider.to_dense src) f m
  in
  (* Provenance notes (e.g. a quorum-degraded delivery) ride on the
     model itself so a served artifact carries its history. *)
  Array.fold_left Model.add_note model notes

(* Multi-output fitting: R responses over one design. A path method
   is one [Select.*_multi_p] grid, which follows [Select.fused_driver]
   like single-output CV. The other methods fit output at a time:
   output 0 on the caller's generator, the others on copies taken
   first, so every output sees the same plan and the caller's
   generator ends where one [fit_cv_p] leaves it. *)
let fit_multi_p ?folds ?max_lambda ?on_singular ?(sweep = Corr_sweep.Exact)
    ?shards ?shard_mode ?recovered ?cv_checkpoint ?cv_resume ?notes rng src
    fs m =
  require_sweep "Solver.fit_multi_p" m sweep;
  let outputs = Array.length fs in
  if outputs = 0 then
    invalid_arg "Solver.fit_multi_p: at least one output required";
  let notes =
    match notes with
    | None -> Array.make outputs [||]
    | Some ns ->
        if Array.length ns <> outputs then
          invalid_arg "Solver.fit_multi_p: notes count disagrees with outputs";
        ns
  in
  let max_lambda =
    match max_lambda with
    | Some l -> l
    | None ->
        max 1 (min (min (Provider.rows src / 2) (Provider.cols src)) 200)
  in
  let checkpoint = cv_checkpoint and resume = cv_resume in
  let models sels = Array.map (fun s -> s.Select.model) sels in
  let fitted =
    match m with
    | Star ->
        models
          (Select.star_multi_p ?folds ?shards ?shard_mode ?recovered
             ?checkpoint ?resume rng ~max_lambda src fs)
    | Lar ->
        models
          (Select.lars_multi_p ?folds ~mode:Lars.Lar ?on_singular ~sweep
             ?shards ?shard_mode ?recovered ?checkpoint ?resume rng
             ~max_lambda src fs)
    | Lasso ->
        models
          (Select.lars_multi_p ?folds ~mode:Lars.Lasso ?on_singular ~sweep
             ?shards ?shard_mode ?recovered ?checkpoint ?resume rng
             ~max_lambda src fs)
    | Omp ->
        models
          (Select.omp_multi_p ?folds ?on_singular ?shards ?shard_mode
             ?recovered ?checkpoint ?resume rng ~max_lambda src fs)
    | Ls | Stomp | Cosamp ->
        let copies = Array.init (outputs - 1) (fun _ -> Randkit.Prng.copy rng) in
        Array.mapi
          (fun r f ->
            fit_cv_p ?folds ~max_lambda
              (if r = 0 then rng else copies.(r - 1))
              src f m)
          fs
  in
  Array.map2 (Array.fold_left Model.add_note) fitted notes
