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
      (* StOMP's threshold, not lambda, is its knob; CV over a small
         threshold grid. *)
      let thresholds = [| 2.0; 2.5; 3.0 |] in
      let n = Mat.rows g in
      let folds_n = match folds with Some q -> q | None -> 4 in
      let plan = Stat.Crossval.make_plan rng ~n ~folds:folds_n in
      let curve =
        Stat.Crossval.run_curves plan ~fit_curve:(fun ~train ~held_out ->
            let g_tr = Mat.select_rows g train in
            let f_tr = Array.map (fun i -> f.(i)) train in
            let g_ho = Mat.select_rows g held_out in
            let f_ho = Array.map (fun i -> f.(i)) held_out in
            Array.map
              (fun t ->
                let m = Stomp.fit ~threshold:t g_tr f_tr in
                Model.error_on m g_ho f_ho)
              thresholds)
      in
      Stomp.fit ~threshold:thresholds.(Stat.Crossval.argmin curve) g f
  | Cosamp ->
      (* CV over the target sparsity s, like lambda for OMP. *)
      let smax = max 1 (min (max_lambda / 2) (min (Mat.rows g / 3) (Mat.cols g))) in
      let grid = Array.init (min smax 12) (fun i -> ((i + 1) * smax / min smax 12) |> max 1) in
      let n = Mat.rows g in
      let folds_n = match folds with Some q -> q | None -> 4 in
      let plan = Stat.Crossval.make_plan rng ~n ~folds:folds_n in
      let curve =
        Stat.Crossval.run_curves plan ~fit_curve:(fun ~train ~held_out ->
            let g_tr = Mat.select_rows g train in
            let f_tr = Array.map (fun i -> f.(i)) train in
            let g_ho = Mat.select_rows g held_out in
            let f_ho = Array.map (fun i -> f.(i)) held_out in
            Array.map
              (fun s ->
                match Cosamp.fit g_tr f_tr ~s with
                | m -> Model.error_on m g_ho f_ho
                | exception Invalid_argument _ -> Float.nan)
              grid)
      in
      let s = grid.(Stat.Crossval.argmin curve) in
      Cosamp.fit g f ~s

let fit_cv_p ?folds ?max_lambda ?on_singular ?sweep ?shards ?shard_mode
    ?recovered ?cv_checkpoint ?cv_resume ?(notes = [||]) rng src f m =
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
      (Select.star_p ?folds ?sweep ?shards ?shard_mode ?recovered
         ?checkpoint ?resume rng ~max_lambda src f)
        .Select.model
  | Lar ->
      (Select.lars_p ?folds ~mode:Lars.Lar ?on_singular ?sweep ?shards
         ?shard_mode ?recovered ?checkpoint ?resume rng ~max_lambda src f)
        .Select.model
  | Lasso ->
      (Select.lars_p ?folds ~mode:Lars.Lasso ?on_singular ?sweep ?shards
         ?shard_mode ?recovered ?checkpoint ?resume rng ~max_lambda src f)
        .Select.model
  | Omp ->
      (Select.omp_p ?folds ?on_singular ?sweep ?shards ?shard_mode ?recovered
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

(* Multi-output fitting: R responses over one design. When
   [Select.fused_driver] picks the fused driver — the rule single-output
   CV follows too — every output's λ comes from one lockstep grid of
   R×Q fold solvers, each streamed column generated once per greedy
   step for the whole grid; otherwise the R outputs are R independent
   [fit_cv_p] calls seeded with copies of the same generator. The two
   are bitwise identical, and either way output [r] checkpoints under
   [Serialize.Checkpoint.Multi.output_base base r], so a run
   interrupted in one driver resumes in the other. *)
let fit_multi_p ?folds ?max_lambda ?on_singular ?(sweep = Corr_sweep.Exact)
    ?(shards = 1) ?shard_mode ?recovered ?cv_checkpoint ?cv_resume ?notes rng
    src fs m =
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
  if
    path_method m
    && Select.fused_driver ~streamed:(Provider.is_streamed src) ~sweep ~shards
  then begin
    let checkpoint = cv_checkpoint and resume = cv_resume in
    let results =
      match m with
      | Star ->
          Select.star_multi_p ?folds ?checkpoint ?resume rng ~max_lambda src fs
      | Lar ->
          Select.lars_multi_p ?folds ~mode:Lars.Lar ?on_singular ?checkpoint
            ?resume rng ~max_lambda src fs
      | Lasso ->
          Select.lars_multi_p ?folds ~mode:Lars.Lasso ?on_singular ?checkpoint
            ?resume rng ~max_lambda src fs
      | Omp ->
          Select.omp_multi_p ?folds ?on_singular ?checkpoint ?resume rng
            ~max_lambda src fs
      | Ls | Stomp | Cosamp -> assert false
    in
    Array.map2
      (fun sel ns -> Array.fold_left Model.add_note sel.Select.model ns)
      results notes
  end
  else
    (* Per-output: R independent single-output fits, each from a copy
       of the caller's generator so every output sees the same plan and
       streams the fused driver derives — the parity the fused ≡
       per-output gates check bitwise. *)
    Array.mapi
      (fun r f ->
        let cv_checkpoint =
          Option.map
            (fun base -> Serialize.Checkpoint.Multi.output_base base r)
            cv_checkpoint
        in
        fit_cv_p ?folds ~max_lambda ?on_singular ~sweep ~shards ?shard_mode
          ?recovered ?cv_checkpoint ?cv_resume ~notes:notes.(r)
          (Randkit.Prng.copy rng) src f m)
      fs
