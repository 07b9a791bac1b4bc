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

let lars_mode = function Lasso -> Lars.Lasso | _ -> Lars.Lar

let fit_p ?lambda ?pool ?on_singular ?log ?shards src f m =
  let rows = Provider.rows src and cols = Provider.cols src in
  let lambda =
    match lambda with Some l -> l | None -> max 1 (min rows cols / 2)
  in
  match m with
  | Star -> Star.fit_p ?pool ?log ?shards src f ~lambda
  | Lar | Lasso ->
      Lars.fit_p ~mode:(lars_mode m) ?pool ?on_singular ?log ?shards src f
        ~lambda
  | Omp ->
      Omp.fit_p ?pool ?on_singular ?log ?shards src f
        ~lambda:(min lambda (min rows cols))
  | Ls -> Ls.fit (Provider.to_dense src) f
  | Stomp ->
      Stomp.fit ~max_selected:(min lambda (min rows cols))
        (Provider.to_dense src) f
  | Cosamp ->
      Cosamp.fit (Provider.to_dense src) f
        ~s:(max 1 (min lambda (min (rows / 3) cols)))

let fit ?lambda g f m = fit_p ?lambda (Provider.dense g) f m

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

(* The methods without a λ path, on the materialized matrix (full LS /
   batch thresholding; free for a dense provider). *)
let fit_knob ?folds ~max_lambda rng g f = function
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
  | _ -> (* LS: λ is meaningless there. *) Ls.fit g f

(* Cross-validated fitting of R responses over one design. A path
   method is one [Select.*_multi_p] grid, which follows
   [Select.fused_driver]. The other methods fit output at a time:
   output 0 on the caller's generator, the others on copies taken
   first, so every output sees the same plan and the caller's
   generator ends where one single-output fit leaves it. *)
type selected = { model : Model.t; lambda : (int * int) option }

let fit_grid who ?folds ?max_lambda ?on_singular ?shards ?store ?notes rng src
    fs m =
  let outputs = Array.length fs in
  if outputs = 0 then invalid_arg (who ^ ": at least one output required");
  let notes =
    match notes with
    | None -> Array.make outputs [||]
    | Some ns ->
        if Array.length ns <> outputs then
          invalid_arg (who ^ ": notes count disagrees with outputs");
        ns
  in
  let max_lambda =
    match max_lambda with
    | Some l -> l
    | None ->
        max 1 (min (min (Provider.rows src / 2) (Provider.cols src)) 200)
  in
  (* A path method's choice and its grid's cap, the curve's length. *)
  let chosen sels =
    Array.map
      (fun s ->
        {
          model = s.Select.model;
          lambda = Some (s.Select.lambda, Array.length s.Select.curve);
        })
      sels
  in
  let fitted =
    match m with
    | Star ->
        chosen
          (Select.star_multi_p ?folds ?shards ?store rng ~max_lambda src fs)
    | Lar | Lasso ->
        chosen
          (Select.lars_multi_p ?folds ~mode:(lars_mode m) ?on_singular
             ?shards ?store rng ~max_lambda src fs)
    | Omp ->
        chosen
          (Select.omp_multi_p ?folds ?on_singular ?shards ?store rng
             ~max_lambda src fs)
    | Ls | Stomp | Cosamp ->
        let copies = Array.init (outputs - 1) (fun _ -> Randkit.Prng.copy rng) in
        let g = Provider.to_dense src in
        Array.mapi
          (fun r f ->
            {
              model =
                fit_knob ?folds ~max_lambda
                  (if r = 0 then rng else copies.(r - 1))
                  g f m;
              lambda = None;
            })
          fs
  in
  (* Provenance notes (e.g. a quorum-degraded delivery) ride on the
     models themselves so a served artifact carries its history. *)
  Array.map2
    (fun s ns -> { s with model = Array.fold_left Model.add_note s.model ns })
    fitted notes

let select_multi_p = fit_grid "Solver.select_multi_p"

let fit_multi_p ?folds ?max_lambda ?on_singular ?shards ?store ?notes rng src
    fs m =
  Array.map
    (fun s -> s.model)
    (fit_grid "Solver.fit_multi_p" ?folds ?max_lambda ?on_singular ?shards
       ?store ?notes rng src fs m)

let fit_cv_p ?folds ?max_lambda ?on_singular ?shards ?store ?(notes = [||])
    rng src f m =
  (fit_multi_p ?folds ?max_lambda ?on_singular ?shards ?store
     ~notes:[| notes |] rng src [| f |] m).(0)

let fit_cv ?folds ?max_lambda rng g f m =
  fit_cv_p ?folds ?max_lambda rng (Provider.dense g) f m
