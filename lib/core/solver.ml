module Provider = Polybasis.Design.Provider

type method_ = Ls | Star | Lar | Lasso | Omp

let all = [ Ls; Star; Lar; Omp ]

let name = function
  | Ls -> "LS"
  | Star -> "STAR"
  | Lar -> "LAR"
  | Lasso -> "LASSO"
  | Omp -> "OMP"

(* Every method with the names [of_name] accepts, the CLI's first:
   the paper's four in table order, then lasso. *)
let names =
  [
    (Ls, [ "ls"; "least-squares" ]);
    (Star, [ "star" ]);
    (Lar, [ "lar"; "lars" ]);
    (Omp, [ "omp" ]);
    (Lasso, [ "lasso" ]);
  ]

let methods = List.map fst names

let cli_name m = List.hd (List.assoc m names)

let of_name s =
  let s = String.lowercase_ascii s in
  List.find_map (fun (m, ns) -> if List.mem s ns then Some m else None) names

let needs_overdetermined = function Ls -> true | _ -> false

let path_method = function
  | Star | Lar | Lasso | Omp -> true
  | Ls -> false

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

(* Cross-validated fitting of R responses over one design. A path
   method is one [Select.*_multi_p] grid, which follows
   [Select.fused_driver]; LS fits each output on the materialized
   matrix. *)
type selected = { model : Model.t; lambda : (int * int) option }

let select_multi_p ?folds ?max_lambda ?on_singular ?shards ?store rng src fs
    m =
  if Array.length fs = 0 then
    invalid_arg "Solver.select_multi_p: at least one output required";
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
  | Ls ->
      (* λ is meaningless for LS, which draws nothing. *)
      let g = Provider.to_dense src in
      Array.map (fun f -> { model = Ls.fit g f; lambda = None }) fs

let fit_cv_p ?folds ?max_lambda ?on_singular ?shards ?store rng src f m =
  (select_multi_p ?folds ?max_lambda ?on_singular ?shards ?store rng src [| f |]
     m).(0).model

let fit_cv ?folds ?max_lambda rng g f m =
  fit_cv_p ?folds ?max_lambda rng (Provider.dense g) f m
