open Linalg
module Provider = Polybasis.Design.Provider

type step = {
  index : int;
  coefficient : float;
  residual_norm : float;
  model : Model.t;
}

(* STAR's coefficient step for the shared greedy driver ([Greedy]):
   the entering coefficient is the eq. (18) estimate, nothing is
   re-fit. *)
module Engine = struct
  type nonrec step = step

  type t = {
    k : int;
    m : int;
    kf : float;
    tol : float;
    max_lambda : int;
    f : Vec.t;
    selected : bool array;
    cache : Provider.Cache.t;
    mutable support_rev : int list;
    mutable coeffs_rev : float list;
    res : Vec.t;
    mutable steps_rev : step list;
    mutable stop : bool;
    mutable initial_corr : float;
    mutable p : int;
  }

  let create ?(tol = 1e-12) src f ~max_lambda =
    let k = Provider.rows src and m = Provider.cols src in
    if Array.length f <> k then
      invalid_arg "Star.path: response length mismatch";
    if max_lambda <= 0 then
      invalid_arg "Star.path: max_lambda must be positive";
    if max_lambda > m then
      invalid_arg "Star.path: max_lambda exceeds basis size";
    {
      k;
      m;
      kf = float_of_int k;
      tol;
      max_lambda;
      f;
      selected = Array.make m false;
      cache = Provider.Cache.create src;
      support_rev = [];
      coeffs_rev = [];
      res = Array.copy f;
      steps_rev = [];
      stop = false;
      initial_corr = 0.;
      p = 0;
    }

  let solver = "star"
  let max_lambda t = t.max_lambda
  let size t = t.p
  let finished t = t.stop || t.p >= t.max_lambda
  let residual t = t.res
  let skip_mask t = t.selected
  let scale t = t.initial_corr
  let column t j = Provider.Cache.column t.cache j
  let support t = Array.of_list (List.rev t.support_rev)
  let steps t = Array.of_list (List.rev t.steps_rev)
  let models t = Array.of_list (List.rev_map (fun s -> s.model) t.steps_rev)

  (* Accept column [j]: matching-pursuit coefficient from the current
     residual, subtract its contribution. The exact operation order is
     shared by live selection and checkpoint replay, so a resumed path
     reproduces an uninterrupted run bit for bit. *)
  let accept t j =
    let colj = Provider.Cache.column t.cache j in
    let alpha = Vec.dot colj t.res /. t.kf in
    t.selected.(j) <- true;
    t.support_rev <- j :: t.support_rev;
    t.coeffs_rev <- alpha :: t.coeffs_rev;
    t.p <- t.p + 1;
    for i = 0 to t.k - 1 do
      t.res.(i) <- t.res.(i) -. (alpha *. Array.unsafe_get colj i)
    done;
    alpha

  let make_model t =
    Model.make ~basis_size:t.m
      ~support:(Array.of_list t.support_rev)
      ~coeffs:(Array.of_list t.coeffs_rev)

  let record t ~index ~coefficient =
    let rn = Vec.nrm2 t.res in
    t.steps_rev <-
      { index; coefficient; residual_norm = rn; model = make_model t }
      :: t.steps_rev;
    if rn <= 1e-14 *. Float.max (Vec.nrm2 t.f) 1. then t.stop <- true

  let advance t (best, best_abs) =
    if finished t then false
    else begin
      if t.p = 0 then t.initial_corr <- best_abs;
      if best < 0 || best_abs <= t.tol *. Float.max t.initial_corr 1. then begin
        t.stop <- true;
        false
      end
      else begin
        (* Coefficient taken directly from the eq. (18) estimator —
           no re-fit of previously selected coefficients. *)
        record t ~index:best ~coefficient:(accept t best);
        true
      end
    end

  let replay t ~scale support =
    t.initial_corr <- scale;
    Array.iter (fun j -> ignore (accept t j)) support;
    if t.p > 0 then
      record t ~index:(List.hd t.support_rev)
        ~coefficient:(List.hd t.coeffs_rev)
end

let path_p ?tol ?pool ?log ?shards src f ~max_lambda =
  Greedy.path_p
    (module Engine)
    ?pool ?log ?shards src
    (fun () -> Engine.create ?tol src f ~max_lambda)

let fit_p ?tol ?pool ?log ?shards src f ~lambda =
  let steps = path_p ?tol ?pool ?log ?shards src f ~max_lambda:lambda in
  if Array.length steps = 0 then
    Model.make ~basis_size:(Provider.cols src) ~support:[||] ~coeffs:[||]
  else steps.(Array.length steps - 1).model

let fit ?tol ?pool g f ~lambda = fit_p ?tol ?pool (Provider.dense g) f ~lambda
