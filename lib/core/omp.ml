open Linalg
module Provider = Polybasis.Design.Provider

type step = {
  index : int;
  correlation : float;
  residual_norm : float;
  model : Model.t;
}

(* OMP's coefficient step for the shared greedy driver ([Greedy]):
   every selection re-fits all selected coefficients. *)
module Engine = struct
  type nonrec step = step

  type t = {
    k : int;
    m : int;
    tol : float;
    on_singular : [ `Stop | `Fallback ];
    max_lambda : int;
    f : Vec.t;
    selected : bool array;
    support : int array;
    rhs : float array;
    (* Gram factor of the selected columns, grown one column per step. *)
    chol : Cholesky.Grow.t;
    (* Active-set columns are touched every remaining iteration (cross
       products, re-fit residual); cache them once materialized — λ
       columns of K floats, never the full matrix. *)
    cache : Provider.Cache.t;
    res : Vec.t;
    mutable steps_rev : step list;
    mutable stop : bool;
    mutable initial_corr : float;
    mutable p : int;
    (* Once the Gram factor went non-SPD and `Fallback was requested,
       the incremental factor is abandoned and every re-fit runs the
       Refit ladder over the cached active columns; the rung that fired
       is recorded in the step's model notes. Clean paths never enter
       this mode, so their bits are untouched. *)
    mutable degraded : bool;
    mutable fallback_note : string option;
  }

  let create ?(tol = 1e-12) ?(on_singular = `Stop) src f ~max_lambda =
    let k = Provider.rows src and m = Provider.cols src in
    if Array.length f <> k then
      invalid_arg "Omp.path: response length mismatch";
    if max_lambda <= 0 then invalid_arg "Omp.path: max_lambda must be positive";
    if max_lambda > min k m then
      invalid_arg "Omp.path: max_lambda exceeds min(samples, basis size)";
    {
      k;
      m;
      tol;
      on_singular;
      max_lambda;
      f;
      selected = Array.make m false;
      support = Array.make (max max_lambda 1) 0;
      rhs = Array.make (max max_lambda 1) 0.;
      chol = Cholesky.Grow.create (max max_lambda 1);
      cache = Provider.Cache.create src;
      res = Array.copy f;
      steps_rev = [];
      stop = false;
      initial_corr = 0.;
      p = 0;
      degraded = false;
      fallback_note = None;
    }

  let solver = "omp"
  let max_lambda t = t.max_lambda
  let size t = t.p
  let finished t = t.stop || t.p >= t.max_lambda
  let residual t = t.res
  let skip_mask t = t.selected
  let support t = Array.sub t.support 0 t.p
  let scale t = t.initial_corr
  let column t j = Provider.Cache.column t.cache j
  let steps t = Array.of_list (List.rev t.steps_rev)
  let models t = Array.of_list (List.rev_map (fun s -> s.model) t.steps_rev)

  (* Accept column [j]: extend the Gram factor (or enter degraded mode),
     record support and right-hand side. Returns false when the path
     must stop instead ([`Stop] on a dependent column). Shared by live
     selection and checkpoint replay so both degrade identically. *)
  let accept t j =
    let ok =
      if t.degraded then true
      else begin
        let cross =
          Array.init t.p (fun q ->
              Provider.Cache.col_col_dot t.cache t.support.(q) j)
        in
        let diag = Provider.Cache.col_col_dot t.cache j j in
        match Cholesky.Grow.append t.chol cross diag with
        | () -> true
        | exception Cholesky.Not_positive_definite _ -> (
            (* Column linearly dependent on the selected set: the plain
               LS re-fit would be singular. *)
            match t.on_singular with
            | `Stop -> false
            | `Fallback ->
                t.degraded <- true;
                true)
      end
    in
    if ok then begin
      t.support.(t.p) <- j;
      t.selected.(j) <- true;
      t.rhs.(t.p) <- Provider.Cache.col_dot t.cache j t.f;
      t.p <- t.p + 1
    end;
    ok

  (* Step 6: re-fit all selected coefficients (eq. (22)) — through the
     incremental factor normally, through the fallback ladder once
     degraded. *)
  let refit_coeffs t =
    if not t.degraded then Cholesky.Grow.solve t.chol (Array.sub t.rhs 0 t.p)
    else begin
      let cols =
        Array.map (Provider.Cache.column t.cache) (Array.sub t.support 0 t.p)
      in
      let coeffs, fb = Refit.solve_cols cols t.f in
      t.fallback_note <- Refit.note fb;
      coeffs
    end

  let make_model t coeffs =
    let model =
      Model.make ~basis_size:t.m ~support:(Array.sub t.support 0 t.p) ~coeffs
    in
    match t.fallback_note with
    | None -> model
    | Some note -> Model.add_note model note

  let residual_refresh t coeffs =
    let sub = Array.sub t.support 0 t.p in
    let cols = Array.map (Provider.Cache.column t.cache) sub in
    let new_res = Lstsq.residual_cols cols coeffs t.f in
    Array.blit new_res 0 t.res 0 t.k

  (* Steps 6–7: re-fit, fresh residual from the re-fitted model over the
     cached support columns, record the step. Shared by live selection
     and checkpoint replay. *)
  let refit_and_record t ~index ~correlation =
    let coeffs = refit_coeffs t in
    residual_refresh t coeffs;
    let rn = Vec.nrm2 t.res in
    t.steps_rev <-
      { index; correlation; residual_norm = rn; model = make_model t coeffs }
      :: t.steps_rev;
    if rn <= 1e-14 *. Float.max (Vec.nrm2 t.f) 1. then t.stop <- true

  let advance t (best, best_abs) =
    if finished t then false
    else begin
      if t.p = 0 then t.initial_corr <- best_abs;
      if
        best < 0
        || best_abs <= t.tol *. Float.max t.initial_corr 1.
        || not (accept t best)
      then begin
        t.stop <- true;
        false
      end
      else begin
        refit_and_record t ~index:best
          ~correlation:(best_abs /. float_of_int t.k);
        true
      end
    end

  (* Resume: replay checkpointed selections without the O(K·M)
     correlation sweeps, then run one re-fit and residual refresh —
     bitwise the state an uninterrupted run had after the same steps. *)
  let replay t ~scale support =
    t.initial_corr <- scale;
    Array.iter
      (fun j ->
        if not (accept t j) then
          invalid_arg
            "Omp.path: checkpoint replays a singular step (was it written \
             with ~on_singular:`Fallback?)")
      support;
    if t.p > 0 then
      refit_and_record t ~index:t.support.(t.p - 1) ~correlation:0.
end

let path_p ?tol ?pool ?on_singular ?log ?shards src f ~max_lambda =
  Greedy.path_p
    (module Engine)
    ?pool ?log ?shards src
    (fun () -> Engine.create ?tol ?on_singular src f ~max_lambda)

let fit_p ?tol ?pool ?on_singular ?log ?shards src f ~lambda =
  let steps =
    path_p ?tol ?pool ?on_singular ?log ?shards src f ~max_lambda:lambda
  in
  if Array.length steps = 0 then
    Model.make ~basis_size:(Provider.cols src) ~support:[||] ~coeffs:[||]
  else steps.(Array.length steps - 1).model

let fit ?tol ?pool ?on_singular g f ~lambda =
  fit_p ?tol ?pool ?on_singular (Provider.dense g) f ~lambda
