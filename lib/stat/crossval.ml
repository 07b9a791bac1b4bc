type plan = { folds : int; assignment : int array }

let make_plan g ~n ~folds =
  { folds; assignment = Randkit.Sampling.fold_assignment g ~n ~folds }

let fold_indices plan q =
  if q < 0 || q >= plan.folds then invalid_arg "Crossval.fold_indices: bad fold";
  Randkit.Sampling.fold_split plan.assignment q

type fold_cache = {
  load : int -> float array option;
  store : int -> float array -> unit;
}

(* R responses share one fold plan, and every (output, fold) cell whose
   curve is not cached is handed to [fit_curves] in one flat call
   (output-major, fold ascending), so the caller picks how to drive the
   grid: job at a time, or all R×Q solvers in lockstep. Loads happen
   sequentially up front, so cache IO never races with the fits; each
   fresh curve is stored the moment the caller finishes its cell, so a
   killed grid resumes with every finished cell. *)
let run_fold_curves_multi ?caches ~outputs plan ~fit_curves =
  if outputs < 1 then
    invalid_arg "Crossval.run_fold_curves_multi: outputs must be positive";
  let cache_of r =
    match caches with
    | None -> None
    | Some cs ->
        if Array.length cs <> outputs then
          invalid_arg "Crossval.run_fold_curves_multi: cache count mismatch";
        cs.(r)
  in
  let cached =
    Array.init outputs (fun r ->
        match cache_of r with
        | None -> Array.make plan.folds None
        | Some c -> Array.init plan.folds c.load)
  in
  let pending = ref [] in
  for r = outputs - 1 downto 0 do
    for q = plan.folds - 1 downto 0 do
      if cached.(r).(q) = None then begin
        let train, held_out = fold_indices plan q in
        pending := (r, q, train, held_out) :: !pending
      end
    done
  done;
  let pending = Array.of_list !pending in
  if Array.length pending > 0 then
    fit_curves pending (fun i curve ->
        let r, q, _, _ = pending.(i) in
        (match cache_of r with None -> () | Some c -> c.store q curve);
        cached.(r).(q) <- Some curve);
  Array.map
    (Array.map (function
      | Some c -> c
      | None -> invalid_arg "Crossval.run_fold_curves_multi: a cell got no curve"))
    cached

let mean_curve curves =
  let fq = float_of_int (Array.length curves) in
  Array.init (Array.length curves.(0)) (fun l ->
      Array.fold_left (fun acc c -> acc +. (c.(l) /. fq)) 0. curves)

let argmin curve =
  if Array.length curve = 0 then invalid_arg "Crossval.argmin: empty curve";
  let best = ref 0 and best_v = ref Float.infinity in
  Array.iteri
    (fun i v ->
      if (not (Float.is_nan v)) && v < !best_v then begin
        best := i;
        best_v := v
      end)
    curve;
  !best
