open Linalg

let fit ?(unpenalized = [||]) g f ~reg =
  if reg <= 0. then invalid_arg "Ridge.fit: regularization must be positive";
  if Array.length f <> Mat.rows g then
    invalid_arg "Ridge.fit: response length mismatch";
  let m = Mat.cols g in
  let exempt = Array.make m false in
  Array.iter
    (fun j ->
      if j < 0 || j >= m then invalid_arg "Ridge.fit: unpenalized column out of range";
      exempt.(j) <- true)
    unpenalized;
  let gram = Mat.gram g in
  for j = 0 to m - 1 do
    if not exempt.(j) then
      Mat.unsafe_set gram j j (Mat.unsafe_get gram j j +. reg)
  done;
  let rhs = Mat.tmulv g f in
  let alpha = Cholesky.spd_solve gram rhs in
  Model.dense ~basis_size:m alpha

let fit_cv ?unpenalized rng ~folds ~regs g f =
  if Array.length regs = 0 then invalid_arg "Ridge.fit_cv: empty grid";
  let n = Mat.rows g in
  let plan = Stat.Crossval.make_plan rng ~n ~folds in
  let fold_curves =
    (Stat.Crossval.run_fold_curves_multi ~outputs:1 plan
       ~fit_curves:(fun jobs finish ->
         Array.iteri
           (fun i (_, _, train, held_out) ->
             let g_tr = Mat.select_rows g train in
             let f_tr = Array.map (fun i -> f.(i)) train in
             let g_ho = Mat.select_rows g held_out in
             let f_ho = Array.map (fun i -> f.(i)) held_out in
             finish i
               (Array.map
                  (fun reg ->
                    let m = fit ?unpenalized g_tr f_tr ~reg in
                    Model.error_on m g_ho f_ho)
                  regs))
           jobs)).(0)
  in
  let best = Stat.Crossval.argmin (Stat.Crossval.mean_curve fold_curves) in
  (fit ?unpenalized g f ~reg:regs.(best), regs.(best))
