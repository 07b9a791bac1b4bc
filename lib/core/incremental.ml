type round = { samples : int; cv_error : float; lambda : int; model : Model.t }

type result = { rounds : round array; final : Model.t; converged : bool }

let run ?(initial = 50) ?(tol = 0.05) ?(max_lambda = 100) ?(folds = 4)
    ~max_samples ~sample rng =
  if initial <= 0 then invalid_arg "Incremental.run: initial must be positive";
  if initial > max_samples then
    invalid_arg "Incremental.run: initial exceeds max_samples";
  if tol < 0. then invalid_arg "Incremental.run: negative tolerance";
  let rounds = ref [] in
  let converged = ref false in
  let k = ref initial in
  let finished = ref false in
  while not !finished do
    let g, f = sample !k in
    if Linalg.Mat.rows g <> !k || Array.length f <> !k then
      invalid_arg "Incremental.run: sample returned the wrong number of rows";
    let r =
      Select.omp ~folds (Randkit.Prng.split rng)
        ~max_lambda:(min max_lambda (max 1 (!k / folds * (folds - 1))))
        g f
    in
    let err = r.Select.curve.(r.Select.lambda - 1) in
    let this =
      { samples = !k; cv_error = err; lambda = r.Select.lambda; model = r.Select.model }
    in
    let stalled =
      match !rounds with
      | prev :: _ ->
          let improvement =
            if prev.cv_error <= 0. then 0.
            else (prev.cv_error -. err) /. prev.cv_error
          in
          improvement < tol
      | [] -> false
    in
    rounds := this :: !rounds;
    if stalled then begin
      converged := true;
      finished := true
    end
    else if !k >= max_samples then finished := true
    else k := min max_samples (2 * !k)
  done;
  let rounds = Array.of_list (List.rev !rounds) in
  {
    rounds;
    final = rounds.(Array.length rounds - 1).model;
    converged = !converged;
  }
