type spec = { lower : float; upper : float }

let spec_both ~lower ~upper =
  if lower > upper then invalid_arg "Yield.spec_both: empty window";
  { lower; upper }

let spec_min lower = { lower; upper = Float.infinity }

let spec_max upper = { lower = Float.neg_infinity; upper }

let passes spec x = x >= spec.lower && x <= spec.upper

let gaussian model basis spec =
  if Polybasis.Basis.size basis <> model.Model.basis_size then
    invalid_arg "Yield.gaussian: basis size disagrees with model";
  Array.iter
    (fun j ->
      if Polybasis.Term.total_degree (Polybasis.Basis.term basis j) > 1 then
        invalid_arg
          "Yield.gaussian: model has nonlinear terms; use model Monte Carlo")
    model.Model.support;
  let mean = Sensitivity.mean model basis in
  let sigma = sqrt (Sensitivity.total_variance model basis) in
  if sigma = 0. then if passes spec mean then 1. else 0.
  else
    Stat.Distribution.gaussian_yield ~mean ~sigma ~lower:spec.lower
      ~upper:spec.upper
