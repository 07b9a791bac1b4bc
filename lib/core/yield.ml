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
          "Yield.gaussian: model has nonlinear terms; use monte_carlo")
    model.Model.support;
  let mean = Sensitivity.mean model basis in
  let sigma = sqrt (Sensitivity.total_variance model basis) in
  if sigma = 0. then if passes spec mean then 1. else 0.
  else
    Stat.Distribution.gaussian_yield ~mean ~sigma ~lower:spec.lower
      ~upper:spec.upper

let monte_carlo_values ?(samples = 10_000) ?eval
    ?(sampler = Randkit.Gaussian.Polar) ?touched model basis rng =
  if samples <= 0 then invalid_arg "Yield.monte_carlo_values: samples <= 0";
  if Polybasis.Basis.size basis <> model.Model.basis_size then
    invalid_arg "Yield.monte_carlo_values: basis size disagrees with model";
  let eval =
    match eval with Some f -> f | None -> Model.predict_point model basis
  in
  let n = Polybasis.Basis.dim basis in
  match (sampler : Randkit.Gaussian.sampler) with
  | Polar ->
      (* Sequential draw: the full factor vector per sample keeps the
         stream deterministic, then [eval] — by default the naive
         term-by-term walk, or a compiled tape (Serve.Eval.evaluator)
         that is bitwise equal to it. The polar stream cannot skip
         coordinates without shifting later bits, so [?touched] is
         rejected here. *)
      if touched <> None then
        invalid_arg
          "Yield.monte_carlo_values: ~touched requires ~sampler:Ziggurat";
      Array.init samples (fun _ ->
          let dy = Randkit.Gaussian.vector rng n in
          eval dy)
  | Ziggurat ->
      (* Counter-mode draw: coordinate [c] of sample [s] is a pure
         function of (key, s, c), so restricting the fill to [touched]
         reproduces the full draw's bits on those coordinates — the
         values are identical as long as [eval] reads only touched
         coordinates (untouched entries of the shared buffer stay 0). *)
      let key = Randkit.Counter.of_prng rng in
      Option.iter
        (Array.iter (fun c ->
             if c < 0 || c >= n then
               invalid_arg
                 "Yield.monte_carlo_values: touched coordinate out of range"))
        touched;
      let dy = Array.make n 0. in
      let words = Bytes.create (8 * n) in
      Array.init samples (fun s ->
          Randkit.Ziggurat.fill_at key ~point:s ?vars:touched ~words dy;
          eval dy)

let joint_monte_carlo ?(samples = 10_000) specs basis rng =
  if specs = [] then invalid_arg "Yield.joint_monte_carlo: no specs";
  if samples <= 0 then invalid_arg "Yield.joint_monte_carlo: samples <= 0";
  List.iter
    (fun (m, _) ->
      if Polybasis.Basis.size basis <> m.Model.basis_size then
        invalid_arg "Yield.joint_monte_carlo: basis size disagrees with a model")
    specs;
  let n = Polybasis.Basis.dim basis in
  let pass = ref 0 in
  for _ = 1 to samples do
    let dy = Randkit.Gaussian.vector rng n in
    if
      List.for_all
        (fun (m, spec) -> passes spec (Model.predict_point m basis dy))
        specs
    then incr pass
  done;
  let y = float_of_int !pass /. float_of_int samples in
  let se = sqrt (Float.max (y *. (1. -. y)) 0. /. float_of_int samples) in
  (y, se)

let monte_carlo ?samples ?eval ?sampler ?touched model basis rng spec =
  let values =
    monte_carlo_values ?samples ?eval ?sampler ?touched model basis rng
  in
  let k = Array.length values in
  let pass = Array.fold_left (fun acc v -> if passes spec v then acc + 1 else acc) 0 values in
  let y = float_of_int pass /. float_of_int k in
  let se = sqrt (Float.max (y *. (1. -. y)) 0. /. float_of_int k) in
  (y, se)
