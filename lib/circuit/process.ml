open Linalg

type shift = { dvth : float; dbeta_rel : float; dlen_rel : float }

type spec = {
  n_global : int;
  global_corr : float;
  n_devices : int;
  mismatch_vars_per_device : int;
  n_parasitics : int;
  vth_sigma_global : float;
  vth_sigma_local : float;
  beta_sigma_rel : float;
  len_sigma_rel : float;
  parasitic_sigma_rel : float;
}

let default_spec =
  {
    n_global = 10;
    global_corr = 0.6;
    n_devices = 8;
    mismatch_vars_per_device = 5;
    n_parasitics = 0;
    vth_sigma_global = 0.015;
    vth_sigma_local = 0.020;
    beta_sigma_rel = 0.02;
    len_sigma_rel = 0.015;
    parasitic_sigma_rel = 0.05;
  }

type t = {
  spec : spec;
  pca : Stat.Pca.t;
  (* Sensitivity of each physical global quantity to the raw inter-die
     parameters: rows = {vth, beta, len}, cols = raw globals. *)
  global_sens : Mat.t;
}

let build spec =
  if spec.n_global <= 0 then invalid_arg "Process.build: n_global must be positive";
  if spec.n_devices < 0 || spec.n_parasitics < 0 then
    invalid_arg "Process.build: negative counts";
  if spec.mismatch_vars_per_device < 3 then
    invalid_arg "Process.build: need at least 3 mismatch variables per device";
  if spec.global_corr < 0. || spec.global_corr >= 1. then
    invalid_arg "Process.build: global correlation must be in [0, 1)";
  (* Equi-correlated inter-die covariance: diag 1, off-diagonal rho. *)
  let n = spec.n_global in
  let sigma =
    Mat.init n n (fun i j -> if i = j then 1. else spec.global_corr)
  in
  let pca = Stat.Pca.of_covariance sigma in
  (* Deterministic, structured sensitivities of physical globals to raw
     inter-die parameters: the first raw parameters dominate V_TH, later
     ones mobility and geometry — a caricature of a real foundry deck. *)
  let raw_sens =
    Mat.init 3 n (fun q j ->
        let w = 1. /. sqrt (float_of_int (j + 1)) in
        match q with
        | 0 -> w *. (if j mod 3 = 0 then 1. else 0.4)
        | 1 -> w *. (if j mod 3 = 1 then 1. else 0.3)
        | _ -> w *. (if j mod 3 = 2 then 1. else 0.2))
  in
  (* Normalize each physical row so that Var(S_q·raw) over the correlated
     raw parameters equals exactly the specified global sigma². *)
  let targets =
    [| spec.vth_sigma_global; spec.beta_sigma_rel; spec.len_sigma_rel |]
  in
  let global_sens =
    Mat.init 3 n (fun q j ->
        let row = Mat.row raw_sens q in
        let var = Vec.dot row (Mat.mulv sigma row) in
        Mat.unsafe_get raw_sens q j *. targets.(q) /. sqrt var)
  in
  { spec; pca; global_sens }

let n_global_factors p = Stat.Pca.output_dim p.pca

let dim p =
  n_global_factors p
  + (p.spec.n_devices * p.spec.mismatch_vars_per_device)
  + p.spec.n_parasitics

let sample p g = Randkit.Gaussian.vector g (dim p)

let mismatch_factor_index p ~device ~which =
  if device < 0 || device >= p.spec.n_devices then
    invalid_arg "Process.mismatch_factor_index: device out of range";
  if which < 0 || which >= p.spec.mismatch_vars_per_device then
    invalid_arg "Process.mismatch_factor_index: mismatch variable out of range";
  n_global_factors p + (device * p.spec.mismatch_vars_per_device) + which

let parasitic_factor_index p ~parasitic =
  if parasitic < 0 || parasitic >= p.spec.n_parasitics then
    invalid_arg "Process.parasitic_factor_index: parasitic out of range";
  n_global_factors p
  + (p.spec.n_devices * p.spec.mismatch_vars_per_device)
  + parasitic

let device_shift p dy ~device ~area_factor =
  if Array.length dy <> dim p then
    invalid_arg "Process.device_shift: factor vector dimension mismatch";
  if area_factor <= 0. then
    invalid_arg "Process.device_shift: area factor must be positive";
  let ng = n_global_factors p in
  (* Global component: rotate factor scores back to raw parameters, then
     apply the physical sensitivities. *)
  let raw = Stat.Pca.unwhiten p.pca (Array.sub dy 0 ng) in
  let phys = Mat.mulv p.global_sens raw in
  (* Local component: this device's own factors, Pelgrom-scaled. *)
  let a = 1. /. sqrt area_factor in
  let m which = dy.(mismatch_factor_index p ~device ~which) in
  {
    dvth = phys.(0) +. (p.spec.vth_sigma_local *. a *. m 0);
    dbeta_rel = phys.(1) +. (p.spec.beta_sigma_rel *. a *. m 1);
    dlen_rel = phys.(2) +. (p.spec.len_sigma_rel *. a *. m 2);
  }

let parasitic_shift p dy ~parasitic =
  if Array.length dy <> dim p then
    invalid_arg "Process.parasitic_shift: factor vector dimension mismatch";
  p.spec.parasitic_sigma_rel *. dy.(parasitic_factor_index p ~parasitic)
