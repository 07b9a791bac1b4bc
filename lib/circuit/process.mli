(** Process-variation model: the bridge between the independent factors
    ΔY the modeling algorithms see and the physical device-parameter
    shifts the circuit equations consume.

    Structure mirrors a foundry statistical model at 65 nm:

    - a small block of {e inter-die} (global) parameters — correlated
      across the die, e.g. ΔV_TH(global), ΔT_OX, ΔL, mobility, sheet
      resistance. Their correlation is whitened by PCA (Section II of
      the paper: "After PCA based on foundry data, … independent random
      variables are extracted").
    - per-device {e intra-die mismatch} parameters — already
      independent by construction (Pelgrom-style local randomness),
      scaled by the device's matching sigma.

    The independent factor vector is [ΔY = [global factors; mismatch
    factors]], all standard normal. [device_shift] maps ΔY to the
    physical shifts of one device; [parasitic_shift] to the relative
    shift of one layout parasitic. *)

(** Physical shifts for one MOS device, in the units the device model
    expects. *)
type shift = {
  dvth : float;  (** threshold-voltage shift, volts *)
  dbeta_rel : float;  (** relative µ·Cox·W/L (current-factor) shift *)
  dlen_rel : float;  (** relative channel-length shift *)
}

type spec = {
  n_global : int;  (** raw correlated inter-die parameters *)
  global_corr : float;  (** pairwise correlation of the raw globals *)
  n_devices : int;
  mismatch_vars_per_device : int;  (** ≥ 3: vth, beta, length, … *)
  n_parasitics : int;
  vth_sigma_global : float;  (** volts, 1σ inter-die V_TH *)
  vth_sigma_local : float;  (** volts, 1σ mismatch V_TH for unit device *)
  beta_sigma_rel : float;  (** relative 1σ current-factor mismatch *)
  len_sigma_rel : float;  (** relative 1σ length variation *)
  parasitic_sigma_rel : float;  (** relative 1σ parasitic R/C variation *)
}

val default_spec : spec
(** 65 nm-flavoured defaults (V_TH global σ = 15 mV, local σ = 20 mV for
    a unit device, 2% β, 1.5% L, 5% parasitics, global correlation
    0.6). *)

type t

val build : spec -> t
(** Constructs the model; runs PCA on the inter-die covariance once.
    @raise Invalid_argument on non-positive counts or correlations
    outside [0, 1). *)

val dim : t -> int
(** Total number of independent factors
    [N = n_global + n_devices·mismatch_vars_per_device + n_parasitics] —
    the dimension of ΔY. *)

val n_global_factors : t -> int

val sample : t -> Randkit.Prng.t -> Linalg.Vec.t
(** One Monte-Carlo draw of ΔY: iid standard normal of length [dim]
    (the factors are independent by construction after PCA). *)

val device_shift : t -> Linalg.Vec.t -> device:int -> area_factor:float -> shift
(** [device_shift p dy ~device ~area_factor] combines the global
    component (inter-die factors mapped back through the PCA rotation)
    with device [device]'s own mismatch factors. Mismatch sigmas scale
    as [1/√area_factor] (Pelgrom's law); [area_factor = 1] is a unit
    device. *)

val parasitic_shift : t -> Linalg.Vec.t -> parasitic:int -> float
(** Relative shift of parasitic element [parasitic] (mean 0). *)

val mismatch_factor_index : t -> device:int -> which:int -> int
(** Index into ΔY of mismatch variable [which] of device [device] —
    used by tests and by the ground-truth sparsity analysis to check
    that the solver selects physically meaningful factors. *)

val parasitic_factor_index : t -> parasitic:int -> int
