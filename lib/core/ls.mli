(** Traditional least-squares fitting (reference [21]) — the baseline
    the paper compares against.

    Solves the over-determined system of eq. (6) by minimizing
    [‖G·α − F‖₂²]; requires [K ≥ M] sampling points, which is precisely
    the cost the sparse methods avoid. All M coefficients come out
    (generically) non-zero. *)

val fit : ?method_:Linalg.Lstsq.method_ -> Linalg.Mat.t -> Linalg.Vec.t -> Model.t
(** [fit g f] is the dense least-squares model. Default method is QR
    (numerically robust); [~method_:Normal] solves the normal equations
    — faster for very tall systems, as used in the cost benches.
    @raise Invalid_argument when [K < M] (the system is underdetermined
    and LS is not applicable — use OMP/LAR/STAR). *)
