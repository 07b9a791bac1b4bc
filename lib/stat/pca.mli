(** Principal component analysis.

    Section II of the paper: correlated jointly-normal process variations
    [ΔX] are whitened by PCA into independent standard-normal factors
    [ΔY]. A transform is built from a known covariance (the foundry
    model, which is what the circuit substrate uses).

    With [Σ = V·Λ·Vᵀ], the whitening map is [ΔY = Λ^{-1/2}·Vᵀ·ΔX] and
    its inverse is [ΔX = V·Λ^{1/2}·ΔY]. Components with eigenvalues
    below [1e-12] of the largest are dropped, which
    is how the dimension of the independent factor space can be smaller
    than the raw parameter count. *)

type t

val of_covariance : Linalg.Mat.t -> t
(** Build the transform from a covariance matrix (mean assumed zero).
    Negative eigenvalues from numerical noise are treated as zero. *)

val input_dim : t -> int
(** Dimension of the raw parameter space. *)

val output_dim : t -> int
(** Number of retained independent factors. *)

val eigenvalues : t -> Linalg.Vec.t
(** Retained eigenvalues, decreasing. *)

val whiten : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [whiten t dx] maps a raw variation vector to independent
    standard-normal factor scores. *)

val unwhiten : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [unwhiten t dy] maps factor scores back to the raw space. *)
