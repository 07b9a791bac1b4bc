(** Standard normal sampling.

    The paper's variation model is jointly Gaussian after PCA; every
    Monte-Carlo sample the "simulator" consumes is a vector of iid
    standard normals drawn here. The Marsaglia polar method is used: no
    trig calls. {!fill} keeps both variates of each accepted pair;
    {!sample} keeps the first, and nothing is cached between calls. *)

val sample : Prng.t -> float
(** One standard normal draw, N(0, 1). *)

val sample2 : Prng.t -> float * float
(** One independent pair of standard normal draws. *)

val vector : Prng.t -> int -> Linalg.Vec.t
(** [vector g n] is a vector of [n] iid N(0, 1) draws. *)

val fill : Prng.t -> Linalg.Vec.t -> unit
(** [fill g out] overwrites [out] with iid N(0, 1) draws — the
    allocation-free form of {!vector} (identical stream consumption),
    used by the streaming Monte-Carlo evaluator to reuse one point
    buffer per batch. *)

val matrix : Prng.t -> int -> int -> Linalg.Mat.t
(** [matrix g r c] is an [r×c] matrix of iid N(0, 1) draws, filled row by
    row (so the stream position after the call is deterministic). *)

type sampler = Polar | Ziggurat
(** Which normal sampler a Monte-Carlo consumer runs.

    - [Polar]: this module — sequential, and the historical default
      everywhere, so existing seeds keep their exact bit streams.
    - [Ziggurat]: {!Ziggurat} over the counter-mode generator
      ({!Counter}) — each draw a pure function of
      [(key, point, coord)].

    The two samplers consume different stream shapes, so estimates
    agree statistically but never bitwise; record the sampler next to
    the seed. *)

val sampler_name : sampler -> string
(** ["polar"] / ["ziggurat"] — the CLI/JSON spelling. *)

val sampler_of_string : string -> sampler option
(** Inverse of {!sampler_name}. *)
