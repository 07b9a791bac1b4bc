(** Ring-oscillator workload — a digital-flavoured third circuit.

    An odd-length chain of CMOS inverters; the oscillation frequency is
    [1/(2·Σ stage delays)] and the dynamic power is [f·C·V²·stages].
    Unlike the OpAmp (few devices, sharply sparse) and the SRAM (huge
    array, near-zero background), the ring oscillator's frequency
    depends on {e every} stage with {e equal} weight — the
    "dense-but-small-coefficients" regime where each of the 2·stages
    transistors carries a 1/stages share of the variance and the
    inter-die factors dominate. This stresses the solvers' behaviour
    when the true model is {e not} profoundly sparse, the boundary
    case the paper's Section III discussion anticipates (sparsity is a
    necessary condition for the method to win). *)

type metric = Frequency | Power

type t

val build : ?stages:int -> unit -> t
(** [build ()] is a 101-stage ring (202 transistors, 3 mismatch
    variables each, 10 inter-die factors → 616 factors).
    @raise Invalid_argument for even or < 3 stages. *)

val stages : t -> int

val dim : t -> int

val process : t -> Process.t

val eval : t -> metric -> Linalg.Vec.t -> float

val nominal : t -> metric -> float

val simulator : t -> metric -> Simulator.t
(** Per-sample cost accounted at 2.1 s (a small transient analysis). *)
