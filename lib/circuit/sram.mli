(** SRAM read path (Fig. 5 of the paper): cell array, replica column for
    self-timing, sense amplifier, word-line driver and output buffer.

    The modeled performance is the {b read delay} from the word line
    (WL) rising to the sense-amplifier output (Out):

    [delay = t_wl_driver + t_replica + t_sense + t_buffer]

    where the bitline differential developed while the replica timer
    runs must overcome the sense-amp input offset — a ratio inside a
    logarithm, making the delay a smooth nonlinear function of the
    mismatch variables.

    Variation space: each transistor carries 3 mismatch variables
    (ΔV_TH, Δβ, ΔL). With [cells] 6-T cells, 20 peripheral transistors
    (sense amp 6, replica inverters 6, WL driver 4, output buffer 4) and
    10 inter-die parameters, the factor dimension is
    [18·cells + 60 + 10]. The paper-size configuration uses
    {b 1180 cells → exactly 21 310 factors}, matching Section V-B.

    Sparsity ground truth: the delay depends strongly on ~40 factors
    (the accessed cell, the replica cells, the sense amp, the drivers
    and the globals); the other ~21 000 factors enter only through an
    aggregate bitline-leakage term with per-cell weights of order 10⁻⁵ —
    the "large number of model coefficients close to zero" of Fig. 6. *)

type t

val build : ?cells:int -> unit -> t
(** [build ()] is the paper-size array (1180 cells, 21 310 factors).
    [~cells] scales the array down for tests and quick benches
    (e.g. [~cells:100] → 1870 factors).
    @raise Invalid_argument for fewer than 10 cells. *)

val paper_cells : int
(** 1180 — the cell count that reproduces the paper's 21 310 factors. *)

val dim : t -> int

val process : t -> Process.t

val read_delay_ps : t -> Linalg.Vec.t -> float
(** Read delay in picoseconds at factor vector ΔY. *)

val nominal_delay_ps : t -> float

val simulator : t -> Simulator.t
(** Table IV accounting: 29 130 s / 1000 samples = 29.13 s per Spectre
    run of the read path. *)

val accessed_cell : int
(** Index of the cell whose read is timed (cell 0). *)

val important_factors : t -> int array
(** Ground-truth strongly-coupled factor indices (globals, accessed
    cell, sense amp, drivers) — used by tests to verify that the sparse
    solvers select physically meaningful variables. *)
