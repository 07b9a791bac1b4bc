(** Q-fold cross-validation (Section IV-C, Fig. 2 of the paper).

    Each run fits on the union of Q−1 groups and scores the held-out
    group at every candidate λ, so a run returns a whole error curve,
    matching the paper's description that "εq is not simply a value,
    but a 1-D function of λ"; the curves are averaged. *)

type plan = { folds : int; assignment : int array }
(** A fold assignment over [n] sample indices. *)

val make_plan : Randkit.Prng.t -> n:int -> folds:int -> plan
(** Balanced random assignment (Fig. 2's partition into Q groups). *)

val fold_indices : plan -> int -> int array * int array
(** [fold_indices plan q] is [(train, held_out)] for run [q]. *)

type fold_cache = {
  load : int -> float array option;
      (** [load q] returns fold [q]'s previously computed curve, or
          [None] to fit it. Called sequentially, in fold order, before
          any fold is fitted. *)
  store : int -> float array -> unit;
      (** [store q curve] persists a freshly fitted fold curve, possibly
          from a worker domain: stores for distinct folds must not share
          unsynchronized state. *)
}
(** Hook for per-fold checkpointing of a λ-sweep: a killed CV run
    refits only the folds [load] cannot supply. The IO itself (file
    naming, validation against the plan) lives with the caller — see
    [Rsm.Select]. *)

val run_fold_curves_multi :
  ?caches:fold_cache option array ->
  outputs:int ->
  plan ->
  fit_curves:
    ((int * int * int array * int array) array ->
    (int -> float array -> unit) -> unit) ->
  float array array array
(** [run_fold_curves_multi ~outputs plan ~fit_curves] runs the λ-curve
    grid of [R = outputs] responses sharing one fold plan, indexed
    [.(r).(q)]. Every (output, fold) cell whose curve is not cached is
    handed to {e one} call [fit_curves jobs finish], with
    [jobs = [| (r, q, train, held_out); … |]] output-major, folds
    ascending within each output; the caller calls [finish i curve]
    once per job [jobs.(i)], in any order and possibly from a worker
    domain. One call lets the caller fit the cells one at a time or
    drive all R×Q solvers in lockstep (see [Rsm.Select]).

    [?caches] supplies one optional {!fold_cache} per output: loads run
    sequentially, output-major, before [fit_curves]; [finish] stores
    each fresh curve at once, so a killed grid resumes with every
    finished cell. A stored curve is the bitwise result of the fit
    (text checkpoints must round-trip at full precision, e.g.
    ["%.17g"]), so a resumed grid returns exactly the bits of an
    uninterrupted one.
    @raise Invalid_argument when [outputs < 1], when [caches] has the
    wrong length, or when [fit_curves] returns with a job unfinished. *)

val run_curves :
  ?pool:Parallel.Pool.t -> plan ->
  fit_curve:(train:int array -> held_out:int array -> float array) ->
  float array
(** [run_curves plan ~fit_curve] supports λ-sweeps: each run returns the
    error at every candidate λ measured on its held-out group; the
    result is the pointwise average curve ε(λ). All runs must return
    curves of equal length. With [?pool] the Q runs execute fold-parallel (one fold per chunk),
    so [fit_curve] must not share mutable state across calls; the
    curves are averaged in fold order after all folds complete, so the
    result is bitwise identical to the sequential run at every domain
    count.
    @raise Invalid_argument on curves of different lengths. *)

val argmin : float array -> int
(** Index of the smallest entry (first on ties); NaNs are ignored unless
    all entries are NaN, in which case index 0 is returned. *)
