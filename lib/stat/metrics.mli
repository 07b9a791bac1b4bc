(** Model-accuracy metrics.

    The paper reports "modeling error" as a percentage measured on an
    independent testing set (e.g. 4.09% for OMP on the SRAM read path).
    Following the convention of Li's RSM papers, [relative_rms] is the
    primary metric: the RMS prediction error normalized by the RMS of
    the true performance *variation* (standard deviation), so a model
    predicting only the mean scores 100%. *)

val relative_rms : pred:float array -> truth:float array -> float
(** [‖pred − truth‖₂ / ‖truth − mean(truth)‖₂]: the paper's modeling
    error. Returns [nan] when the truth is constant. *)

val max_abs_error : pred:float array -> truth:float array -> float
