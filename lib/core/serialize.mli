(** Plain-text persistence for fitted models.

    A fitted sparse model is tiny (tens of coefficients for a
    21 311-function dictionary), so a human-readable format costs
    nothing and lets models move between runs, the CLI and other tools.

    Format (version 1):
    {v
    rsm-model 1
    #note <text>            (0+ lines: model provenance notes)
    basis_size <M>
    nnz <n>
    <index> <coefficient>   (n lines, %.17g round-trip precision)
    v}
    Lines starting with [#] are ignored, except [#note ] lines which
    round-trip the model's {!Model.notes} (older parsers skip them as
    comments). *)

val to_string : Model.t -> string

val of_string : string -> (Model.t, string) result
(** Parse; [Error msg] describes the first problem found (bad header,
    wrong counts, duplicate or out-of-range indices, malformed
    numbers). *)

val save : string -> Model.t -> unit
(** [save path m] writes the model to [path] through a temp file and a
    rename, so a crash mid-write leaves the previous file whole.
    @raise Sys_error on IO failure. *)

val load : string -> (Model.t, string) result
(** [load path] reads a model back. IO failures are reported as
    [Error]. *)

val digest_string : string -> int64
(** FNV-1a 64-bit digest of a byte string. The serving loader
    ([Serve.Eval.load]) digests a model file's bytes, so a caller that
    pins the digest refuses a swapped or corrupted file. *)

val digest : Model.t -> int64
(** [digest m] is {!digest_string} of {!to_string}[ m] — the content
    identity a saved copy of [m] would have. Sensitive to notes and to
    coefficient bit patterns. *)

(** Crash-safe persistence of walk and cross-validation progress.

    Two records share one writer — write-then-rename, like {!save} —
    and one line reader: a header naming the format, then one
    ["<name> <value>"] line per field, an empty value printing as the
    bare name. A file parses only when its bytes are exactly what
    [to_string] writes for the record read, so every accepted file
    round-trips. Files of the formats these records replaced
    ([rsm-ckpt 1], [rsm-ckpt 2], [rsm-cv-ckpt 1], [rsm-multi-ckpt 1])
    are refused with an [Error] naming the old format: a checkpoint is
    resume state, so the remedy is to rerun without resuming. *)
module Checkpoint : sig
  (** {2 The walk log}

      Every solver the paper compares is a path walk, and one event log
      describes each: the column that entered, was banned or was
      dropped at each step, plus the step length γ where the walk has
      one (LAR and lasso; a greedy walk records [0]). A resume replays
      the events against the design provider without the O(K·M)
      correlation sweeps, then captures the record the replayed walk
      would emit and compares it with the loaded one ({!verify}), so a
      log from different data, another solver or another
      [on_singular] policy is refused. For a greedy walk (OMP, STAR)
      [active] is the support in selection order, [banned] is empty and
      every event is an entry.

      Format (version 3):
      {v
      rsm-ckpt 3
      solver <omp|star|lar|lasso>
      k <K>
      m <M>
      scale <initial correlation, %.17g>
      active <j_0> ... <j_{a-1}>     (insertion order)
      signs <s_0> ... <s_{a-1}>      (+1/-1, aligned with active)
      banned <j> ...                 (possibly empty)
      nsteps <E>
      event <added> <banned> <dropped> <gamma>   (E lines, -1 = none)
      nnotes <N>
      note <text>                    (N lines)
      mu_digest <hex64>
      beta_digest <hex64>
      v} *)

  type event = {
    added : int;  (** entering column this step, or -1 *)
    banned : int;  (** column banned as dependent this step, or -1 *)
    dropped : int;  (** lasso zero-crossing drop this step, or -1 *)
    gamma : float;  (** step length along the equiangular direction *)
  }

  type t = {
    solver : string;  (** "omp", "star", "lar" or "lasso" *)
    k : int;  (** sample count the walk ran with *)
    m : int;  (** dictionary size the walk ran with *)
    scale : float;  (** initial correlation (stopping-test reference) *)
    active : int array;  (** active set (greedy: support) in insertion order *)
    signs : int array;
        (** signs of the active columns' residual correlations, +1/-1 *)
    banned : int array;  (** columns excluded as linearly dependent *)
    events : event array;  (** one entry per completed step *)
    notes : string array;  (** degradation notes accumulated so far *)
    mu_digest : int64;
        (** digest of the walk's K-vector state: the fit vector of a
            LAR/lasso walk, the residual of a greedy walk *)
    beta_digest : int64;  (** digest of the coefficient vector *)
  }

  val digest : float array -> int64
  (** FNV-1a 64-bit over the IEEE-754 bit patterns, in index order.
      Bitwise-sensitive: any ULP difference changes the digest. *)

  val to_string : t -> string

  val of_string : string -> (t, string) result
  (** [Error] names the first problem: an old or unknown header, a
      missing or malformed field, an index out of range, a non-finite
      scale or step length, or bytes [to_string] would not write. *)

  val save : string -> t -> unit
  (** Atomic write (temp file + rename): a crash mid-checkpoint never
      corrupts the previous good checkpoint.
      @raise Sys_error on IO failure. *)

  val load : string -> (t, string) result

  (** {2 The walk drivers' log, resume check and emission rule}

      {!Greedy.path_p} (OMP, STAR) and the LARS walk ({!Lars.path_p})
      both use these; [who] prefixes every message, e.g.
      ["Omp.path: "]. *)

  type log = private {
    every : int;
        (** emission cadence in completed steps; 0 = only the final log *)
    save : (t -> unit) option;
        (** receives each emitted log (typically {!val:save}[ file]); no
            emission without it *)
    resume : t option;  (** a log to replay before the first live step *)
  }
  (** How one walk writes and resumes its log. Every walk entry point
      takes it as [?log]; without one the walk neither emits nor
      resumes. *)

  val log :
    ?every:int -> ?save:(t -> unit) -> ?resume:t -> unit ->
    (log, string) result
  (** [log ~every ~save ~resume ()] (defaults: [every = 0], no [save], no
      [resume]). [Error "negative checkpoint interval"] on [every < 0]. *)

  val check_problem : who:string -> solver:string -> k:int -> m:int -> t -> unit
  (** Refuses a log of another solver or another problem shape.
      @raise Invalid_argument naming the mismatch. *)

  val verify : who:string -> expected:t -> t -> unit
  (** [verify ~who ~expected got] compares a replayed walk's capture
      [got] with the loaded log field by field: the active and banned
      sets, the notes, the fit-vector and coefficient digests, the
      signs, then the whole record.
      @raise Invalid_argument on the first disagreement, e.g.
      ["fit-vector digest mismatch (different data or flags?)"]. *)

  val emitter :
    log option -> start:int -> (unit -> t) -> final:bool -> int -> unit
  (** [emitter log ~start capture] is the one emission rule: the
      returned [emit ~final n], called after each step with the walk's
      event count [n], hands [capture ()] to [log.save] when [n] passed
      the last emission ([start] at first) and either [log.every > 0]
      divides [n] or [final] is set — so a finished walk always leaves
      its full log. *)

  (** {2 The CV cell}

      One finished (output, fold) cell of a cross-validation grid: its
      held-out error curve at %.17g (exact double round-trip), so
      averaging loaded and refitted curves in fold order is bitwise
      identical to the uninterrupted sweep. Each cell carries the
      whole grid's shape and [plan_digest] fingerprints the shuffled
      fold-assignment plan, so a cell from a different seed, dataset
      size, fold count, output count or λ grid is refused rather than
      blended in.

      Format (version 2):
      {v
      rsm-cv-ckpt 2
      output <r>
      outputs <R>
      fold <q>
      folds <Q>
      n <samples>
      max_lambda <L>
      plan_digest <hex64>
      curve <e_1> ... <e_L>          (%.17g)
      v} *)
  module Cell : sig
    type t = {
      output : int;  (** output index in [0, outputs) *)
      outputs : int;
      fold : int;  (** fold index in [0, folds) *)
      folds : int;
      n : int;  (** dataset size the plan was built for *)
      max_lambda : int;
      plan_digest : int64;  (** FNV-1a digest of the fold-assignment plan *)
      curve : float array;  (** held-out error per λ, length max_lambda *)
    }

    val plan_digest : int array -> int64
    (** FNV-1a 64-bit over the per-sample fold assignments. *)

    val file : string -> outputs:int -> int -> int -> string
    (** [file base ~outputs r q] is cell [(r, q)]'s path:
        ["<base>.fold<q>"] when [outputs = 1],
        ["<base>.out<r>.fold<q>"] otherwise. *)

    val to_string : t -> string

    val of_string : string -> (t, string) result

    val save : string -> t -> unit
    (** Atomic write, like {!val:Checkpoint.save}.
        @raise Sys_error on IO failure. *)

    val load : string -> (t, string) result
  end
end

val to_expression : Model.t -> Polybasis.Basis.t -> string
(** Human-readable analytic form of the model, e.g.
    ["f = 893.25 + 22.53*y3 - 6.17*(y9^2 - 1)/sqrt2 + ..."] — the
    response-surface equation a datasheet or report would quote.
    Normalized Hermite factors are spelled out so the expression is
    directly evaluable.
    @raise Invalid_argument when the basis size disagrees. *)
