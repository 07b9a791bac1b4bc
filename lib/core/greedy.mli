(** The greedy path driver shared by OMP and STAR.

    Both solvers run the same eq. (18) selection sweep — pick the
    column whose inner product with the residual is largest — and
    differ only in the coefficient step: OMP re-fits every selected
    coefficient (Algorithm 1, Step 6), STAR keeps the inner-product
    estimate. Each solver writes that step as an {!ENGINE}; {!path_p}
    owns everything else: the walk log's capture, replay and check, the
    selection sweep ({!Polybasis.Design.Provider.argmax_abs}, the
    provider's or a shard fleet's) and the checkpoint cadence. The
    fused lockstep CV driver in {!Select} runs the same engines with
    one fused multi-residual sweep per round. *)

(** One greedy solver's per-step state machine. Driving an engine with
    the selections {!Polybasis.Design.Provider.argmax_abs} produces on
    its own residual is the solver's whole path, so every driver — exact,
    sharded, fused — that answers the same selections produces the
    same bits. *)
module type ENGINE = sig
  type t

  type step
  (** The solver's per-iteration record. *)

  val solver : string
  (** Checkpoint tag (["omp"], ["star"]); error messages are prefixed
      with the capitalized tag, e.g. ["Omp.path: ..."]. *)

  val max_lambda : t -> int
  (** Path length cap the engine was created with. *)

  val finished : t -> bool
  (** True once the path stopped or reached [max_lambda] steps. *)

  val size : t -> int
  (** Number of selected columns so far. *)

  val residual : t -> Linalg.Vec.t
  (** Live residual buffer (read-only; updated by {!advance}). *)

  val skip_mask : t -> bool array
  (** Live selected-column mask — the [~skip] argument for the sweep. *)

  val column : t -> int -> Linalg.Vec.t
  (** Materialized column [j] from the engine's active-set cache. *)

  val scale : t -> float
  (** The first step's winning correlation (the stopping tolerance's
      reference), as stored in checkpoints. *)

  val support : t -> int array
  (** Selected columns in selection (= replay) order. *)

  val advance : t -> int * float -> bool
  (** [advance t (j*, |c*|)] applies one selection; true iff a step was
      recorded (false = the path stopped without moving). *)

  val replay : t -> scale:float -> int array -> unit
  (** Re-accept a validated checkpoint support without correlation
      sweeps, leaving the state an uninterrupted run had after the same
      steps; the replayed state is recorded as one leading step. *)

  val steps : t -> step array
  (** Steps recorded so far, oldest first. *)

  val models : t -> Model.t array
  (** The models of {!steps}. *)
end

val path_p :
  (module ENGINE with type t = 'e and type step = 's) ->
  ?pool:Parallel.Pool.t ->
  ?log:Serialize.Checkpoint.log ->
  ?shards:Shard_sweep.plan ->
  Polybasis.Design.Provider.t ->
  (unit -> 'e) ->
  's array
(** [path_p (module E) src create] creates the engine, replays
    [log.resume], then advances the engine until it finishes and
    returns its steps. {!Omp.path_p} and {!Star.path_p} are this
    driver; the contract below is theirs.

    The walk log ({!Serialize.Checkpoint.t}: the support as entry
    events, the residual and coefficient digests) goes to [log.save]
    every [log.every] completed iterations, and once more when the path
    ends with selections past the last cadence point — a completed path
    always leaves its full log. [log.resume] replays a log (checked
    against the solver tag, the problem shape, entry-only events, the
    column range, duplicates and [max_lambda]) without the O(K·M)
    correlation sweeps, then compares the replayed walk's log with it
    ({!Serialize.Checkpoint.verify}), so a log written on other data of
    the same shape is refused; after that the path continues exactly
    where it stopped: the final model is bitwise identical to an
    uninterrupted run with the same inputs. The replayed state is
    returned as one leading step.

    Each selection is the column-parallel
    {!Polybasis.Design.Provider.argmax_abs} over [pool], bitwise
    identical to the sequential dense scan for every domain count and
    either provider form.

    A plan of more than one shard ({!type:Shard_sweep.plan}) has a
    shard fleet ({!Shard_sweep}) answer the selection sweep, each shard
    over its own column window with its slice of the skip mask: the
    walk is the unsharded one and its selections are the unsharded
    kernel's bits, at every shard count, in both shard modes ([Domains]
    in-image, [Procs] re-exec'd workers with crash recovery, counted in
    the plan). The fleet is built after the replay and shut down
    however the path exits.

    @raise Invalid_argument on a [log.resume] that disagrees with the
    problem or whose replay disagrees with the log (e.g. ["Omp.path:
    fit-vector digest mismatch (different data or flags?)"]). *)
