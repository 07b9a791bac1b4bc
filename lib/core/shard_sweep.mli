(** Column-sharded dictionary kernels.

    Partitions the dictionary's columns into contiguous shards; each
    shard owns a {!Polybasis.Design.Provider.window} of the design
    source and nothing else. A fleet of shards answers the provider's
    column kernels — the full sweep [Gᵀ·r], the dots of listed columns
    and the masked argmax — each shard over its window, and the parent
    lays the window answers end to end (or merges the argmax winners
    left-biased). A window kernel is the slice of the full kernel over
    its columns, bit for bit, so every answer is bitwise the unsharded
    provider's at {e any} shard count, and a solver driving a fleet
    walks the unsharded steps: it is the same solver, with its own
    screens and bounds, answered by other processes.

    Two execution modes:

    - {!Domains}: shards live in the calling image, driven in shard
      order.  Cheap; memory is the same as the unsharded fit plus a
      copy of a dense design's column blocks.
    - {!Procs}: each shard is this same executable re-exec'd
      ([fork]+[exec] immediately, safe under OCaml 5 domains) with
      [RSM_SHARD_WORKER=1], talking Marshal over its stdin/stdout.
      Each worker's peak memory is its own window — O(K·N·(order+1))
      floats for a streamed window; K·M/S for a dense one, 2·K·M/S once
      a dots query builds its column-major image — which is what lets
      an M = 10⁶ fit clear a single-image memory ceiling. A query goes
      to every worker before any reply is read, so the workers compute
      side by side. After its [Init] a worker holds no state a query
      changes, so a worker that dies (crash, OOM kill) is respawned,
      re-initialized from the original problem and asked the in-flight
      query again — fits survive shard loss with identical output.

    Host executables that use [Procs] mode {b must} call
    {!worker_entry_if_requested} before anything else in [main]. *)

type mode = Domains | Procs

val mode_to_string : mode -> string

(** {2 The shard plan}

    How one fit shards its sweeps, and how many worker recoveries its
    fleets have survived. Every solver entry point takes the plan as
    [?shards]; without one (or with one shard) the sweeps run
    unsharded. Results are bitwise identical to the unsharded run at
    every shard count, in both modes. *)

type plan = private {
  shards : int;  (** column shards; 1 = unsharded *)
  mode : mode;
  recovered : int Atomic.t;
      (** worker respawn recoveries summed over every fleet run under
          this plan ({!with_fleet} adds each fleet's count as it shuts
          down, atomically, since the per-job CV driver runs sharded
          cells on several domains at once), so a driver reports
          survived crashes without touching model notes *)
  peak_rss : float array Atomic.t;
      (** per-shard VmHWM in kB of the last fleet that finished its
          work under this plan, read as it finished — the footprint of
          a fleet that fitted; [[||]] before any. Process workers read
          their own /proc/self/status, in-image shards the parent's; 0
          where unavailable. *)
}

val plan : ?mode:string -> int -> (plan, string) result
(** [plan ~mode shards] is the plan of [shards] column shards in [mode]
    (["domain"], the default, or ["process"]; ["domains"] and ["procs"]
    are accepted too), with no recoveries yet. [Error] names the
    rejected value: ["shards must be at least 1 (got 0)"] or
    ["shard-mode must be domain or process (got \"x\")"]. *)

(** {2 The kernels} *)

(** The column kernels of one design source, as the solvers call them:
    each field is bitwise the {!Polybasis.Design.Provider} kernel of the
    same name over the whole source. *)
type kernels = {
  column_norms : unit -> Linalg.Vec.t;
      (** {!Polybasis.Design.Provider.column_norms} *)
  gram_tr : Linalg.Vec.t -> Linalg.Vec.t;
      (** {!Polybasis.Design.Provider.gram_tr}: M floats *)
  col_dots : int array -> Linalg.Vec.t -> Linalg.Vec.t -> unit;
      (** {!Polybasis.Design.Provider.col_dots}[ idx r out]: a fleet asks
          each shard for its slice of [idx] (possibly empty) and writes
          the answers to their positions in [out].
          @raise Invalid_argument on a length mismatch or an
          out-of-range column. *)
  argmax_abs : skip:bool array -> Linalg.Vec.t -> int * float;
      (** {!Polybasis.Design.Provider.argmax_abs}: a fleet ships each
          shard the skipped columns of its window as a list and keeps
          the left-most of equal winners, the lowest global index. *)
}

val with_fleet :
  ?pool:Parallel.Pool.t ->
  ?shards:plan ->
  Polybasis.Design.Provider.t ->
  (kernels -> 'a) ->
  'a
(** [with_fleet ~shards src f] is [f] applied to [src]'s own kernels
    (over [pool]) without a plan or with a one-shard plan, else to the
    kernels of a fresh fleet of [min plan.shards (cols src)] contiguous
    shards in [plan.mode] — the fleet lifecycle of every sharded solver
    run. The fleet is shut down however [f] exits, its worker recoveries
    added to the plan's count first, and its per-shard peak RSS is
    stored in the plan when [f] returns. In-image shards run their
    window kernels over [pool]; process workers run single-domain pools
    of their own. Each query goes to every shard in shard order. *)

val worker_entry_if_requested : unit -> unit
(** When RSM_SHARD_WORKER=1 is set, runs the worker protocol loop on
    stdin/stdout and exits — never returns.  Otherwise does nothing.
    Call it as the first statement of any [main] that may drive
    process shards.

    The RSM_SHARD_FAULT environment variable (format ["<shard>:<n>"])
    makes that worker SIGKILL itself on its [n]-th query — sweep, dots
    or argmax — the deterministic crash hook behind the recovery tests
    and the CI kill smoke.  Parents strip it when respawning, so the
    replacement survives. *)
