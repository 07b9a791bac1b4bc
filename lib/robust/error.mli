(** Structured errors for the fault-tolerant fitting pipeline.

    Every failure the pipeline can hit — bad user input, a simulator
    that never delivered enough samples, a numerical dead end, an I/O
    problem — is folded into one variant so callers (the CLI above all)
    can print a single friendly line and pick an exit code instead of
    leaking an OCaml backtrace. *)

type t =
  | Invalid_input of string  (** bad arguments, malformed files, bad flags *)
  | Config of string
      (** flags that are individually valid but mutually contradictory —
          a request the engine cannot honor (e.g. adaptive retry on a
          multi-output fit, or projection without the ziggurat
          sampler); distinct from [Invalid_input] so scripts can grep
          the [config:] category *)
  | Simulation of string  (** the sample campaign failed or fell short *)
  | Numerical of string  (** every fallback rung exhausted *)
  | Io of string  (** filesystem-level failure *)
  | Internal of string  (** an unexpected exception — a bug, report it *)

val message : t -> string
(** The bare description, without the category. *)

val to_string : t -> string
(** ["<category>: <description>"] — the CLI's one-line diagnostic. *)

val of_exn : exn -> t
(** Classify a raised exception: [Invalid_argument]/[Failure] become
    [Invalid_input], [Sys_error] becomes [Io],
    {!Linalg.Cholesky.Not_positive_definite} / {!Linalg.Tri.Singular} /
    {!Linalg.Lu.Singular} become [Numerical], anything else is
    [Internal] (with [Printexc.to_string]). *)

val guard : (unit -> 'a) -> ('a, t) result
(** [guard f] runs [f] and catches any exception into [Error (of_exn e)].
    Runtime-fatal exceptions ([Out_of_memory], [Stack_overflow]) are
    re-raised, not captured. *)
