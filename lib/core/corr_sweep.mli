(** The names of the correlation engine that the end-to-end benchmark
    and the CLI's report read. The sweep kernels themselves, and their
    bitwise contract, are {!Polybasis.Design.Provider}'s; the solvers
    call them there. *)

type sweep =
  | Exact  (** full O(K·M) sweep every step — the only sweep *)
(** The correlation engine of a path solver, of which there is one. A
    Gram-cached incremental engine was retired once the LAR step-length
    screen ran in every driver, sharded fits included. The type and
    {!Select.omp_p}/{!Select.lars_p}'s [?sweep] stay because the
    end-to-end benchmark passes the [Robust.Pipeline.config] field
    [sweep] to those two selectors. *)

val sweep_to_string : sweep -> string
(** ["exact"], the word the CLI's [sweep engine] report line prints. *)

val argmax_abs :
  ?pool:Parallel.Pool.t ->
  skip:bool array ->
  Polybasis.Design.Provider.t ->
  Linalg.Vec.t ->
  int * float
(** {!Polybasis.Design.Provider.argmax_abs}, which the end-to-end
    benchmark's sweep probe times. *)

val gram_tr_multi :
  ?pool:Parallel.Pool.t ->
  Polybasis.Design.Provider.t ->
  rows:int array array ->
  Linalg.Vec.t array ->
  Linalg.Vec.t array
(** {!Polybasis.Design.Provider.gram_tr_multi}, which the end-to-end
    benchmark's fused-sweep probe times. *)
