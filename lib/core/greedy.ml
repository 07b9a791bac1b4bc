module Provider = Polybasis.Design.Provider
module Ckpt = Serialize.Checkpoint

module type ENGINE = sig
  type t
  type step

  val solver : string
  val max_lambda : t -> int
  val finished : t -> bool
  val size : t -> int
  val residual : t -> Linalg.Vec.t
  val skip_mask : t -> bool array
  val column : t -> int -> Linalg.Vec.t
  val scale : t -> float
  val support : t -> int array
  val advance : t -> int * float -> bool
  val replay : t -> scale:float -> int array -> unit
  val steps : t -> step array
  val models : t -> Model.t array
end

(* Who answers the selection sweep. *)
type backend = Exact | Shards of Shard_sweep.t

let path_p (type e s) (module E : ENGINE with type t = e and type step = s)
    ?pool ?(checkpoint_every = 0) ?on_checkpoint ?resume ?(shards = 1)
    ?(shard_mode = Shard_sweep.Domains) ?recovered src create =
  let prefix = String.capitalize_ascii E.solver ^ ".path: " in
  let fail fmt = Printf.ksprintf (fun msg -> invalid_arg (prefix ^ msg)) fmt in
  if checkpoint_every < 0 then fail "negative checkpoint interval";
  if shards < 1 then fail "shards must be positive";
  let eng = create () in
  let k = Provider.rows src and m = Provider.cols src in
  (match resume with
  | None -> ()
  | Some (c : Ckpt.t) ->
      if c.solver <> E.solver then fail "checkpoint is for solver %S" c.solver;
      if c.k <> k || c.m <> m then
        fail "checkpoint shape %dx%d disagrees with problem %dx%d" c.k c.m k m;
      if Array.length c.support > E.max_lambda eng then
        fail "checkpoint support exceeds max_lambda";
      let seen = Array.make m false in
      Array.iter
        (fun j ->
          if j < 0 || j >= m then fail "checkpoint support index out of range";
          if seen.(j) then fail "duplicate support index in checkpoint";
          seen.(j) <- true)
        c.support;
      E.replay eng ~scale:c.scale c.support);
  let last_ckpt = ref (E.size eng) in
  (* The fleet is built after any replay and re-activates the replayed
     support up front, so its skip masks match the uninterrupted run's. *)
  Shard_sweep.with_fleet ?pool ?recovered ~mode:shard_mode ~shards
    ~sweep:Corr_sweep.Exact src ~r0:(E.residual eng)
  @@ fun fleet ->
  let backend =
    match fleet with
    | Some e ->
        Array.iter
          (fun j -> Shard_sweep.activate e j (E.column eng j))
          (E.support eng);
        Shards e
    | None -> Exact
  in
  let emit () =
    Option.iter
      (fun cb ->
        cb
          {
            Ckpt.solver = E.solver;
            k;
            m;
            scale = E.scale eng;
            support = E.support eng;
          };
        last_ckpt := E.size eng)
      on_checkpoint
  in
  while not (E.finished eng) do
    (* Step 3: inner products of the residual with every basis vector.
       The 1/K factor of eq. (18) is a monotone scaling; the argmax is
       unaffected, so raw dot products are compared. *)
    let pick =
      match backend with
      | Exact ->
          Corr_sweep.argmax_abs ?pool ~skip:(E.skip_mask eng) src
            (E.residual eng)
      | Shards e -> Shard_sweep.select e ~r:(E.residual eng)
    in
    if E.advance eng pick then begin
      (match backend with
      | Exact -> ()
      | Shards e ->
          let j = fst pick in
          Shard_sweep.activate e j (E.column eng j));
      if checkpoint_every > 0 && E.size eng mod checkpoint_every = 0 then
        emit ()
    end
  done;
  (* Terminal checkpoint: when the path length is not a multiple of the
     cadence the test above skips the final selections, and a resume
     would replay a stale prefix — always leave the completed support. *)
  if E.size eng > !last_ckpt then emit ();
  E.steps eng
