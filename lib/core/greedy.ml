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
  val deltas : t -> (int * float) array
  val replay : t -> scale:float -> int array -> unit
  val steps : t -> step array
  val models : t -> Model.t array
end

(* Who answers the selection sweep. *)
type backend = Exact | Inc of Corr_sweep.Inc.t | Shards of Shard_sweep.t

let path_p (type e s) (module E : ENGINE with type t = e and type step = s)
    ?pool ?(checkpoint_every = 0) ?on_checkpoint ?resume
    ?(sweep = Corr_sweep.Exact) ?(shards = 1)
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
  (* The backend is built after any replay, so its initial sweeps see
     the resumed residual — the same refresh point the uninterrupted
     run hit when it emitted the checkpoint. Shards re-activate the
     replayed support up front (skip masks and Gram slabs); the
     unsharded incremental state caches Gram columns on first use. *)
  Shard_sweep.with_fleet ?pool ?recovered ~mode:shard_mode ~shards ~sweep src
    ~r0:(E.residual eng)
  @@ fun fleet ->
  let backend =
    match (fleet, sweep) with
    | Some e, _ ->
        Array.iter
          (fun j -> Shard_sweep.activate e j (E.column eng j))
          (E.support eng);
        Shards e
    | None, Corr_sweep.Exact -> Exact
    | None, Corr_sweep.Incremental { refresh } ->
        Inc (Corr_sweep.Inc.create ?pool ~refresh src (E.residual eng))
  in
  let refresh () =
    match backend with
    | Exact -> ()
    | Inc ic -> Corr_sweep.Inc.refresh ic (E.residual eng)
    | Shards e -> Shard_sweep.refresh e (E.residual eng)
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
        last_ckpt := E.size eng;
        (* Checkpoint-aligned exact refresh: a resumed incremental run
           starts from an exact sweep here, so refreshing now keeps the
           uninterrupted run bitwise equal to any resumed one. *)
        refresh ())
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
      | Inc ic -> Corr_sweep.Inc.argmax_abs ~skip:(E.skip_mask eng) ic
      | Shards e -> Shard_sweep.select e ~r:(E.residual eng)
    in
    if E.advance eng pick then begin
      (* Delta update c ← c − Σ Δβ_j·v_j replacing the next full sweep,
         with an exact refresh whenever the cadence is due. *)
      (match backend with
      | Exact -> ()
      | Inc ic ->
          let deltas = E.deltas eng in
          Array.iter
            (fun (j, _) -> Corr_sweep.Inc.ensure_gram ic j (E.column eng j))
            deltas;
          Corr_sweep.Inc.apply_deltas ic deltas;
          Corr_sweep.Inc.note_step ic;
          if Corr_sweep.Inc.due ic then refresh ()
      | Shards e ->
          let j = fst pick in
          Shard_sweep.activate e j (E.column eng j);
          if Shard_sweep.incremental e then begin
            Shard_sweep.apply_deltas e (E.deltas eng);
            Shard_sweep.note_step e;
            if Shard_sweep.due e then refresh ()
          end);
      if checkpoint_every > 0 && E.size eng mod checkpoint_every = 0 then
        emit ()
    end
  done;
  (* Terminal checkpoint: when the path length is not a multiple of the
     cadence the test above skips the final selections, and a resume
     would replay a stale prefix — always leave the completed support. *)
  if E.size eng > !last_ckpt then emit ();
  E.steps eng
