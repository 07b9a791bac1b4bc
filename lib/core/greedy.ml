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
    ?pool ?log ?shards src create =
  let who = String.capitalize_ascii E.solver ^ ".path: " in
  let fail msg = invalid_arg (who ^ msg) in
  let eng = create () in
  let k = Provider.rows src and m = Provider.cols src in
  (* The walk log of a greedy path: its support as entry events, and
     its residual and last model's coefficients as the state digests. *)
  let capture () =
    let support = E.support eng and r = E.residual eng in
    let notes, coeffs =
      match E.models eng with
      | [||] -> ([||], [||])
      | ms ->
          let md = ms.(Array.length ms - 1) in
          (Model.notes md, md.Model.coeffs)
    in
    {
      Ckpt.solver = E.solver;
      k;
      m;
      scale = E.scale eng;
      active = support;
      signs =
        Array.map
          (fun j -> if Linalg.Vec.dot (E.column eng j) r >= 0. then 1 else -1)
          support;
      banned = [||];
      events =
        Array.map
          (fun j -> { Ckpt.added = j; banned = -1; dropped = -1; gamma = 0. })
          support;
      notes;
      mu_digest = Ckpt.digest r;
      beta_digest = Ckpt.digest coeffs;
    }
  in
  (match Option.bind log (fun l -> l.Ckpt.resume) with
  | None -> ()
  | Some (c : Ckpt.t) ->
      Ckpt.check_problem ~who ~solver:E.solver ~k ~m c;
      let support =
        Array.map
          (fun (e : Ckpt.event) ->
            if e.banned >= 0 || e.dropped >= 0 || e.gamma <> 0. then
              fail "checkpoint event is not a greedy entry";
            e.added)
          c.events
      in
      if Array.length support > E.max_lambda eng then
        fail "checkpoint support exceeds max_lambda";
      let seen = Array.make m false in
      Array.iter
        (fun j ->
          if j < 0 || j >= m then fail "checkpoint support index out of range";
          if seen.(j) then fail "duplicate support index in checkpoint";
          seen.(j) <- true)
        support;
      E.replay eng ~scale:c.scale support;
      Ckpt.verify ~who ~expected:c (capture ()));
  let emit = Ckpt.emitter log ~start:(E.size eng) capture in
  (* The fleet is built after any replay and re-activates the replayed
     support up front, so its skip masks match the uninterrupted run's. *)
  Shard_sweep.with_fleet ?pool ?shards src
  @@ fun fleet ->
  let backend =
    match fleet with
    | Some e ->
        Array.iter (Shard_sweep.activate e) (E.support eng);
        Shards e
    | None -> Exact
  in
  while not (E.finished eng) do
    (* Step 3: inner products of the residual with every basis vector.
       The 1/K factor of eq. (18) is a monotone scaling; the argmax is
       unaffected, so raw dot products are compared. *)
    let pick =
      match backend with
      | Exact ->
          Provider.argmax_abs ?pool ~skip:(E.skip_mask eng) src
            (E.residual eng)
      | Shards e -> Shard_sweep.select e ~r:(E.residual eng)
    in
    if E.advance eng pick then begin
      (match backend with
      | Exact -> ()
      | Shards e -> Shard_sweep.activate e (fst pick));
      emit ~final:false (E.size eng)
    end
  done;
  emit ~final:true (E.size eng);
  E.steps eng
