(* In-memory spans around the benchmark's calls into each layer,
   written out once at the end as Chrome trace-event JSON (loads in
   Perfetto and chrome://tracing). Spans nest by a parent stack; every
   span of one flow shares the flow's root span as its ancestor. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  cat : string;
  t0 : float;
  t1 : float;
}

let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 1
let origin = Measure.now ()

let span ?(cat = "stage") name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let t0 = Measure.now () in
  let finish () =
    stack := List.tl !stack;
    recorded := { id; parent; name; cat; t0; t1 = Measure.now () } :: !recorded
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let dur s = s.t1 -. s.t0
let spans () = List.rev !recorded
let children id = List.filter (fun s -> s.parent = id) (spans ())

(* Total duration of the direct children of [id] named [name]. *)
let child_total id name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. dur s else acc)
    0. (children id)

let write_chrome path =
  let us t = Json.Num (Float.round ((t -. origin) *. 1e6)) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.cat);
        ("ph", Json.Str "X");
        ("ts", us s.t0);
        ("dur", Json.Num (Float.round (dur s *. 1e6)));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]);
      ]
  in
  (* Chrome's viewer nests complete events on one thread by start time,
     outer span first. *)
  let ordered =
    List.stable_sort
      (fun a b -> compare (a.t0, -.a.t1) (b.t0, -.b.t1))
      (spans ())
  in
  Json.write_file path
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.map event ordered));
         ("displayTimeUnit", Json.Str "ms");
       ])
