open Linalg
module Provider = Polybasis.Design.Provider
module Basis = Polybasis.Basis
module Shard = Parallel.Shard

type mode = Domains | Procs

let mode_of_string = function
  | "domain" | "domains" -> Some Domains
  | "process" | "procs" -> Some Procs
  | _ -> None

let mode_to_string = function Domains -> "domain" | Procs -> "process"

type plan = {
  shards : int;
  mode : mode;
  recovered : int Atomic.t;
  peak_rss : float array Atomic.t;
}

let plan ?(mode = "domain") shards =
  match mode_of_string mode with
  | None ->
      Error
        (Printf.sprintf "shard-mode must be domain or process (got %S)" mode)
  | Some _ when shards < 1 ->
      Error (Printf.sprintf "shards must be at least 1 (got %d)" shards)
  | Some mode ->
      Ok { shards; mode; recovered = Atomic.make 0; peak_rss = Atomic.make [||] }

(* ------------------------------------------------------------------ *)
(* One shard: a contiguous column window [jlo, jhi) of the dictionary
   as its own provider, and nothing else. A query names everything it
   needs (the vector, the window's listed columns, its skipped
   columns), so a shard holds no state a query changes, and its answer
   is the slice of the full-provider kernel over its window, bit for
   bit ({!Provider.window}). The same code runs in-image (Domains) and
   inside worker processes (Procs). *)

type local = { win : Provider.t; lpool : Parallel.Pool.t option }

(* ------------------------------------------------------------------ *)
(* Wire protocol (Procs mode).  Commands flow parent -> worker, each
   answered by exactly one reply; a missing or truncated reply is the
   death signal that triggers recovery.  All payloads are plain data
   (arrays, variants) — Marshal-stable within one executable.  Column
   indices in [Dots] and [Argmax] are window-local. *)

type spec_payload =
  | PDense of Mat.t
  | PStreamed of int * Polybasis.Term.t array * Vec.t array

type cmd =
  | Init of { shard : int; spec : spec_payload }
  | Sweep of Vec.t  (* gram_tr *)
  | Dots of int array * Vec.t  (* col_dots of the listed columns *)
  | Argmax of int array * Vec.t  (* argmax_abs, the listed columns skipped *)
  | Norms
  | PeakRss
  | Quit

type reply = RHello | RUnit | RVec of Vec.t | RArgmax of int * float | RRss of float

let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
              let v = String.trim (String.sub line 6 (String.length line - 6)) in
              let v =
                match String.index_opt v ' ' with
                | Some i -> String.sub v 0 i
                | None -> v
              in
              close_in ic;
              match float_of_string_opt v with Some x -> x | None -> 0.
            end
            else scan ()
        | exception End_of_file ->
            close_in ic;
            0.
      in
      scan ()

let build_window = function
  | PDense g -> Provider.dense g
  | PStreamed (dim, terms, samples) ->
      Provider.streamed (Basis.create dim terms) samples

let exec_local l (c : cmd) : reply =
  let pool = l.lpool and win = l.win in
  match c with
  | Init _ | Quit -> RUnit
  | Sweep r -> RVec (Provider.gram_tr ?pool win r)
  | Dots (idx, r) ->
      let out = Array.make (Array.length idx) 0. in
      Provider.col_dots ?pool win idx r out;
      RVec out
  | Argmax (skipped, r) ->
      let skip = Array.make (Provider.cols win) false in
      Array.iter (fun j -> skip.(j) <- true) skipped;
      let j, a = Provider.argmax_abs ?pool ~skip win r in
      RArgmax (j, a)
  | Norms -> RVec (Provider.column_norms ?pool win)
  | PeakRss -> RRss (vmhwm_kb ())

(* ------------------------------------------------------------------ *)
(* Worker side.  A process shard is this same executable re-exec'd with
   RSM_SHARD_WORKER=1 (spawned via fork+exec, which is safe under OCaml 5
   domains where a bare fork is not); host mains must call
   [worker_entry_if_requested] before anything else. *)

let worker_env_var = "RSM_SHARD_WORKER"
let fault_env_var = "RSM_SHARD_FAULT"

(* Host binaries can print to stdout from module initializers that run
   before the worker hook (test runners announce random seeds, CLIs may
   log); the sentinel lets the parent discard that prefix before the
   binary Marshal stream starts. *)
let ready_sentinel = "RSM_SHARD_READY"

(* "<shard>:<n>" — SIGKILL ourselves on the n-th query (sweep, dots or
   argmax) addressed to that shard.  The deterministic crash hook behind
   the CI recovery smoke; parents strip the variable when respawning. *)
let fault_spec () =
  match Sys.getenv_opt fault_env_var with
  | None -> None
  | Some s -> (
      match String.index_opt s ':' with
      | None -> None
      | Some i -> (
          match
            ( int_of_string_opt (String.sub s 0 i),
              int_of_string_opt
                (String.sub s (i + 1) (String.length s - i - 1)) )
          with
          | Some sh, Some n -> Some (sh, n)
          | _ -> None))

let worker_loop ic oc =
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  let reply r =
    Marshal.to_channel oc (r : reply) [];
    flush oc
  in
  output_string oc ("\n" ^ ready_sentinel ^ "\n");
  reply RHello;
  let l = ref None in
  let fault = fault_spec () in
  let nq = ref 0 in
  let maybe_die shard =
    incr nq;
    match fault with
    | Some (fs, fn) when fs = shard && fn = !nq ->
        Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ()
  in
  let rec loop () =
    match (Marshal.from_channel ic : cmd) with
    | exception End_of_file -> exit 0
    | Quit ->
        reply RUnit;
        exit 0
    | Init { shard; spec } ->
        let lpool = Some (Parallel.Pool.create ~domains:1 ()) in
        l := Some (shard, { win = build_window spec; lpool });
        reply RUnit;
        loop ()
    | c ->
        let shard, l =
          match !l with
          | Some l -> l
          | None -> failwith "Shard_sweep worker: command before Init"
        in
        (match c with
        | Sweep _ | Dots _ | Argmax _ -> maybe_die shard
        | Init _ | Norms | PeakRss | Quit -> ());
        reply (exec_local l c);
        loop ()
  in
  loop ()

let worker_entry_if_requested () =
  if Sys.getenv_opt worker_env_var = Some "1" then
    match worker_loop stdin stdout with
    | () -> exit 0
    | exception _ -> exit 1

(* ------------------------------------------------------------------ *)
(* Parent side. *)

type worker = {
  wshard : int;
  mutable pid : int;
  mutable to_w : out_channel;
  mutable from_w : in_channel;
}

type backend = InImage of local array | Procs of worker array

type t = {
  src : Provider.t;
  ranges : Shard.range array;
  backend : backend;
  mutable recovered : int;
}

exception Worker_dead

let send w c =
  try
    Marshal.to_channel w.to_w (c : cmd) [];
    flush w.to_w
  with Sys_error _ | Unix.Unix_error _ -> raise Worker_dead

let recv w : reply =
  try Marshal.from_channel w.from_w
  with End_of_file | Sys_error _ | Failure _ | Unix.Unix_error _ ->
    raise Worker_dead

let protocol_error what =
  failwith (Printf.sprintf "Shard_sweep: protocol error (%s)" what)

let payload ~src (rg : Shard.range) shard =
  let spec =
    match Provider.spec src with
    | `Dense _ -> (
        match Provider.spec (Provider.window src ~jlo:rg.Shard.lo ~jhi:rg.hi)
        with
        | `Dense g -> PDense g
        | `Streamed _ -> assert false)
    | `Streamed (basis, samples) ->
        let w = rg.Shard.hi - rg.lo in
        let terms = Array.init w (fun dj -> Basis.term basis (rg.lo + dj)) in
        PStreamed (Basis.dim basis, terms, samples)
  in
  Init { shard; spec }

let spawn_process ~strip_fault =
  let has_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let keep s =
    (not (has_prefix (worker_env_var ^ "=") s))
    && not (strip_fault && has_prefix (fault_env_var ^ "=") s)
  in
  let env =
    Array.of_list
      ((worker_env_var ^ "=1")
      :: List.filter keep (Array.to_list (Unix.environment ())))
  in
  (* cloexec on every parent-held end: workers must not inherit their
     siblings' pipes, or a dead sibling's EOF would never arrive. *)
  let c_in, p_out = Unix.pipe ~cloexec:true () in
  let p_in, c_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env c_in c_out Unix.stderr
  in
  Unix.close c_in;
  Unix.close c_out;
  let to_w = Unix.out_channel_of_descr p_out in
  let from_w = Unix.in_channel_of_descr p_in in
  set_binary_mode_out to_w true;
  set_binary_mode_in from_w true;
  (pid, to_w, from_w)

(* Discard host-initializer chatter up to the worker's sentinel line —
   only then does the binary Marshal stream begin.  Bounded so a binary
   without the hook (which echoes nothing) fails fast instead of
   blocking on a never-arriving sentinel. *)
let await_sentinel from_w =
  let rec scan n =
    if n > 1000 then false
    else
      match input_line from_w with
      | line -> line = ready_sentinel || scan (n + 1)
      | exception End_of_file -> false
  in
  scan 0

let start_worker ~strip_fault ~src ranges shard =
  let pid, to_w, from_w = spawn_process ~strip_fault in
  let w = { wshard = shard; pid; to_w; from_w } in
  (match if await_sentinel from_w then recv w else RUnit with
  | RHello -> ()
  | _ | (exception Worker_dead) ->
      failwith
        "Shard_sweep: worker handshake failed — the host executable must \
         call Shard_sweep.worker_entry_if_requested () before anything else");
  send w (payload ~src ranges.(shard) shard);
  (match recv w with RUnit -> () | _ -> protocol_error "expected ack");
  w

let dispose_worker w =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try close_out w.to_w with Sys_error _ -> ());
  (try close_in w.from_w with Sys_error _ -> ());
  try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()

(* A dead shard is respawned from the original problem ([Init]) and
   asked the in-flight query again: a worker holds nothing else, so the
   replacement answers it bitwise as the dead one would have. *)
let rec retry ?(tries = 3) t w c =
  if tries <= 0 then
    failwith (Printf.sprintf "Shard_sweep: shard %d is unrecoverable" w.wshard);
  dispose_worker w;
  match
    let nw = start_worker ~strip_fault:true ~src:t.src t.ranges w.wshard in
    w.pid <- nw.pid;
    w.to_w <- nw.to_w;
    w.from_w <- nw.from_w;
    send w c;
    recv w
  with
  | r ->
      t.recovered <- t.recovered + 1;
      r
  | exception Worker_dead -> retry ~tries:(tries - 1) t w c

(* Ask every shard its own query ([cmd s] for shard s) and gather the
   replies in shard order.  Process workers get every query before the
   first reply is read, so they compute side by side. *)
let exec t (cmd : int -> cmd) : reply array =
  match t.backend with
  | InImage locals -> Array.mapi (fun s l -> exec_local l (cmd s)) locals
  | Procs workers ->
      let cs = Array.init (Array.length workers) cmd in
      let sent =
        Array.mapi
          (fun s w ->
            match send w cs.(s) with
            | () -> true
            | exception Worker_dead -> false)
          workers
      in
      Array.mapi
        (fun s w ->
          match if sent.(s) then recv w else raise Worker_dead with
          | r -> r
          | exception Worker_dead -> retry t w cs.(s))
        workers

let create ?pool (plan : plan) src =
  let ranges = Shard.ranges ~n:(Provider.cols src) ~shards:plan.shards in
  let backend =
    match plan.mode with
    | Domains ->
        InImage
          (Array.map
             (fun (rg : Shard.range) ->
               { win = Provider.window src ~jlo:rg.Shard.lo ~jhi:rg.hi;
                 lpool = pool })
             ranges)
    | Procs ->
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ | Sys_error _ -> ());
        Procs
          (Array.init (Array.length ranges)
             (start_worker ~strip_fault:false ~src ranges))
  in
  { src; ranges; backend; recovered = 0 }

let shutdown t =
  match t.backend with
  | InImage _ -> ()
  | Procs workers ->
      Array.iter
        (fun w ->
          (try
             send w Quit;
             ignore (recv w)
           with Worker_dead -> ());
          dispose_worker w)
        workers

let peak_rss_kb t =
  Array.map
    (function RRss x -> x | _ -> protocol_error "rss")
    (exec t (fun _ -> PeakRss))

(* ------------------------------------------------------------------ *)
(* The kernels. *)

type kernels = {
  column_norms : unit -> Vec.t;
  gram_tr : Vec.t -> Vec.t;
  col_dots : int array -> Vec.t -> Vec.t -> unit;
  argmax_abs : skip:bool array -> Vec.t -> int * float;
}

let provider_kernels ?pool src =
  {
    column_norms = (fun () -> Provider.column_norms ?pool src);
    gram_tr = Provider.gram_tr ?pool src;
    col_dots = Provider.col_dots ?pool src;
    argmax_abs = (fun ~skip r -> Provider.argmax_abs ?pool ~skip src r);
  }

(* The shards' window-length answers laid end to end: the M-length
   vector, since the windows cover [0, M) in shard order. *)
let concat t replies =
  let out = Array.make (Provider.cols t.src) 0. in
  Array.iteri
    (fun s -> function
      | RVec v -> Array.blit v 0 out t.ranges.(s).Shard.lo (Array.length v)
      | _ -> protocol_error "vector")
    replies;
  out

(* Positions of [idx] per shard, in [idx] order. *)
let split t idx =
  let m = Provider.cols t.src in
  let parts = Array.make (Array.length t.ranges) [] in
  for p = Array.length idx - 1 downto 0 do
    let j = idx.(p) in
    if j < 0 || j >= m then invalid_arg "Shard_sweep.col_dots: column out of range";
    let s = ref 0 in
    while t.ranges.(!s).Shard.hi <= j do incr s done;
    parts.(!s) <- p :: parts.(!s)
  done;
  Array.map Array.of_list parts

let fleet_kernels t =
  let lo s = t.ranges.(s).Shard.lo in
  let col_dots idx r out =
    if Array.length out <> Array.length idx then
      invalid_arg "Shard_sweep.col_dots: length mismatch";
    let parts = split t idx in
    Array.iteri
      (fun s -> function
        | RVec v -> Array.iteri (fun q p -> out.(p) <- v.(q)) parts.(s)
        | _ -> protocol_error "dots")
      (exec t (fun s -> Dots (Array.map (fun p -> idx.(p) - lo s) parts.(s), r)))
  in
  (* Strict [>] inside each window and a left-biased merge across them:
     ties keep the lowest global index, as the unsharded scan does. *)
  let argmax_abs ~skip r =
    if Array.length skip <> Provider.cols t.src then
      invalid_arg "Shard_sweep.argmax_abs: skip length mismatch";
    let skipped s =
      let rg = t.ranges.(s) and acc = ref [] in
      for j = rg.Shard.hi - 1 downto rg.lo do
        if skip.(j) then acc := (j - rg.lo) :: !acc
      done;
      Array.of_list !acc
    in
    Shard.merge_argmax
      (Array.mapi
         (fun s -> function
           | RArgmax (j, a) -> ((if j >= 0 then lo s + j else -1), a)
           | _ -> protocol_error "argmax")
         (exec t (fun s -> Argmax (skipped s, r))))
  in
  {
    column_norms = (fun () -> concat t (exec t (fun _ -> Norms)));
    gram_tr = (fun r -> concat t (exec t (fun _ -> Sweep r)));
    col_dots;
    argmax_abs;
  }

let with_fleet ?pool ?shards src f =
  match shards with
  | Some plan when plan.shards > 1 ->
      let t = create ?pool plan src in
      Fun.protect
        ~finally:(fun () ->
          ignore (Atomic.fetch_and_add plan.recovered t.recovered);
          shutdown t)
        (fun () ->
          let v = f (fleet_kernels t) in
          Atomic.set plan.peak_rss (peak_rss_kb t);
          v)
  | _ -> f (provider_kernels ?pool src)
