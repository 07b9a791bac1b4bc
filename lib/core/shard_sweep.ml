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

type pick = {
  big_c : float;
  enter : int;
  enter_abs : float;
  enter_val : float;
  act_c : (int * float) array;
}

(* ------------------------------------------------------------------ *)
(* Shard-local state.  One [local] owns a contiguous column window
   [jlo, jhi) of the dictionary: its own provider window, its own
   norms and its own skip masks.  Every operation below touches local
   columns only, with the exact per-column float sequences of the
   full-dictionary kernels, so shard-local results merge bitwise into
   the sequential scan.  The same code runs in-image (Domains) and
   inside worker processes (Procs). *)

type local = {
  shard : int;
  jlo : int;
  jhi : int;
  win : Provider.t;
  raw_norms : Vec.t;
  norms : Vec.t; (* raw with the <=0 -> 1 fixup, matching the solvers *)
  active : bool array; (* local index *)
  banned : bool array;
  mutable c : Vec.t; (* normalized correlations from the last select *)
  lpool : Parallel.Pool.t option;
}

let local_create ?pool ~shard ~jlo ~jhi win =
  let raw = Provider.column_norms ?pool win in
  let norms = Array.map (fun n -> if n <= 0. then 1. else n) raw in
  let w = jhi - jlo in
  {
    shard;
    jlo;
    jhi;
    win;
    raw_norms = raw;
    norms;
    active = Array.make w false;
    banned = Array.make w false;
    c = [||];
    lpool = pool;
  }

let local_width l = l.jhi - l.jlo

let local_activate l j =
  if j >= l.jlo && j < l.jhi then l.active.(j - l.jlo) <- true

let local_deactivate l j =
  if j >= l.jlo && j < l.jhi then l.active.(j - l.jlo) <- false

let local_ban l j = if j >= l.jlo && j < l.jhi then l.banned.(j - l.jlo) <- true

(* OMP/STAR selection: the exact local argmax over non-skipped columns,
   strict [>] so the lowest local (hence global) index wins ties — the
   left-biased shard merge then reproduces the sequential lowest-index
   rule. *)
let local_select l r =
  let w = local_width l in
  let skip = Array.init w (fun j -> l.active.(j) || l.banned.(j)) in
  let j, a = Provider.argmax_abs ?pool:l.lpool ~skip l.win r in
  ((if j >= 0 then l.jlo + j else -1), a)

(* The LAR step's two O(M) scans over a column window, shared by every
   LAR driver: unsharded walks run them over [0, M), shards over their
   own window.
   Plain loops over float arrays (no per-column closure), since every
   step of every walk runs them.

   Selection scan over the listed columns [idx] (ascending window
   indices, [gtr_at.(t)] column idx.(t)'s raw correlation): normalize
   them into [c], then C over the non-banned listed columns, the
   entering candidate (inactive, non-banned, not the barred global
   column [bar], strict [>] so the lowest index wins ties), and the
   correlation values at the active listed columns — everything the
   walk's step reads. *)
let lars_scan_at ?(bar = -1) ~norms ~active ~banned ~jlo ~c idx gtr_at =
  let n = Array.length idx in
  if Array.length gtr_at <> n then
    invalid_arg "Shard_sweep.lars_scan_at: sweep length mismatch";
  for t = 0 to n - 1 do
    let j = idx.(t) in
    c.(j) <- gtr_at.(t) /. norms.(j)
  done;
  let big_c = ref 0. and enter = ref (-1) and enter_abs = ref 0. in
  for t = 0 to n - 1 do
    let j = idx.(t) in
    let a = Float.abs c.(j) in
    if (not banned.(j)) && a > !big_c then big_c := a;
    if (not active.(j)) && (not banned.(j)) && jlo + j <> bar && a > !enter_abs
    then begin
      enter := j;
      enter_abs := a
    end
  done;
  let act = ref [] in
  for t = n - 1 downto 0 do
    let j = idx.(t) in
    if active.(j) then act := (jlo + j, c.(j)) :: !act
  done;
  {
    big_c = !big_c;
    enter = (if !enter >= 0 then jlo + !enter else -1);
    enter_abs = !enter_abs;
    enter_val = (if !enter >= 0 then c.(!enter) else 0.);
    act_c = Array.of_list !act;
  }

(* The scan over every column of the window, from a full sweep. *)
let lars_scan ?bar ~norms ~active ~banned ~jlo gtr =
  let w = Array.length norms in
  if Array.length gtr <> w then
    invalid_arg "Shard_sweep.lars_scan: sweep length mismatch";
  let c = Array.make w 0. in
  ( c,
    lars_scan_at ?bar ~norms ~active ~banned ~jlo ~c (Array.init w Fun.id) gtr )

(* Column j's two candidates folded into the running minimum [best]:
   the one step-length arithmetic of every scan below. *)
let[@inline] fold_gamma best ~cc ~a_a cj aj =
  let cand1 = (cc -. cj) /. (a_a -. aj) in
  let cand2 = (cc +. cj) /. (a_a +. aj) in
  let best = if cand1 > 1e-12 && cand1 < best then cand1 else best in
  if cand2 > 1e-12 && cand2 < best then cand2 else best

(* Step-length scan: the minimum gamma candidate over the window's
   inactive, non-banned columns ([infinity] when none).  The running-min
   acceptance (cand > 1e-12 && cand < gamma) reduces to min(init, min of
   all candidates > 1e-12), and float min is exact, so folding window
   minima — or the whole-dictionary minimum against C/A — reproduces the
   sequential running scan bit for bit. *)
let gamma_scan ~norms ~active ~banned ~c ~cc ~a_a gu =
  let w = Array.length norms in
  if Array.length c <> w || Array.length gu <> w then
    invalid_arg "Shard_sweep.gamma_scan: length mismatch (scan before select?)";
  let best = ref infinity in
  for j = 0 to w - 1 do
    if (not active.(j)) && not banned.(j) then
      best := fold_gamma !best ~cc ~a_a c.(j) (gu.(j) /. norms.(j))
  done;
  !best

(* The same candidates over the listed columns only, [gu_at.(t)] being
   column idx.(t)'s raw image: the screened step length. *)
let gamma_scan_at ~norms ~c ~cc ~a_a idx gu_at =
  if Array.length gu_at <> Array.length idx then
    invalid_arg "Shard_sweep.gamma_scan_at: length mismatch";
  let best = ref infinity in
  for t = 0 to Array.length idx - 1 do
    let j = idx.(t) in
    best := fold_gamma !best ~cc ~a_a c.(j) (gu_at.(t) /. norms.(j))
  done;
  !best

(* The step-length screen's bound (Efron et al. eq. 2.13): with
   |a_j| ≤ ‖u‖, a positive candidate of a column with gap = C − |c_j| > 0
   is at least gap/(A + ‖u‖), so a column whose bound exceeds [thr] —
   with 1e-9 margins on ‖u‖, the gap and [thr] against rounding — cannot
   set a step of at most [thr]. [hi.(j)] is |c_j| or an upper bound on
   it, so C − hi.(j) is the gap or a lower bound on it. Every comparison
   is false on a NaN, which keeps the column. *)
let gamma_screen ~active ~banned ~hi ~cc ~a_a ~u_norm ~thr ~top ~limit =
  let w = Array.length hi in
  let den = a_a +. (u_norm *. (1. +. 1e-9)) and lim = thr *. (1. +. 1e-9) in
  let kept = Array.make (max limit 0 + 1) 0 in
  let n = ref 0 and j = ref 0 in
  while !n <= limit && !j < w do
    let jj = !j in
    if (not active.(jj)) && not banned.(jj) then begin
      let gap = cc -. hi.(jj) in
      if
        (not (gap > 0. && gap *. (1. -. 1e-9) /. den > lim))
        && not (Array.mem jj top)
      then begin
        kept.(!n) <- jj;
        incr n
      end
    end;
    incr j
  done;
  if !n > limit then None else Some (Array.sub kept 0 !n)

(* Step-length screen constants. The [screen_top] columns nearest the
   correlation tie get exact candidates before the bound is applied.
   Share of columns whose image a step computed (a fallback step
   counting all M), for 4 / 8 / 16 / 32 nearest columns: 10.9 / 10.8 /
   11.0 / 11.5% on the dense Table II LAR flow (K = 1000, M = 1891),
   10.6 / 10.9 / 11.6 / 13.6% on the 4-output op-amp fit; 4 fell back
   on 5 more of 3025 steps than 8 on the Table II flow. A screen keeping
   more than [screen_share] of the columns falls back to the full
   sweep. On a dense 1000 × 1891 design, [col_dots] from the
   column-major image over a random ascending 1 / 10 / 20 / 40% of the
   columns took 0.02 / 0.19 / 0.26 / 0.59× the time of the full
   [gram_tr] (the row-major subset kernel it replaced: 0.07 / 0.80 /
   0.97 / 1.15×; `bench/main.exe sweep`, BENCH_speed.json). Under carried correlation
   bounds a held screen also computes its survivors' exact
   correlations, and a quarter stayed the limit: over the five Table II
   walks, limits of 0.15 / 0.25 / 0.4 / 0.6 computed 0.255 / 0.250 /
   0.244 / 0.246 of two full sweeps' dots, with walk times within the
   host's spread (`bench/main.exe lardots`). *)
let screen_top = 8
let screen_share = 0.25

(* The [screen_top] inactive, non-banned columns of largest hi.(j),
   ascending. A NaN never ranks: the bound keeps it. *)
let nearest_tie ~active ~banned hi =
  let tv = Array.make screen_top 0. and ti = Array.make screen_top 0 in
  let nt = ref 0 in
  for j = 0 to Array.length hi - 1 do
    if (not active.(j)) && not banned.(j) then begin
      let a = hi.(j) in
      if a >= 0. && (!nt < screen_top || a > tv.(screen_top - 1)) then begin
        let p = ref (min !nt (screen_top - 1)) in
        if !nt < screen_top then incr nt;
        while !p > 0 && a > tv.(!p - 1) do
          tv.(!p) <- tv.(!p - 1);
          ti.(!p) <- ti.(!p - 1);
          decr p
        done;
        tv.(!p) <- a;
        ti.(!p) <- j
      end
    end
  done;
  let top = Array.sub ti 0 !nt in
  Array.sort Int.compare top;
  top

type screen = Sweep | Kept of { kept : int array; images : Vec.t; gamma : float }

(* The step-length screen over one window: the exact candidates of the
   columns nearest the tie bound the step from above by
   thr = min(C/A, their minimum), [gamma_screen] rules out every column
   whose candidates must exceed thr, and the survivors' images give the
   rest of the minimum. A ruled-out column's candidates all exceed
   thr ≥ that minimum, so it is the full scan's minimum whenever the
   full scan's is at most C/A, and above C/A otherwise: folded against
   C/A, bit for bit the same step. [hi.(j)] bounds |c_j| from above;
   [refresh idx] makes [c] exact at the listed columns, so a column
   whose correlation was only bounded gets its exact value once it
   survives. More than [screen_share] of the window surviving:
   [Sweep]. *)
let screen_gamma ?pool win ~norms ~active ~banned ~c ~hi ~refresh ~cc ~a_a u =
  let w = Array.length norms in
  if Array.length c <> w || Array.length hi <> w then
    invalid_arg "Shard_sweep.screen_gamma: length mismatch (scan before select?)";
  let dots idx =
    refresh idx;
    let out = Array.make (Array.length idx) 0. in
    Provider.col_dots ?pool win idx u out;
    (out, gamma_scan_at ~norms ~c ~cc ~a_a idx out)
  in
  let top = nearest_tie ~active ~banned hi in
  let a_top, g_top = dots top and ca = cc /. a_a in
  match
    gamma_screen ~active ~banned ~hi ~cc ~a_a
      ~u_norm:(sqrt (Vec.nrm2_sq u))
      ~thr:(if g_top < ca then g_top else ca)
      ~top
      ~limit:(int_of_float (screen_share *. float_of_int w) - Array.length top)
  with
  | None -> Sweep
  | Some rest ->
      let a_rest, g_rest = dots rest in
      let pairs =
        Array.append
          (Array.mapi (fun t j -> (j, a_top.(t))) top)
          (Array.mapi (fun t j -> (j, a_rest.(t))) rest)
      in
      Array.sort (fun (i, _) (j, _) -> Int.compare i j) pairs;
      Kept
        {
          kept = Array.map fst pairs;
          images = Array.map snd pairs;
          gamma = (if g_rest < g_top then g_rest else g_top);
        }

let local_lars_select l r ~bar =
  let c, pick =
    lars_scan ~bar ~norms:l.norms ~active:l.active ~banned:l.banned ~jlo:l.jlo
      (Provider.gram_tr ?pool:l.lpool l.win r)
  in
  l.c <- c;
  pick

(* The window's step length: screened, or swept when the screen keeps
   too many columns. *)
let local_gamma l ~cc ~a_a u =
  let norms = l.norms and active = l.active and banned = l.banned in
  let hi = Array.map Float.abs l.c in
  match
    screen_gamma ?pool:l.lpool l.win ~norms ~active ~banned ~c:l.c ~hi
      ~refresh:ignore ~cc ~a_a u
  with
  | Kept { gamma; _ } -> gamma
  | Sweep ->
      gamma_scan ~norms ~active ~banned ~c:l.c ~cc ~a_a
        (Provider.gram_tr ?pool:l.lpool l.win u)

(* ------------------------------------------------------------------ *)
(* Wire protocol (Procs mode).  Commands flow parent -> worker, each
   answered by exactly one reply; a missing or truncated reply is the
   death signal that triggers recovery.  All payloads are plain data
   (arrays, variants) — Marshal-stable within one executable. *)

type spec_payload =
  | PDense of Mat.t
  | PStreamed of int * Polybasis.Term.t array * Vec.t array

type init_payload = {
  i_shard : int;
  i_jlo : int;
  i_jhi : int;
  i_spec : spec_payload;
}

type cmd =
  | Init of init_payload
  | Activate of int
  | Deactivate of int
  | Ban of int
  | Select of Vec.t
  | LarsSelect of Vec.t * int  (* residual, barred column *)
  | Gamma of { cc : float; a_a : float; u : Vec.t }
  | Norms
  | PeakRss
  | Quit

type reply =
  | RHello
  | RUnit
  | RSelect of int * float
  | RPick of pick
  | RGamma of float
  | RNorms of Vec.t
  | RRss of float

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
  match c with
  | Init _ | Quit -> RUnit
  | Activate j ->
      local_activate l j;
      RUnit
  | Deactivate j ->
      local_deactivate l j;
      RUnit
  | Ban j ->
      local_ban l j;
      RUnit
  | Select r ->
      let j, a = local_select l r in
      RSelect (j, a)
  | LarsSelect (r, bar) -> RPick (local_lars_select l r ~bar)
  | Gamma { cc; a_a; u } -> RGamma (local_gamma l ~cc ~a_a u)
  | Norms -> RNorms (Array.copy l.raw_norms)
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

(* "<shard>:<n>" — SIGKILL ourselves on the n-th selection query
   addressed to that shard.  The deterministic crash hook behind the CI
   recovery smoke; parents strip the variable when respawning. *)
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
  let nsel = ref 0 in
  let maybe_die shard =
    incr nsel;
    match fault with
    | Some (fs, fn) when fs = shard && fn = !nsel ->
        Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ()
  in
  let rec loop () =
    match (Marshal.from_channel ic : cmd) with
    | exception End_of_file -> exit 0
    | Quit ->
        reply RUnit;
        exit 0
    | Init p ->
        let pool = Parallel.Pool.create ~domains:1 () in
        l :=
          Some
            (local_create ~pool ~shard:p.i_shard ~jlo:p.i_jlo ~jhi:p.i_jhi
               (build_window p.i_spec));
        reply RUnit;
        loop ()
    | c ->
        let l =
          match !l with
          | Some l -> l
          | None -> failwith "Shard_sweep worker: command before Init"
        in
        (match c with Select _ | LarsSelect _ -> maybe_die l.shard | _ -> ());
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

type pstate = {
  workers : worker array;
  (* Replay log, newest first: every mask-changing command already
     acknowledged by the fleet.  A respawned shard re-runs it in order,
     so its rebuilt masks are the dead worker's. *)
  mutable wlog : cmd list;
  (* The current step's selection query: re-issued after a replay so
     the worker's retained [c] matches the live step again. *)
  mutable cur_select : cmd option;
}

type backend = InImage of local array | Procs of pstate

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

let expect_unit = function
  | RUnit -> ()
  | _ -> failwith "Shard_sweep: protocol error (expected ack)"

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
  Init
    {
      i_shard = shard;
      i_jlo = rg.Shard.lo;
      i_jhi = rg.hi;
      i_spec = spec;
    }

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
  expect_unit (recv w);
  w

let dispose_worker w =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try close_out w.to_w with Sys_error _ -> ());
  (try close_in w.from_w with Sys_error _ -> ());
  try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()

(* Respawn a dead shard and replay it back to the live state: Init from
   the original problem, the full command log, then the current step's
   selection.  Every replayed command is acknowledged, so on return the
   worker is bitwise where the fleet is. *)
let recover t ps w =
  let rec go attempts =
    if attempts <= 0 then
      failwith
        (Printf.sprintf "Shard_sweep: shard %d keeps dying during recovery"
           w.wshard);
    dispose_worker w;
    match
      let nw =
        start_worker ~strip_fault:true ~src:t.src t.ranges w.wshard
      in
      w.pid <- nw.pid;
      w.to_w <- nw.to_w;
      w.from_w <- nw.from_w;
      List.iter
        (fun c ->
          send w c;
          expect_unit (recv w))
        (List.rev ps.wlog);
      match ps.cur_select with
      | None -> ()
      | Some c ->
          send w c;
          ignore (recv w)
    with
    | () -> t.recovered <- t.recovered + 1
    | exception Worker_dead -> go (attempts - 1)
  in
  go 3

let rec roundtrip ?(tries = 3) t ps w c =
  match
    send w c;
    recv w
  with
  | r -> r
  | exception Worker_dead ->
      if tries <= 1 then
        failwith
          (Printf.sprintf "Shard_sweep: shard %d is unrecoverable" w.wshard);
      recover t ps w;
      roundtrip ~tries:(tries - 1) t ps w c

let logged = function
  | Activate _ | Deactivate _ | Ban _ -> true
  | Init _ | Select _ | LarsSelect _ | Gamma _ | Norms | PeakRss | Quit ->
      false

(* Broadcast one command to every shard (in shard order) and gather the
   replies.  State-changing commands are appended to the replay log
   only after the whole fleet acknowledged them: a worker that dies
   mid-broadcast replays the log *without* the in-flight command and
   then receives it exactly once via the retry. *)
let exec t (c : cmd) : reply array =
  match t.backend with
  | InImage locals -> Array.map (fun l -> exec_local l c) locals
  | Procs ps ->
      (match c with
      | Select _ | LarsSelect _ -> ps.cur_select <- Some c
      | _ -> ());
      let rs = Array.map (fun w -> roundtrip t ps w c) ps.workers in
      if logged c then ps.wlog <- c :: ps.wlog;
      rs

let create ?pool (plan : plan) src =
  let ranges = Shard.ranges ~n:(Provider.cols src) ~shards:plan.shards in
  let backend =
    match plan.mode with
    | Domains ->
        InImage
          (Array.mapi
             (fun i (rg : Shard.range) ->
               local_create ?pool ~shard:i ~jlo:rg.Shard.lo ~jhi:rg.hi
                 (Provider.window src ~jlo:rg.Shard.lo ~jhi:rg.hi))
             ranges)
    | Procs ->
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ | Sys_error _ -> ());
        Procs
          {
            workers =
              Array.init (Array.length ranges)
                (start_worker ~strip_fault:false ~src ranges);
            wlog = [];
            cur_select = None;
          }
  in
  { src; ranges; backend; recovered = 0 }

let shutdown t =
  match t.backend with
  | InImage _ -> ()
  | Procs ps ->
      Array.iter
        (fun w ->
          (try
             send w Quit;
             ignore (recv w)
           with Worker_dead -> ());
          dispose_worker w)
        ps.workers

let peak_rss_kb t =
  Array.map
    (function
      | RRss x -> x
      | _ -> failwith "Shard_sweep: protocol error (rss)")
    (exec t PeakRss)

let with_fleet ?pool ?shards src f =
  match shards with
  | Some plan when plan.shards > 1 ->
      let t = create ?pool plan src in
      Fun.protect
        ~finally:(fun () ->
          ignore (Atomic.fetch_and_add plan.recovered t.recovered);
          shutdown t)
        (fun () ->
          let v = f (Some t) in
          Atomic.set plan.peak_rss (peak_rss_kb t);
          v)
  | _ -> f None

(* Gathered raw column norms — per-column sums over ascending rows on
   each window, hence bitwise the full provider's column_norms. *)
let raw_norms t =
  let m = Provider.cols t.src in
  let out = Array.make m 0. in
  Array.iteri
    (fun i r ->
      match r with
      | RNorms v -> Array.blit v 0 out t.ranges.(i).Shard.lo (Array.length v)
      | _ -> failwith "Shard_sweep: protocol error (norms)")
    (exec t Norms);
  out

let activate t j = Array.iter expect_unit (exec t (Activate j))
let deactivate t j = Array.iter expect_unit (exec t (Deactivate j))
let ban t j = Array.iter expect_unit (exec t (Ban j))

(* Left-biased tree merge: on a tie in |correlation| the earlier shard
   — hence the lower global index — survives, matching the sequential
   strict-[>] scan at every shard count. *)
let select t ~r =
  let locals =
    Array.map
      (function
        | RSelect (j, a) -> (j, a)
        | _ -> failwith "Shard_sweep: protocol error (select)")
      (exec t (Select (Array.copy r)))
  in
  Shard.merge_argmax locals

let merge_pick a b =
  let enter, enter_abs, enter_val =
    if b.enter_abs > a.enter_abs then (b.enter, b.enter_abs, b.enter_val)
    else (a.enter, a.enter_abs, a.enter_val)
  in
  {
    big_c = Float.max a.big_c b.big_c;
    enter;
    enter_abs;
    enter_val;
    act_c = Array.append a.act_c b.act_c;
  }

let lars_select ?(bar = -1) t ~r =
  let picks =
    Array.map
      (function
        | RPick p -> p
        | _ -> failwith "Shard_sweep: protocol error (lars_select)")
      (exec t (LarsSelect (Array.copy r, bar)))
  in
  Shard.tree_reduce merge_pick picks

let lars_gamma t ~cc ~a_a u =
  let best = ref infinity in
  Array.iter
    (function
      | RGamma g -> if g < !best then best := g
      | _ -> failwith "Shard_sweep: protocol error (gamma)")
    (exec t (Gamma { cc; a_a; u }));
  !best

