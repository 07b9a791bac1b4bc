open Linalg
module Provider = Polybasis.Design.Provider

type mode = Lar | Lasso

type step = {
  added : int option;
  dropped : int option;
  max_corr : float;
  model : Model.t;
}

(* Internal working state over unit-normalized columns x_j = G_j/‖G_j‖.
   The normalized columns are never materialized: every x_j operation
   divides by the stored norm on the fly. Active columns are
   materialized once into the per-fit cache (K floats each) — the only
   columns LAR ever touches individually. *)
type state = {
  cache : Provider.Cache.t;
  norms : Vec.t;
  k : int;
  m : int;
  beta : Vec.t;  (* coefficients in normalized scale *)
  mu : Vec.t;  (* current fit G·alpha = X·beta *)
  mutable active : int list;  (* most recently added first *)
  in_active : bool array;
  banned : bool array;  (* dependent columns excluded under `Fallback *)
  mutable notes : string list;  (* degradation events, attached to models *)
  mutable chol : Cholesky.Grow.t;  (* gram factor of active columns, oldest first *)
}

let xxdot st i j =
  Provider.Cache.col_col_dot st.cache i j /. (st.norms.(i) *. st.norms.(j))

(* Active set in insertion (oldest-first) order, matching the Grow factor. *)
let active_oldest_first st = Array.of_list (List.rev st.active)

let append_to_chol st j =
  let act = active_oldest_first st in
  let cross = Array.map (fun i -> xxdot st i j) act in
  Cholesky.Grow.append st.chol cross 1.

let rebuild_chol st =
  let act = active_oldest_first st in
  let cap = min st.k st.m in
  let chol = Cholesky.Grow.create (max cap 1) in
  Array.iteri
    (fun p j ->
      let cross = Array.init p (fun q -> xxdot st act.(q) j) in
      Cholesky.Grow.append chol cross 1.)
    act;
  st.chol <- chol

let current_model st =
  let support = ref [] and coeffs = ref [] in
  for j = st.m - 1 downto 0 do
    if st.beta.(j) <> 0. then begin
      support := j :: !support;
      coeffs := (st.beta.(j) /. st.norms.(j)) :: !coeffs
    end
  done;
  let model =
    Model.make ~basis_size:st.m
      ~support:(Array.of_list !support)
      ~coeffs:(Array.of_list !coeffs)
  in
  List.fold_left Model.add_note model (List.rev st.notes)

(* ------------------------------------------------------------------ *)
(* The step's building blocks, shared by the live walk and checkpoint
   replay — each arithmetic sequence of the walk exists only here. *)

let enter st j =
  st.active <- j :: st.active;
  st.in_active.(j) <- true

(* Exclude a dependent column from every later scan so the path keeps
   moving instead of stalling on it; the note rides on the step models. *)
let ban st j =
  st.banned.(j) <- true;
  st.notes <- Printf.sprintf "lars: banned dependent column %d" j :: st.notes

let max_abs cs = Array.fold_left (fun acc cj -> Float.max acc (Float.abs cj)) 0. cs

type dir = {
  act : int array;  (* active set, oldest first *)
  d : float array;  (* coefficient direction over [act] *)
  u : Vec.t;  (* fit direction *)
  cc : float;  (* C over the active set *)
  a_a : float;
}

(* Equiangular direction from the active correlations [cs] (aligned
   with [act]): z = Gram⁻¹·s, A = 1/√(sᵀz), coefficient direction
   d_j = A·z_j, fit direction u = Σ d_j x_j. C is recomputed over the
   active set (all equal up to numerical noise; the max for
   robustness). [None] when sᵀz ≤ 0. *)
let direction st act cs =
  let s = Array.map (fun cj -> if cj >= 0. then 1. else -1.) cs in
  let z = Cholesky.Grow.solve st.chol s in
  let sz = Vec.dot s z in
  if sz <= 0. then None
  else begin
    let a_a = 1. /. sqrt sz in
    let d = Array.map (fun zj -> a_a *. zj) z in
    let u = Array.make st.k 0. in
    Array.iteri
      (fun p j ->
        let w = d.(p) /. st.norms.(j) in
        let colj = Provider.Cache.column st.cache j in
        for r = 0 to st.k - 1 do
          u.(r) <- u.(r) +. (w *. Array.unsafe_get colj r)
        done)
      act;
    Some { act; d; u; cc = max_abs cs; a_a }
  end

let advance st dir gamma =
  Array.iteri
    (fun p j -> st.beta.(j) <- st.beta.(j) +. (gamma *. dir.d.(p)))
    dir.act;
  Vec.axpy gamma dir.u st.mu

(* Lasso drop of a coefficient that crossed zero: leave the active set
   and refactor. A non-SPD refactor leaves no usable direction; under
   [`Fallback] the path ends at the last consistent model (returns
   [true]: stop), under [`Stop] it is handed to [on_stop]. The drop
   does not move mu, so maintained correlations need no update. *)
let drop st ~on_singular ~on_stop j =
  st.beta.(j) <- 0.;
  st.active <- List.filter (fun i -> i <> j) st.active;
  st.in_active.(j) <- false;
  match rebuild_chol st with
  | () -> false
  | exception (Cholesky.Not_positive_definite _ as e) -> (
      match on_singular with
      | `Stop -> on_stop e
      | `Fallback ->
          st.notes <-
            "lars: stopped on non-SPD active set after drop" :: st.notes;
          true)

module Ckpt = Serialize.Checkpoint

let mode_tag = function Lar -> "lar" | Lasso -> "lasso"

(* Residual-correlation signs of the active set, oldest first — a
   human-readable state fingerprint stored next to the mu/beta digests.
   The per-column dot over cached columns is bitwise equal to the
   corresponding entry of the live Gᵀ·r sweep. *)
let residual_signs st f =
  let res = Vec.sub f st.mu in
  Array.map
    (fun j ->
      if Provider.Cache.col_dot st.cache j res /. st.norms.(j) >= 0. then 1
      else -1)
    (active_oldest_first st)

let banned_columns st =
  let acc = ref [] in
  for j = st.m - 1 downto 0 do
    if st.banned.(j) then acc := j :: !acc
  done;
  Array.of_list !acc

(* Snapshot the walk for persistence: the event log (newest first here)
   plus the derived terminal state used to validate a later replay. *)
let capture st ~mode ~scale ~f events =
  {
    Ckpt.solver = mode_tag mode;
    k = st.k;
    m = st.m;
    scale;
    active = active_oldest_first st;
    signs = residual_signs st f;
    banned = banned_columns st;
    events = Array.of_list (List.rev events);
    notes = Array.of_list (List.rev st.notes);
    mu_digest = Ckpt.digest st.mu;
    beta_digest = Ckpt.digest st.beta;
  }

let validate src f ~max_steps =
  if Array.length f <> Provider.rows src then
    invalid_arg "Lars.path: response length mismatch";
  if max_steps <= 0 then invalid_arg "Lars.path: max_steps must be positive"

(* Column norms with zero columns pinned to 1 (they never correlate). *)
let fix_norms norms =
  Array.iteri (fun j n -> if n <= 0. then norms.(j) <- 1.) norms;
  norms

(* Step budget of a λ-driven walk: lasso drops and bans make the path
   longer than its support size. *)
let step_budget max_lambda =
  if max_lambda <= 0 then invalid_arg "Lars: max_lambda must be positive";
  min ((2 * max_lambda) + 8) (4 * max_lambda)

(* Step-length screen constants. The [screen_top] columns nearest the
   correlation tie get exact candidates before the bound is applied.
   Share of columns whose image a step computed (a fallback step
   counting all M), for 4 / 8 / 16 / 32 nearest columns: 10.9 / 10.8 /
   11.0 / 11.5% on the dense Table II LAR flow (K = 1000, M = 1891),
   10.6 / 10.9 / 11.6 / 13.6% on the 4-output op-amp fit; 4 fell back
   on 5 more of 3025 steps than 8 on the Table II flow. A screen keeping
   more than [screen_share] of the columns falls back to the full
   sweep: on a dense 1000 × 1891 design, [col_dots] over a random
   ascending 10 / 25 / 50% of the columns took 0.64 / 0.82 / 1.14× the
   time of the full [gram_tr] (rows stream through cache either way). *)
let screen_top = 8
let screen_share = 0.25

(* The LAR walk. Each step suspends twice for an O(K·M) answer — the
   correlation pick (C, the entrant, its value, the active columns'
   correlations) and the minimum step-length candidate — and whoever
   drives the engine supplies them: the local scans over a dense,
   streamed or incremental sweep, the shard reduction tree, or a fused
   multi-residual sweep. Every driver therefore walks the same steps
   with the same float sequences. *)
module Engine = struct
  (* The step-length screen of one direction: not yet run, unable to
     answer (the full sweep must), or the columns that can set γ — the
     [top] columns nearest the tie, whose candidate minimum is [g_top],
     and the [rest] that survived the bound. *)
  type screen =
    | Unscreened
    | Sweep
    | Kept of { top : int array; g_top : float; rest : int array }

  type phase =
    | Corr
    | Dir of { added : int option; dir : dir; mutable screen : screen }
    | Done

  type t = {
    src : Provider.t;
    st : state;
    mode : mode;
    tol : float;
    on_singular : [ `Stop | `Fallback ];
    max_steps : int;
    max_lambda : int option;  (* λ budget of a λ-driven walk *)
    max_active : int;
    f : Vec.t;
    mutable c : Vec.t;  (* normalized correlations of the last [scan_corr] *)
    mutable steps_rev : step list;
    mutable events : Ckpt.event list;  (* newest first, one per step *)
    mutable nevents : int;
    mutable initial_c : float;
    mutable nsteps : int;
    mutable stop : bool;
    mutable phase : phase;
  }

  type entry = No_entry | Entered of int | Banned of int

  let make ~mode ~tol ~on_singular ~norms src f ~max_lambda ~max_steps =
    let k = Provider.rows src and m = Provider.cols src in
    {
      src;
      st =
        {
          cache = Provider.Cache.create src;
          norms;
          k;
          m;
          beta = Array.make m 0.;
          mu = Array.make k 0.;
          active = [];
          in_active = Array.make m false;
          banned = Array.make m false;
          notes = [];
          chol = Cholesky.Grow.create (max (min k m) 1);
        };
      mode;
      tol;
      on_singular;
      max_steps;
      max_lambda;
      max_active = min k m;
      f;
      c = [||];
      steps_rev = [];
      events = [];
      nevents = 0;
      initial_c = 0.;
      nsteps = 0;
      stop = false;
      phase = Corr;
    }

  let create ?(mode = Lar) ?(tol = 1e-10) ?pool ?(on_singular = `Stop) src f
      ~max_lambda =
    let max_steps = step_budget max_lambda in
    validate src f ~max_steps;
    make ~mode ~tol ~on_singular
      ~norms:(fix_norms (Provider.column_norms ?pool src))
      src f ~max_lambda:(Some max_lambda) ~max_steps

  let finished t = match t.phase with Done -> true | Corr | Dir _ -> false

  let request t =
    match t.phase with
    | Corr -> Vec.sub t.f t.st.mu
    | Dir { dir; _ } -> dir.u
    | Done -> invalid_arg "Lars.Engine.request: engine is finished"

  (* The one stop rule. The walk continues only while not stopped, under
     the step budget and — LAR mode — while the last recorded step's
     model fits the λ budget: a LAR step never removes a basis, so once
     a model has more than λ of them no later step can give a model the
     λ grid reads. Lasso drops can bring the support back under λ, so a
     lasso walk keeps the full step budget. *)
  let settle t =
    let past_lambda =
      match (t.mode, t.max_lambda, t.steps_rev) with
      | Lar, Some l, s :: _ -> Model.nnz s.model > l
      | _ -> false
    in
    t.phase <-
      (if t.stop || t.nsteps >= t.max_steps || past_lambda then Done else Corr)

  let push t (e : Ckpt.event) ~cc =
    let opt j = if j >= 0 then Some j else None in
    t.steps_rev <-
      {
        added = opt e.Ckpt.added;
        dropped = opt e.Ckpt.dropped;
        max_corr = cc;
        model = current_model t.st;
      }
      :: t.steps_rev;
    t.events <- e :: t.events;
    t.nevents <- t.nevents + 1

  (* Correlation of every active column (oldest first): the gathered
     active values, plus the entrant's. *)
  let active_corrs (p : Shard_sweep.pick) act =
    let tbl = Hashtbl.create 16 in
    Array.iter (fun (j, v) -> Hashtbl.replace tbl j v) p.Shard_sweep.act_c;
    if p.Shard_sweep.enter >= 0 then
      Hashtbl.replace tbl p.Shard_sweep.enter p.Shard_sweep.enter_val;
    Array.map
      (fun j ->
        match Hashtbl.find_opt tbl j with
        | Some v -> v
        | None -> invalid_arg "Lars.path: internal: correlation not gathered")
      act

  (* Supply the correlation pick: the stop test, the entering variable
     (unless the active set is saturated or a lasso drop just occurred
     and none may enter), then either a ban step or the direction. *)
  let answer_corr t (p : Shard_sweep.pick) =
    let st = t.st in
    t.nsteps <- t.nsteps + 1;
    let big_c = p.Shard_sweep.big_c and j = p.Shard_sweep.enter in
    if t.nsteps = 1 then t.initial_c <- big_c;
    if big_c <= t.tol *. Float.max t.initial_c 1. then begin
      t.stop <- true;
      settle t;
      No_entry
    end
    else begin
      let entry =
        if
          j >= 0
          && List.length st.active < t.max_active
          && p.Shard_sweep.enter_abs >= big_c -. (1e-9 *. big_c) -. 1e-15
        then
          match append_to_chol st j with
          | () ->
              enter st j;
              Entered j
          | exception Cholesky.Not_positive_definite _ -> (
              (* Entering column linearly dependent on the active set. *)
              match t.on_singular with
              | `Stop -> No_entry
              | `Fallback ->
                  ban st j;
                  Banned j)
        else No_entry
      in
      (if st.active = [] then t.stop <- true
       else
         let act = active_oldest_first st in
         let cs = active_corrs p act in
         match entry with
         | Banned b ->
             (* A ban consumes the iteration without moving. The column
                that should enter instead is usually already at the
                correlation tie, so its γ candidate is ~0 and the scan
                would reject it — the step would then run unbounded past
                the tie and leave the active set non-equicorrelated for
                good (observed as a 2-cycle that never reaches the LS
                point). Record a zero-length step so the ban lands in
                the path and the event log; the next iteration re-scans
                without the column and hands the step to the true
                entrant. *)
             push t
               { Ckpt.added = -1; banned = b; dropped = -1; gamma = 0. }
               ~cc:(max_abs cs)
         | No_entry | Entered _ -> (
             match direction st act cs with
             | None -> t.stop <- true
             | Some dir ->
                 let added = match entry with Entered j -> Some j | _ -> None in
                 t.phase <- Dir { added; dir; screen = Unscreened }));
      (match t.phase with Dir _ -> () | Corr | Done -> settle t);
      entry
    end

  (* Supply the minimum γ candidate over the inactive columns: the step
     runs to it, or to the saturation point C/A (the full-LS endpoint of
     the active set; the tol test then stops the next iteration), or —
     lasso — to the first zero crossing of an active coefficient, which
     is dropped there. Returns the committed γ and the dropped column. *)
  let answer_dir t g =
    match t.phase with
    | Corr | Done -> invalid_arg "Lars.Engine: no direction pending"
    | Dir { added; dir; _ } ->
        let st = t.st in
        let gamma = ref (dir.cc /. dir.a_a) in
        if g < !gamma then gamma := g;
        let dropped = ref (-1) in
        if t.mode = Lasso then
          Array.iteri
            (fun p j ->
              (* β_j moves by γ·d_j; it crosses zero at γ = −β_j/d_j. *)
              if dir.d.(p) <> 0. then begin
                let gz = -.st.beta.(j) /. dir.d.(p) in
                if gz > 1e-12 && gz < !gamma then begin
                  gamma := gz;
                  dropped := j
                end
              end)
            dir.act;
        advance st dir !gamma;
        if
          !dropped >= 0
          && drop st ~on_singular:t.on_singular ~on_stop:raise !dropped
        then t.stop <- true;
        push t
          {
            Ckpt.added = (match added with Some j -> j | None -> -1);
            banned = -1;
            dropped = !dropped;
            gamma = !gamma;
          }
          ~cc:dir.cc;
        settle t;
        (!gamma, if !dropped >= 0 then Some !dropped else None)

  (* The whole-dictionary answers from raw M-length sweeps. *)
  let scan_corr t gtr =
    let st = t.st in
    let c, pick =
      Shard_sweep.lars_scan ~norms:st.norms ~active:st.in_active
        ~banned:st.banned ~jlo:0 gtr
    in
    t.c <- c;
    pick

  let scan_gamma t gu =
    match t.phase with
    | Corr | Done -> invalid_arg "Lars.Engine: no direction pending"
    | Dir { dir; _ } ->
        let st = t.st in
        Shard_sweep.gamma_scan ~norms:st.norms ~active:st.in_active
          ~banned:st.banned ~c:t.c ~cc:dir.cc ~a_a:dir.a_a gu

  let supply t g =
    match t.phase with
    | Corr -> ignore (answer_corr t (scan_corr t g))
    | Dir _ -> ignore (answer_dir t (scan_gamma t g))
    | Done -> invalid_arg "Lars.Engine.supply: engine is finished"

  (* The [screen_top] inactive, non-banned columns of largest |c_j|,
     ascending. A NaN correlation never ranks: the bound keeps it. *)
  let nearest_tie st c =
    let tv = Array.make screen_top 0. and ti = Array.make screen_top 0 in
    let nt = ref 0 in
    for j = 0 to st.m - 1 do
      if (not st.in_active.(j)) && not st.banned.(j) then begin
        let a = Float.abs c.(j) in
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

  (* The step-length screen: the exact candidates of the columns
     nearest the tie bound the step from above by thr = min(C/A, their
     minimum), and [Shard_sweep.gamma_screen] rules out every column
     whose candidates must exceed thr. More than [screen_share]·M
     survivors: [Sweep]. *)
  let run_screen t dir =
    let st = t.st and c = t.c in
    let top = nearest_tie st c in
    let top_dots = Array.make (Array.length top) 0. in
    Provider.col_dots t.src top dir.u top_dots;
    let g_top =
      Shard_sweep.gamma_scan_at ~norms:st.norms ~c ~cc:dir.cc ~a_a:dir.a_a top
        top_dots
    in
    let ca = dir.cc /. dir.a_a in
    match
      Shard_sweep.gamma_screen ~active:st.in_active ~banned:st.banned ~c
        ~cc:dir.cc ~a_a:dir.a_a
        ~u_norm:(sqrt (Vec.nrm2_sq dir.u))
        ~thr:(if g_top < ca then g_top else ca)
        ~top
        ~limit:
          (int_of_float (screen_share *. float_of_int st.m) - Array.length top)
    with
    | Some rest -> Kept { top; g_top; rest }
    | None -> Sweep

  let screen_state t =
    match t.phase with
    | Corr | Done -> Sweep
    | Dir d ->
        (match d.screen with
        | Unscreened -> d.screen <- run_screen t d.dir
        | Sweep | Kept _ -> ());
        d.screen

  let screen t =
    match screen_state t with
    | Kept { top; rest; _ } ->
        let kept = Array.append top rest in
        Array.sort Int.compare kept;
        Some kept
    | Unscreened | Sweep -> None

  (* The screened answer: exact images of the surviving columns only.
     A skipped column's candidates all exceed thr ≥ the minimum over
     the survivors, so min(C/A, ·) commits the full scan's γ bit for
     bit. *)
  let supply_screened t =
    match (t.phase, screen_state t) with
    | Dir { dir; _ }, Kept { g_top; rest; _ } ->
        let st = t.st in
        let dots = Array.make (Array.length rest) 0. in
        Provider.col_dots t.src rest dir.u dots;
        let g_rest =
          Shard_sweep.gamma_scan_at ~norms:st.norms ~c:t.c ~cc:dir.cc
            ~a_a:dir.a_a rest dots
        in
        ignore (answer_dir t (if g_rest < g_top then g_rest else g_top))
    | _ -> invalid_arg "Lars.Engine.supply_screened: the screen does not hold"

  let steps t = Array.of_list (List.rev t.steps_rev)
end

(* Replay the checkpointed event log against the design provider. The
   recorded gammas replace the two O(K·M) sweeps of every live step, so
   replay costs O(E·p·K) (active-column dots only) yet reproduces
   mu/beta/active/chol — and every step record — bit-for-bit through the
   walk's own direction/advance/drop helpers. The replayed walk's log
   is then checked against the loaded one, which guards against
   resuming with different data, mode or [on_singular] policy. *)
let replay (t : Engine.t) (ck : Ckpt.t) =
  let st = t.Engine.st and mode = t.Engine.mode and f = t.Engine.f in
  let who = "Lars.path: resume: " in
  let fail msg = invalid_arg (who ^ msg) in
  Ckpt.check_problem ~who ~solver:(mode_tag mode) ~k:st.k ~m:st.m ck;
  (* Exact per-column dots — bitwise the live sweep's entries. *)
  let active_corrs act =
    let res = Vec.sub f st.mu in
    Array.map
      (fun j -> Provider.Cache.col_dot st.cache j res /. st.norms.(j))
      act
  in
  Array.iter
    (fun (e : Ckpt.event) ->
      if t.Engine.stop then fail "events continue past a terminal state";
      let out j = j < -1 || j >= st.m in
      if out e.added || out e.banned || out e.dropped then
        fail "event column out of range";
      if e.banned >= 0 then begin
        (* A live ban consumes its whole iteration as a zero-length
           step: no add, no drop, no movement. Replay it the same way. *)
        (match t.Engine.on_singular with
        | `Stop ->
            fail
              "checkpoint recorded a banned column (was it written with \
               ~on_singular:`Fallback?)"
        | `Fallback -> ());
        if st.banned.(e.banned) then fail "column banned twice";
        if e.added >= 0 || e.dropped >= 0 || e.gamma <> 0. then
          fail "ban event must be a zero-length step";
        if st.active = [] then fail "ban event with an empty active set";
        ban st e.banned;
        Engine.push t e ~cc:(max_abs (active_corrs (active_oldest_first st)))
      end
      else begin
        if e.added >= 0 then begin
          if st.in_active.(e.added) then fail "column added twice";
          (match append_to_chol st e.added with
          | () -> ()
          | exception Cholesky.Not_positive_definite _ ->
              fail "replayed entering column is linearly dependent");
          enter st e.added
        end;
        if st.active = [] then fail "step event with an empty active set";
        let act = active_oldest_first st in
        match direction st act (active_corrs act) with
        | None -> fail "non-positive equiangular normalization"
        | Some dir ->
            advance st dir e.Ckpt.gamma;
            if e.dropped >= 0 then begin
              if mode <> Lasso then fail "drop event outside lasso mode";
              if not st.in_active.(e.dropped) then
                fail "replayed drop of an inactive column";
              if
                drop st ~on_singular:t.Engine.on_singular
                  ~on_stop:(fun _ -> fail "non-SPD active set after replayed drop")
                  e.dropped
              then t.Engine.stop <- true
            end;
            Engine.push t e ~cc:dir.cc
      end)
    ck.Ckpt.events;
  Ckpt.verify ~who ~expected:ck
    (capture st ~mode ~scale:ck.Ckpt.scale ~f t.Engine.events);
  (* Every non-terminal live iteration pushes exactly one step, so the
     iteration counter resumes at the event count. *)
  t.Engine.nsteps <- t.Engine.nevents;
  t.Engine.initial_c <- ck.Ckpt.scale;
  Engine.settle t

(* The engine driven by this solver's own answerers: exact or
   incremental sweeps over the whole dictionary, or the column-sharded
   engine — plus each step's side effects on them (Gram-cache builds,
   shard masks, incremental retreat/refresh) and checkpoint emission.
   [max_lambda] is the walk's λ budget ([None]: walk the whole step
   budget). *)
let walk ?(mode = Lar) ?(tol = 1e-10) ?pool ?(on_singular = `Stop) ?log
    ?(sweep = Corr_sweep.Exact) ?shards src f ~max_lambda ~max_steps =
  validate src f ~max_steps;
  let resume = Option.bind log (fun (l : Ckpt.log) -> l.resume) in
  (* Column-sharded sweep engine: the per-step O(K·M) scans decompose
     over contiguous column shards and merge bitwise (see Shard_sweep).
     Created against f — with a resume, the post-replay residual is
     re-swept below, which is exactly the refresh the checkpoint
     emission ran. *)
  Shard_sweep.with_fleet ?pool ?shards ~sweep src ~r0:f
  @@ fun eng ->
  let norms =
    match eng with
    | None -> Provider.column_norms ?pool src
    | Some e -> Shard_sweep.raw_norms e
  in
  let t =
    Engine.make ~mode ~tol ~on_singular ~norms:(fix_norms norms) src f
      ~max_lambda ~max_steps
  in
  let st = t.Engine.st in
  (match resume with None -> () | Some ck -> replay t ck);
  (* Incremental correlation state, created after any resume replay so
     its initial exact sweep sees the resumed residual — the same
     refresh point the uninterrupted run hit when it emitted the
     checkpoint (emission forces an exact refresh below), which is what
     keeps resumed incremental runs bitwise equal to uninterrupted
     ones. Replayed active columns get their Gram columns rebuilt here
     (same O(K·M) sweeps, hence same values, as the original run's
     [ensure_gram] calls). *)
  let inc =
    match (sweep, eng) with
    | _, Some _ | Corr_sweep.Exact, None -> None
    | Corr_sweep.Incremental { refresh }, None ->
        let ic =
          Corr_sweep.Inc.create ?pool ~refresh src (Vec.sub f st.mu)
        in
        List.iter
          (fun j ->
            Corr_sweep.Inc.ensure_gram ic j (Provider.Cache.column st.cache j))
          (List.rev st.active);
        Some ic
  in
  (* Sharded post-replay sync — the same rebuild [inc] runs above: an
     exact re-sweep of the resumed residual, the replayed active set's
     Gram slices (oldest first), and the replayed bans. *)
  (match eng with
  | None -> ()
  | Some e ->
      if Option.is_some resume then Shard_sweep.refresh e (Vec.sub f st.mu);
      List.iter
        (fun j -> Shard_sweep.activate e j (Provider.Cache.column st.cache j))
        (List.rev st.active);
      Array.iter (fun j -> Shard_sweep.ban e j) (banned_columns st));
  let emit =
    Ckpt.emitter log ~start:t.Engine.nevents
      ~after:(fun () ->
        (* Checkpoint-aligned exact refresh: see [inc] above. *)
        Option.iter
          (fun ic -> Corr_sweep.Inc.refresh ic (Vec.sub f st.mu))
          inc;
        Option.iter (fun e -> Shard_sweep.refresh e (Vec.sub f st.mu)) eng)
      (fun () -> capture st ~mode ~scale:t.Engine.initial_c ~f t.Engine.events)
  in
  while not (Engine.finished t) do
    (match t.Engine.phase with
    | Engine.Done -> ()
    | Engine.Corr -> (
        (* Correlations of every column with the residual: the
           column-parallel Gᵀ·r sweep (bitwise equal to the sequential
           per-column xdot), the delta-maintained incremental vector —
           O(M) instead of O(K·M) — or the shards' merged picks. *)
        let pick =
          match (eng, inc) with
          | Some e, _ -> Shard_sweep.lars_select e ~r:(Engine.request t)
          | None, Some ic ->
              Engine.scan_corr t (Corr_sweep.Inc.correlations ic)
          | None, None ->
              Engine.scan_corr t
                (Corr_sweep.gram_tr ?pool src (Engine.request t))
        in
        match Engine.answer_corr t pick with
        | Engine.Entered j ->
            (* Entering column: cache v_j = Gᵀ·g_j once — the O(K·M)
               build that every later delta update amortizes. *)
            let col = Provider.Cache.column st.cache j in
            Option.iter (fun ic -> Corr_sweep.Inc.ensure_gram ic j col) inc;
            Option.iter (fun e -> Shard_sweep.activate e j col) eng
        | Engine.Banned j -> Option.iter (fun e -> Shard_sweep.ban e j) eng
        | Engine.No_entry -> ())
    | Engine.Dir { dir; _ } -> (
        (* Step lengths: the inner products of the columns with the
           equiangular direction u are the second Gᵀ·r-shaped sweep of
           the iteration. The exact engine computes them only for the
           columns its screen keeps, or sweeps all of them when it
           keeps too many. Incremental mode assembles Gᵀ·u from the
           cached Gram columns of the active set (u = Σ w_p·x_{j_p}) at
           O(p·M) — the sweep the Gram cache eliminates outright.
           Sharded runs push the sweep and the min scan into the shards
           and fold the exact local minima. *)
        let weights () =
          Array.mapi (fun p j -> (j, dir.d.(p) /. st.norms.(j))) dir.act
        in
        match (eng, inc) with
        | None, None ->
            if Option.is_some (Engine.screen t) then Engine.supply_screened t
            else Engine.supply t (Corr_sweep.gram_tr ?pool src dir.u)
        | None, Some ic ->
            let gu = Corr_sweep.Inc.combination ic (weights ()) in
            let gamma, _ = Engine.answer_dir t (Engine.scan_gamma t gu) in
            (* The residual moved by −γ·u, so c moved by −γ·(Gᵀ·u) — the
               delta update replacing the next iteration's full sweep. *)
            Corr_sweep.Inc.retreat ic gamma gu;
            Corr_sweep.Inc.note_step ic;
            if Corr_sweep.Inc.due ic then
              Corr_sweep.Inc.refresh ic (Vec.sub f st.mu)
        | Some e, _ ->
            let sdir =
              if Shard_sweep.incremental e then
                Shard_sweep.Weights (weights ())
              else Shard_sweep.Dense dir.u
            in
            let gamma, dropped =
              Engine.answer_dir t
                (Shard_sweep.lars_gamma e ~cc:dir.cc ~a_a:dir.a_a sdir)
            in
            (* The fleet keeps the same cadence as the unsharded Inc;
               retreat and the due refresh travel as one command. *)
            Shard_sweep.note_step e;
            let refresh =
              if Shard_sweep.due e then Some (Vec.sub f st.mu) else None
            in
            Shard_sweep.commit e ~gamma ~dir:sdir ~refresh;
            Option.iter (Shard_sweep.deactivate e) dropped));
    emit ~final:false t.Engine.nevents
  done;
  (* Terminal checkpoint: whatever the cadence, a completed path leaves
     a checkpoint of its full event log, so resuming from it replays the
     whole walk rather than a stale prefix. *)
  emit ~final:true t.Engine.nevents;
  Engine.steps t

let path_p ?mode ?tol ?pool ?on_singular ?log ?sweep ?shards src f ~max_steps =
  walk ?mode ?tol ?pool ?on_singular ?log ?sweep ?shards src f ~max_lambda:None
    ~max_steps

let lambda_path_p ?mode ?pool ?on_singular ?sweep ?shards src f ~max_lambda =
  walk ?mode ?pool ?on_singular ?sweep ?shards src f
    ~max_lambda:(Some max_lambda) ~max_steps:(step_budget max_lambda)

(* λ-indexed models from a step sequence: entry λ−1 holds the last path
   model with at most λ active coefficients, so curves are indexed by
   support size exactly as for OMP/STAR (lasso drops make steps ≠
   support size). *)
let lambda_models src ~max_lambda steps =
  if Array.length steps = 0 then [||]
  else begin
    let empty =
      Model.make ~basis_size:(Provider.cols src) ~support:[||] ~coeffs:[||]
    in
    let models = Array.make max_lambda empty in
    Array.iter
      (fun s ->
        let n = Model.nnz s.model in
        if n >= 1 && n <= max_lambda then
          for l = n - 1 to max_lambda - 1 do
            models.(l) <- s.model
          done)
      steps;
    models
  end

let fit_p ?mode ?tol ?pool ?on_singular ?log ?sweep ?shards src f ~lambda =
  if lambda <= 0 then invalid_arg "Lars.fit: lambda must be positive";
  (* Drops can make the path longer than the target support size. *)
  let base_steps = (2 * lambda) + 8 in
  let rec run max_steps =
    let steps =
      walk ?mode ?tol ?pool ?on_singular ?log ?sweep ?shards src f
        ~max_lambda:(Some lambda) ~max_steps
    in
    let best = ref None in
    Array.iter
      (fun s -> if Model.nnz s.model <= lambda then best := Some s.model)
      steps;
    match !best with
    | Some m -> m
    | None ->
        if Array.length steps >= max_steps && max_steps < 8 * base_steps then
          (* The step budget truncated the path (drops/bans ate it all)
             before any model fit inside the sparsity budget: extend the
             walk rather than silently giving up. Replay from the resume
             checkpoint (when any) is cheap, so re-running the path is
             dominated by the new live steps. *)
          run (2 * max_steps)
        else
          (* Genuinely no qualifying model even with headroom: say so on
             the returned model instead of handing back a bare zero fit. *)
          Model.add_note
            (Model.make ~basis_size:(Provider.cols src) ~support:[||]
               ~coeffs:[||])
            (Printf.sprintf
               "lars: path ended after %d steps with no model of at most %d \
                bases"
               (Array.length steps) lambda)
  in
  run base_steps

let path ?mode ?tol ?pool ?on_singular g f ~max_steps =
  path_p ?mode ?tol ?pool ?on_singular (Provider.dense g) f ~max_steps

let fit ?mode ?tol ?pool ?on_singular g f ~lambda =
  fit_p ?mode ?tol ?pool ?on_singular (Provider.dense g) f ~lambda
