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
  mutable barred : int;
      (* the column a lasso drop just removed, which may not enter at
         the next correlation pick (Efron et al., Section 3.1); -1 *)
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
   [true]: stop), under [`Stop] it is handed to [on_stop]. *)
let drop st ~on_singular ~on_stop j =
  st.beta.(j) <- 0.;
  st.active <- List.filter (fun i -> i <> j) st.active;
  st.in_active.(j) <- false;
  st.barred <- j;
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

(* ------------------------------------------------------------------ *)
(* A step's correlation pick: C over the non-banned columns, the
   entering candidate (-1 when none), its |c| and value, and the
   correlation values at the active columns, ascending. *)
type pick = {
  big_c : float;
  enter : int;
  enter_abs : float;
  enter_val : float;
  act_c : (int * float) array;
}

(* The LAR step's two O(M) scans over the dictionary. Plain loops over
   float arrays (no per-column closure), since every step of every walk
   runs them.

   Selection scan over the listed columns [idx] (ascending,
   [gtr_at.(t)] column idx.(t)'s raw correlation): normalize them into
   [c], then C over the non-banned listed columns, the entering
   candidate (inactive, non-banned, not the barred column [bar], strict
   [>] so the lowest index wins ties), and the correlation values at
   the active listed columns — everything the walk's step reads. *)
let lars_scan_at ?(bar = -1) ~norms ~active ~banned ~c idx gtr_at =
  let n = Array.length idx in
  if Array.length gtr_at <> n then
    invalid_arg "Lars.lars_scan_at: sweep length mismatch";
  for t = 0 to n - 1 do
    let j = idx.(t) in
    c.(j) <- gtr_at.(t) /. norms.(j)
  done;
  let big_c = ref 0. and enter = ref (-1) and enter_abs = ref 0. in
  for t = 0 to n - 1 do
    let j = idx.(t) in
    let a = Float.abs c.(j) in
    if (not banned.(j)) && a > !big_c then big_c := a;
    if (not active.(j)) && (not banned.(j)) && j <> bar && a > !enter_abs
    then begin
      enter := j;
      enter_abs := a
    end
  done;
  let act = ref [] in
  for t = n - 1 downto 0 do
    let j = idx.(t) in
    if active.(j) then act := (j, c.(j)) :: !act
  done;
  {
    big_c = !big_c;
    enter = !enter;
    enter_abs = !enter_abs;
    enter_val = (if !enter >= 0 then c.(!enter) else 0.);
    act_c = Array.of_list !act;
  }

(* The scan over every column, from a full sweep. *)
let lars_scan ?bar ~norms ~active ~banned gtr =
  let w = Array.length norms in
  if Array.length gtr <> w then
    invalid_arg "Lars.lars_scan: sweep length mismatch";
  let c = Array.make w 0. in
  ( c,
    lars_scan_at ?bar ~norms ~active ~banned ~c (Array.init w Fun.id) gtr )

(* Column j's two candidates folded into the running minimum [best]:
   the one step-length arithmetic of every scan below. *)
let[@inline] fold_gamma best ~cc ~a_a cj aj =
  let cand1 = (cc -. cj) /. (a_a -. aj) in
  let cand2 = (cc +. cj) /. (a_a +. aj) in
  let best = if cand1 > 1e-12 && cand1 < best then cand1 else best in
  if cand2 > 1e-12 && cand2 < best then cand2 else best

(* Step-length scan: the minimum gamma candidate over the inactive,
   non-banned columns ([infinity] when none).  The running-min
   acceptance (cand > 1e-12 && cand < gamma) reduces to min(init, min of
   all candidates > 1e-12), and float min is exact, so folding the
   minimum — or a screened one — against C/A reproduces the sequential
   running scan bit for bit. *)
let gamma_scan ~norms ~active ~banned ~c ~cc ~a_a gu =
  let w = Array.length norms in
  if Array.length c <> w || Array.length gu <> w then
    invalid_arg "Lars.gamma_scan: length mismatch";
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
    invalid_arg "Lars.gamma_scan_at: length mismatch";
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

(* The step-length screen: the exact candidates of the columns nearest
   the tie bound the step from above by
   thr = min(C/A, their minimum), [gamma_screen] rules out every column
   whose candidates must exceed thr, and the survivors' images give the
   rest of the minimum. A ruled-out column's candidates all exceed
   thr ≥ that minimum, so it is the full scan's minimum whenever the
   full scan's is at most C/A, and above C/A otherwise: folded against
   C/A, bit for bit the same step. [hi.(j)] bounds |c_j| from above;
   [refresh idx] makes [c] exact at the listed columns, so a column
   whose correlation was only bounded gets its exact value once it
   survives. [col_dots idx u out] computes the listed columns' raw
   images (the engine's column kernel). More than [screen_share] of the
   columns surviving: [Sweep]. *)
let screen_gamma col_dots ~norms ~active ~banned ~c ~hi ~refresh ~cc ~a_a u =
  let w = Array.length norms in
  if Array.length c <> w || Array.length hi <> w then
    invalid_arg "Lars.screen_gamma: length mismatch";
  let dots idx =
    refresh idx;
    let out = Array.make (Array.length idx) 0. in
    col_dots idx u out;
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

(* The LAR walk. Each step suspends twice for an O(K·M) answer — the
   correlation pick (C, the entrant, its value, the active columns'
   correlations) and the minimum step-length candidate — and whoever
   drives the engine supplies them: a full sweep (the provider's or a
   shard fleet's) or a fused multi-residual sweep, reduced by the scans
   above. Every driver therefore walks the same steps with the same
   float sequences. *)
module Engine = struct
  (* What a step's correlation phase computes exactly: every column
     (the full sweep), or the active set plus the inactive columns whose
     carried bound reaches the active correlation. *)
  type keep = Full | Carried of { idx : int array; rest : int array }

  (* The residual of a correlation phase, its norm, and its [keep],
     decided once, on first asking. *)
  type corr = { r : Vec.t; r_norm : float; mutable keep : keep option }

  (* The raw images (Gᵀu)_j a direction's answer computed: none yet,
     every column's (the full sweep), or the listed columns' (a screen
     that held). *)
  type images = No_images | All_images of Vec.t | Listed of int array * Vec.t

  (* A direction's step-length screen is run once, on first asking.
     When it falls back while some correlations are only bounded, the
     direction first asks for the residual's full sweep ([resweep]),
     which makes every correlation exact, and its screen runs again. *)
  type phase =
    | Corr of corr
    | Dir of {
        added : int option;
        dir : dir;
        corr : corr;
        mutable screen : screen option;
        mutable resweep : bool;
        mutable images : images;
      }
    | Done

  type dots = { full : int; carried : int; screened : int; fallback : int }

  type t = {
    col_dots : int array -> Vec.t -> Vec.t -> unit;
        (* the provider's column kernel, or a shard fleet's *)
    st : state;
    mode : mode;
    tol : float;
    on_singular : [ `Stop | `Fallback ];
    max_steps : int;
    max_lambda : int option;  (* λ budget of a λ-driven walk *)
    max_active : int;
    f : Vec.t;
    f_norm : float;
    (* Normalized correlations, exact at the columns whose [fresh] stamp
       is the current [tick]; stale elsewhere. *)
    mutable c : Vec.t;
    fresh : int array;
    mutable tick : int;
    (* This step's upper bound on every |c_j| (|c_j| where exact). *)
    hi : Vec.t;
    (* The carried bounds: |c_j| at the last step that computed it, plus
       that step's rounding allowance, and the path length [moved] had
       then. [infinity] until a step computes it. *)
    bound : Vec.t;
    bound_at : Vec.t;
    mutable moved : float;  (* Σ γ·‖u‖ over the live steps, with margins *)
    raw : Vec.t;  (* scratch: raw correlations of the carried columns *)
    mutable n_full : int;
    mutable n_carried : int;
    mutable n_screened : int;
    mutable n_fallback : int;
    mutable steps_rev : step list;
    mutable events : Ckpt.event list;  (* newest first, one per step *)
    mutable nevents : int;
    mutable initial_c : float;
    mutable nsteps : int;
    mutable stop : bool;
    mutable phase : phase;
  }

  type entry = No_entry | Entered of int | Banned of int

  (* Carried-bound constants. For unit columns, |c_j(r) − c_j(r_e)| ≤
     ‖r − r_e‖ (Efron et al.), and the residual moves by γ·u per step,
     so |c_j| now is at most its value at step e plus the path length
     walked since. The margins cover rounding: [rho]·‖r_e‖ the
     computed |c_j| at both ends (K·ε·‖r‖ for K below 10⁶ is under
     1.2e-10·‖r‖), 1e-9 the relative error of γ·‖u‖ and of the column
     norms, [drift]·‖f‖ per step the rounding of μ's update and of
     r = f − μ (a few ε·(‖f‖ + ‖μ‖), ‖μ‖ ≤ 2‖f‖ on a LAR path). A
     column is computed exactly unless its bound is below
     C·(1 − 1e-8) − 1e-14, C being the active set's exact correlation:
     every column that could enter (|c_j| ≥ C(1 − 1e-9) − 1e-15) or
     set C is computed. [carried_share]: a step whose exact columns
     exceed this share of M sweeps all of them, which resets every
     bound. Over the five walks of the Table II design (K = 1000,
     M = 1891, λ ≤ 120), shares of 0.3, 0.5 and 0.7 swept in full on the
     same steps only, each walk's first (no bounds yet). Per column, a
     subset dot from the column-major image took 1.5× a full sweep's
     time warm and 2.3× cold at 200 columns (more for fewer), so a
     carried step at half of M costs about the sweep it replaces
     (PERFORMANCE.md "LAR carried correlation bounds"). *)
  let rho = 1e-9
  let drift = 1e-14
  let carried_share = 0.5

  let make ~mode ~tol ~on_singular ~col_dots ~norms src f ~max_lambda
      ~max_steps =
    let k = Provider.rows src and m = Provider.cols src in
    let st =
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
        barred = -1;
        notes = [];
        chol = Cholesky.Grow.create (max (min k m) 1);
      }
    in
    {
      col_dots;
      st;
      mode;
      tol;
      on_singular;
      max_steps;
      max_lambda;
      max_active = min k m;
      f;
      f_norm = sqrt (Vec.nrm2_sq f);
      c = Array.make m 0.;
      fresh = Array.make m (-1);
      tick = 0;
      hi = Array.make m infinity;
      bound = Array.make m infinity;
      bound_at = Array.make m 0.;
      moved = 0.;
      raw = Array.make m 0.;
      n_full = 0;
      n_carried = 0;
      n_screened = 0;
      n_fallback = 0;
      steps_rev = [];
      events = [];
      nevents = 0;
      initial_c = 0.;
      nsteps = 0;
      stop = false;
      phase = Done;
    }

  (* A new correlation phase over the current residual. *)
  let corr_phase t =
    let r = Vec.sub t.f t.st.mu in
    t.tick <- t.tick + 1;
    Corr { r; r_norm = sqrt (Vec.nrm2_sq r); keep = None }

  let create ?(mode = Lar) ?(tol = 1e-10) ?pool ?(on_singular = `Stop) src f
      ~max_lambda =
    let max_steps = step_budget max_lambda in
    validate src f ~max_steps;
    let t =
      make ~mode ~tol ~on_singular ~col_dots:(Provider.col_dots ?pool src)
        ~norms:(fix_norms (Provider.column_norms ?pool src))
        src f ~max_lambda:(Some max_lambda) ~max_steps
    in
    t.phase <- corr_phase t;
    t

  let finished t = match t.phase with Done -> true | Corr _ | Dir _ -> false

  let request t =
    match t.phase with
    | Corr { r; _ } | Dir { resweep = true; corr = { r; _ }; _ } -> r
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
      (if t.stop || t.nsteps >= t.max_steps || past_lambda then Done
       else corr_phase t)

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
  let active_corrs p act =
    let tbl = Hashtbl.create 16 in
    Array.iter (fun (j, v) -> Hashtbl.replace tbl j v) p.act_c;
    if p.enter >= 0 then Hashtbl.replace tbl p.enter p.enter_val;
    Array.map
      (fun j ->
        match Hashtbl.find_opt tbl j with
        | Some v -> v
        | None -> invalid_arg "Lars.path: internal: correlation not gathered")
      act

  (* Supply the correlation pick, taken with the column a lasso drop
     just removed barred from entry: the stop test, the entering
     variable (unless the active set is saturated), then either a ban
     step or the direction. The bar holds for this one pick. *)
  let answer_corr t p =
    let st = t.st in
    let corr =
      match t.phase with
      | Corr corr -> corr
      | Dir _ | Done -> invalid_arg "Lars.Engine: no correlation pending"
    in
    st.barred <- -1;
    t.nsteps <- t.nsteps + 1;
    let big_c = p.big_c and j = p.enter in
    if t.nsteps = 1 then t.initial_c <- big_c;
    if big_c <= t.tol *. Float.max t.initial_c 1. then begin
      t.stop <- true;
      settle t
    end
    else begin
      let entry =
        if
          j >= 0
          && List.length st.active < t.max_active
          && p.enter_abs >= big_c -. (1e-9 *. big_c) -. 1e-15
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
                 t.phase <-
                   Dir
                     { added; dir; corr; screen = None; resweep = false;
                       images = No_images }));
      match t.phase with Dir _ -> () | Corr _ | Done -> settle t
    end

  (* A column whose image the step computed (every such column has its
     exact correlation) moved by exactly γ·a_j: c_j(r − γu) =
     c_j(r) − γ·a_j. Its bound restarts from |c_j − γa_j| when that is
     below the carried bound, with margins for the rounding of a_j
     (K·ε·‖u‖) and of the update, and [rho], [drift] as in the carried
     bound. *)
  let tighten t ~gamma ~u_norm =
    match t.phase with
    | Corr _ | Done -> ()
    | Dir { corr; images; _ } ->
        let st = t.st in
        let slack =
          (gamma *. 1e-9 *. u_norm) +. (drift *. t.f_norm) +. (rho *. corr.r_norm)
        in
        let one j raw =
          if t.fresh.(j) = t.tick && (not st.in_active.(j)) && not st.banned.(j)
          then begin
            let a = raw /. st.norms.(j) and c = t.c.(j) in
            let nb =
              Float.abs (c -. (gamma *. a))
              +. (1e-9 *. (Float.abs c +. (gamma *. Float.abs a)))
              +. slack
            in
            if nb < t.bound.(j) +. (t.moved -. t.bound_at.(j)) then begin
              t.bound.(j) <- nb;
              t.bound_at.(j) <- t.moved
            end
          end
        in
        match images with
        | No_images -> ()
        | All_images gu -> Array.iteri one gu
        | Listed (idx, raw) -> Array.iteri (fun q j -> one j raw.(q)) idx

  (* Supply the minimum γ candidate over the inactive columns: the step
     runs to it, or to the saturation point C/A (the full-LS endpoint of
     the active set; the tol test then stops the next iteration), or —
     lasso — to the first zero crossing of an active coefficient, which
     is dropped there. The residual moves by γ·u, which the carried
     bounds add to the path length. *)
  let answer_dir t g =
    match t.phase with
    | Corr _ | Done -> invalid_arg "Lars.Engine: no direction pending"
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
        let u_norm = sqrt (Vec.nrm2_sq dir.u) in
        t.moved <-
          t.moved +. (!gamma *. u_norm *. (1. +. 1e-9)) +. (drift *. t.f_norm);
        tighten t ~gamma:!gamma ~u_norm;
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
        settle t

  (* Column j's correlation is now exact: stamp it and restart its
     bound. *)
  let mark t (corr : corr) j =
    let a = Float.abs t.c.(j) in
    t.fresh.(j) <- t.tick;
    t.hi.(j) <- a;
    t.bound.(j) <- a +. (rho *. corr.r_norm);
    t.bound_at.(j) <- t.moved

  (* Exact correlations at the listed columns not yet exact this step:
     [col_dots], bitwise the full sweep's slots, normalized as
     [lars_scan_at] normalizes them. Returns how many it computed. *)
  let refresh t corr idx =
    let stale =
      List.filter (fun j -> t.fresh.(j) <> t.tick) (Array.to_list idx)
      |> Array.of_list
    in
    let n = Array.length stale in
    if n > 0 then begin
      let out = Array.make n 0. in
      t.col_dots stale corr.r out;
      Array.iteri
        (fun q j ->
          t.c.(j) <- out.(q) /. t.st.norms.(j);
          mark t corr j)
        stale
    end;
    n

  (* The correlation phase's plan: the active set's exact correlations
     give C, and an inactive, non-banned column joins them unless its
     carried bound is below C·(1 − 1e-8) − 1e-14. The active dots are
     computed here and kept in [raw]. *)
  let carried_keep t corr =
    let st = t.st and m = t.st.m in
    if st.active = [] then Full
    else begin
      let act = Array.of_list (List.sort Int.compare st.active) in
      let out = Array.make (Array.length act) 0. in
      t.col_dots act corr.r out;
      t.n_carried <- t.n_carried + Array.length act;
      let big_c = ref 0. in
      Array.iteri
        (fun q j ->
          t.raw.(j) <- out.(q);
          let a = Float.abs (out.(q) /. st.norms.(j)) in
          if a > !big_c then big_c := a)
        act;
      let thr = !big_c -. (1e-8 *. !big_c) -. 1e-14 in
      let room =
        int_of_float (carried_share *. float_of_int m) - Array.length act
      in
      let rest = Array.make (max 0 room + 1) 0 in
      let n = ref 0 and j = ref 0 in
      while !n <= room && !j < m do
        let jj = !j in
        if
          (not st.in_active.(jj))
          && (not st.banned.(jj))
          && not (t.bound.(jj) +. (t.moved -. t.bound_at.(jj)) < thr)
        then begin
          rest.(!n) <- jj;
          incr n
        end;
        incr j
      done;
      if !n > room then Full
      else begin
        let rest = Array.sub rest 0 !n in
        let idx = Array.append act rest in
        Array.sort Int.compare idx;
        Carried { idx; rest }
      end
    end

  let keep t corr =
    match corr.keep with
    | Some k -> k
    | None ->
        let k = carried_keep t corr in
        corr.keep <- Some k;
        k

  (* The whole-dictionary answers from raw M-length sweeps. A full
     correlation sweep makes every column exact and restarts every
     bound. *)
  let scan_corr t gtr =
    let st = t.st in
    let corr =
      match t.phase with
      | Corr corr -> corr
      | Dir _ | Done -> invalid_arg "Lars.Engine: no correlation pending"
    in
    let c, pick =
      lars_scan ~bar:st.barred ~norms:st.norms ~active:st.in_active
        ~banned:st.banned gtr
    in
    t.c <- c;
    for j = 0 to st.m - 1 do
      mark t corr j
    done;
    t.n_full <- t.n_full + st.m;
    pick

  (* The carried answer: the plan's remaining columns' dots, then the
     scan over the plan's columns; every other column keeps its bound as
     this step's [hi]. *)
  let carried_corr t corr ~idx ~rest =
    let st = t.st in
    let out = Array.make (Array.length rest) 0. in
    t.col_dots rest corr.r out;
    t.n_carried <- t.n_carried + Array.length rest;
    Array.iteri (fun q j -> t.raw.(j) <- out.(q)) rest;
    let pick =
      lars_scan_at ~bar:st.barred ~norms:st.norms ~active:st.in_active
        ~banned:st.banned ~c:t.c idx
        (Array.map (fun j -> t.raw.(j)) idx)
    in
    for j = 0 to st.m - 1 do
      t.hi.(j) <- t.bound.(j) +. (t.moved -. t.bound_at.(j))
    done;
    Array.iter (mark t corr) idx;
    pick

  (* The full step-length scan, over exact correlations: a driver that
     supplies the step-length sweep without asking the screen first gets
     the columns this step only bounded refreshed here. *)
  let scan_gamma t gu =
    match t.phase with
    | Corr _ | Done -> invalid_arg "Lars.Engine: no direction pending"
    | Dir ({ dir; corr; _ } as d) ->
        let st = t.st in
        let stale = ref [] in
        for j = st.m - 1 downto 0 do
          if t.fresh.(j) <> t.tick && (not st.in_active.(j)) && not st.banned.(j)
          then stale := j :: !stale
        done;
        t.n_fallback <-
          t.n_fallback + st.m + refresh t corr (Array.of_list !stale);
        d.images <- All_images gu;
        gamma_scan ~norms:st.norms ~active:st.in_active
          ~banned:st.banned ~c:t.c ~cc:dir.cc ~a_a:dir.a_a gu

  (* The residual's full sweep a direction asked for ([resweep]): every
     column is exact again, and the step-length screen runs anew. *)
  let resweep t d gtr =
    let st = t.st in
    for j = 0 to st.m - 1 do
      if t.fresh.(j) <> t.tick then begin
        t.c.(j) <- gtr.(j) /. st.norms.(j);
        mark t d j
      end
    done;
    t.n_full <- t.n_full + st.m

  let supply t g =
    if Array.length g <> t.st.m then
      invalid_arg "Lars.Engine.supply: sweep length mismatch";
    match t.phase with
    | Corr _ -> answer_corr t (scan_corr t g)
    | Dir ({ resweep = true; corr; _ } as d) ->
        resweep t corr g;
        d.resweep <- false;
        d.screen <- None
    | Dir _ -> answer_dir t (scan_gamma t g)
    | Done -> invalid_arg "Lars.Engine.supply: engine is finished"

  (* The step-length screen ([screen_gamma]) against this step's
     bounds; [Sweep] outside the direction phase. *)
  let screen_state t =
    match t.phase with
    | Corr _ | Done -> Sweep
    | Dir d -> (
        match d.screen with
        | Some s -> s
        | None ->
            let st = t.st in
            (* Each [refresh] call precedes the images of the same
               columns. *)
            let refreshed = ref 0 and imaged = ref 0 in
            let s =
              screen_gamma t.col_dots ~norms:st.norms
                ~active:st.in_active ~banned:st.banned ~c:t.c ~hi:t.hi
                ~refresh:(fun idx ->
                  imaged := !imaged + Array.length idx;
                  refreshed := !refreshed + refresh t d.corr idx)
                ~cc:d.dir.cc ~a_a:d.dir.a_a d.dir.u
            in
            (match s with
            | Kept { kept; images; _ } ->
                d.images <- Listed (kept, images);
                t.n_carried <- t.n_carried + !refreshed;
                t.n_screened <- t.n_screened + !imaged
            | Sweep ->
                t.n_fallback <- t.n_fallback + !refreshed + !imaged;
                let bounded = ref false in
                for j = 0 to st.m - 1 do
                  if
                    t.fresh.(j) <> t.tick
                    && (not st.in_active.(j))
                    && not st.banned.(j)
                  then bounded := true
                done;
                d.resweep <- !bounded);
            d.screen <- Some s;
            s)

  let screen t =
    match t.phase with
    | Corr corr -> (
        match keep t corr with
        | Carried { idx; _ } -> Some idx
        | Full -> None)
    | Dir _ | Done -> (
        match screen_state t with
        | Kept { kept; _ } -> Some kept
        | Sweep -> None)

  (* The screened answers: the carried correlations, or min(C/A, ·) of
     the step-length screen's minimum — each the full scan's answer bit
     for bit. *)
  let supply_screened t =
    let fail () =
      invalid_arg "Lars.Engine.supply_screened: the screen does not hold"
    in
    match t.phase with
    | Corr corr -> (
        match keep t corr with
        | Carried { idx; rest } -> answer_corr t (carried_corr t corr ~idx ~rest)
        | Full -> fail ())
    | Dir _ | Done -> (
        match screen_state t with
        | Kept { gamma; _ } -> answer_dir t gamma
        | Sweep -> fail ())

  let dots t =
    {
      full = t.n_full;
      carried = t.n_carried;
      screened = t.n_screened;
      fallback = t.n_fallback;
    }

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
      (* As the live pick clears it; a drop below sets it again. *)
      st.barred <- -1;
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

(* The engine driven by the kernels [Shard_sweep.with_fleet] hands it
   — the provider's own, or a shard fleet's, bitwise the same: the
   engine's screens answer wherever they hold — the carried
   correlations, then the step-length screen — and the full sweep
   answers everywhere else; plus checkpoint emission. [max_lambda] is
   the walk's λ budget ([None]: walk the whole step budget). *)
let walk ?(mode = Lar) ?(tol = 1e-10) ?pool ?(on_singular = `Stop) ?log
    ?shards src f ~max_lambda ~max_steps =
  validate src f ~max_steps;
  let resume = Option.bind log (fun (l : Ckpt.log) -> l.resume) in
  Shard_sweep.with_fleet ?pool ?shards src
  @@ fun (k : Shard_sweep.kernels) ->
  let t =
    Engine.make ~mode ~tol ~on_singular ~col_dots:k.col_dots
      ~norms:(fix_norms (k.column_norms ()))
      src f ~max_lambda ~max_steps
  in
  t.Engine.phase <- Engine.corr_phase t;
  (match resume with None -> () | Some ck -> replay t ck);
  let emit =
    Ckpt.emitter log ~start:t.Engine.nevents (fun () ->
        capture t.Engine.st ~mode ~scale:t.Engine.initial_c ~f t.Engine.events)
  in
  while not (Engine.finished t) do
    if Option.is_some (Engine.screen t) then Engine.supply_screened t
    else Engine.supply t (k.gram_tr (Engine.request t));
    emit ~final:false t.Engine.nevents
  done;
  (* Terminal checkpoint: whatever the cadence, a completed path leaves
     a checkpoint of its full event log, so resuming from it replays the
     whole walk rather than a stale prefix. *)
  emit ~final:true t.Engine.nevents;
  Engine.steps t

let path_p ?mode ?tol ?pool ?on_singular ?log ?shards src f ~max_steps =
  walk ?mode ?tol ?pool ?on_singular ?log ?shards src f ~max_lambda:None
    ~max_steps

let lambda_path_p ?mode ?pool ?on_singular ?shards src f ~max_lambda =
  walk ?mode ?pool ?on_singular ?shards src f ~max_lambda:(Some max_lambda)
    ~max_steps:(step_budget max_lambda)

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

let fit_p ?mode ?tol ?pool ?on_singular ?log ?shards src f ~lambda =
  if lambda <= 0 then invalid_arg "Lars.fit: lambda must be positive";
  (* Drops can make the path longer than the target support size. *)
  let base_steps = (2 * lambda) + 8 in
  let rec run max_steps =
    let steps =
      walk ?mode ?tol ?pool ?on_singular ?log ?shards src f
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
