open Linalg

type dataset = { points : Vec.t array; values : float array }

type t = {
  name : string;
  dim : int;
  eval : Vec.t -> float;
  seconds_per_sample : float;
}

let make ~name ~dim ~seconds_per_sample eval =
  if dim <= 0 then invalid_arg "Simulator.make: dimension must be positive";
  if seconds_per_sample < 0. then
    invalid_arg "Simulator.make: negative per-sample cost";
  { name; dim; eval; seconds_per_sample }

let run_one sim g =
  let p = Randkit.Gaussian.vector g sim.dim in
  (p, sim.eval p)

(* --- fault injection and retry ------------------------------------- *)

type fault_kind = Nan_return | Inf_return | Outlier | Transient | Hang

type burst_model = {
  burst_entry : float;
  burst_len : float;
  burst_rate : float;
  burst_mix : (fault_kind * float) array;
  burst_seed : int;
}

let check_mix ~who mix =
  if Array.length mix = 0 then invalid_arg (who ^ ": empty mix");
  let total =
    Array.fold_left
      (fun acc (_, w) ->
        if not (w >= 0.) || not (Float.is_finite w) then
          invalid_arg (who ^ ": mix weights must be finite and >= 0");
        acc +. w)
      0. mix
  in
  if total <= 0. then invalid_arg (who ^ ": mix weights sum to zero")

let burst_model ?(entry = 0.01) ?(len = 20.) ?(rate = 1.0)
    ?(mix = [| (Transient, 3.); (Hang, 1.) |]) ?(seed = 0xb1257) () =
  if not (entry >= 0. && entry <= 1.) then
    invalid_arg "Simulator.burst_model: entry probability must be in [0, 1]";
  if not (Float.is_finite len) || len < 1. then
    invalid_arg "Simulator.burst_model: expected length must be >= 1";
  (* A hard outage is rate 1: every attempt inside the window fails. *)
  if not (rate >= 0. && rate <= 1.) then
    invalid_arg "Simulator.burst_model: rate must be in [0, 1]";
  check_mix ~who:"Simulator.burst_model" mix;
  {
    burst_entry = entry;
    burst_len = len;
    burst_rate = rate;
    burst_mix = mix;
    burst_seed = seed;
  }

type fault_plan = {
  rate : float;
  mix : (fault_kind * float) array;
  outlier_scale : float;
  hang_seconds : float;
  fault_seed : int;
  burst : burst_model option;
}

let fault_plan ?(rate = 0.1)
    ?(mix = [| (Nan_return, 1.); (Outlier, 1.); (Transient, 1.) |])
    ?(outlier_scale = 50.) ?(hang_seconds = 30.) ?(fault_seed = 0x5eed)
    ?burst () =
  if not (rate >= 0. && rate < 1.) then
    invalid_arg "Simulator.fault_plan: rate must be in [0, 1)";
  check_mix ~who:"Simulator.fault_plan" mix;
  if outlier_scale <= 0. then
    invalid_arg "Simulator.fault_plan: outlier_scale must be positive";
  if hang_seconds < 0. then
    invalid_arg "Simulator.fault_plan: negative hang_seconds";
  { rate; mix; outlier_scale; hang_seconds; fault_seed; burst }

let no_faults = fault_plan ~rate:0. ()

(* The outage chain runs on its own stream ([burst_seed]), sequentially
   over sample indices, before any evaluation fans out — the per-sample
   burst flag is a pure function of (plan, k, i) at every domain count. *)
let burst_states plan ~k =
  match plan.burst with
  | None -> Array.make k false
  | Some b ->
      Randkit.Markov.states
        (Randkit.Markov.of_mean_len ~entry:b.burst_entry ~mean_len:b.burst_len
           ())
        ~seed:b.burst_seed k

type retry_policy = { max_attempts : int; backoff_seconds : float }

let retry_policy ?(max_attempts = 3) ?(backoff_seconds = 1.) () =
  if max_attempts < 1 then
    invalid_arg "Simulator.retry_policy: max_attempts must be >= 1";
  if backoff_seconds < 0. then
    invalid_arg "Simulator.retry_policy: negative backoff";
  { max_attempts; backoff_seconds }

let no_retry = { max_attempts = 1; backoff_seconds = 0. }

type run_report = {
  requested : int;
  delivered : int;
  failed : int array;
  faults_injected : int;
  nonfinite_faults : int;
  outliers_injected : int;
  transient_faults : int;
  hang_faults : int;
  retries : int;
  accounted_extra_seconds : float;
  burst_windows : int;
  burst_samples : int;
  burst_faults : int;
  breaker_trips : int;
}

let clean_report ~requested =
  {
    requested;
    delivered = requested;
    failed = [||];
    faults_injected = 0;
    nonfinite_faults = 0;
    outliers_injected = 0;
    transient_faults = 0;
    hang_faults = 0;
    retries = 0;
    accounted_extra_seconds = 0.;
    burst_windows = 0;
    burst_samples = 0;
    burst_faults = 0;
    breaker_trips = 0;
  }

let report_summary r =
  let base =
    Printf.sprintf
      "%d/%d samples delivered; %d faults injected (%d non-finite, %d \
       outliers, %d transient, %d hangs); %d retries; %d abandoned; %.1f s of \
       extra simulation accounted"
      r.delivered r.requested r.faults_injected r.nonfinite_faults
      r.outliers_injected r.transient_faults r.hang_faults r.retries
      (Array.length r.failed) r.accounted_extra_seconds
  in
  let burst =
    if r.burst_windows = 0 then ""
    else
      Printf.sprintf "; %d burst window(s) covering %d samples (%d faults)"
        r.burst_windows r.burst_samples r.burst_faults
  in
  let breaker =
    if r.breaker_trips = 0 then ""
    else Printf.sprintf "; %d breaker trip(s)" r.breaker_trips
  in
  base ^ burst ^ breaker

(* Fault and retry bookkeeping, summed sequentially after the (possibly
   parallel) evaluation sweep so the report is deterministic. *)
type tally = {
  mutable s_injected : int;
  mutable s_nonfinite : int;
  mutable s_outliers : int;
  mutable s_transient : int;
  mutable s_hangs : int;
  mutable s_retries : int;
  mutable s_extra : float;
  mutable s_burst_faults : int;
}

let tally () =
  {
    s_injected = 0;
    s_nonfinite = 0;
    s_outliers = 0;
    s_transient = 0;
    s_hangs = 0;
    s_retries = 0;
    s_extra = 0.;
    s_burst_faults = 0;
  }

let pick_kind mix fs =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0. mix in
  let u = Randkit.Prng.float fs *. total in
  let acc = ref 0. and kind = ref (fst mix.(0)) in
  (try
     Array.iter
       (fun (k, w) ->
         acc := !acc +. w;
         if u < !acc then begin
           kind := k;
           raise Exit
         end)
       mix
   with Exit -> ());
  !kind

type attempt_outcome = {
  injected : fault_kind option;
  returned : float array option;
  hang_s : float;
}

(* One attempt at a sample for every output at once: either a fault
   drawn from the per-sample stream [fs] — at the burst mix/rate when
   the sample sits inside an outage window — or a real evaluation. The
   stream consumption (rate draw, then kind, then for Inf/Outlier one
   sign) never depends on evaluator values, so a sample's fault history
   is the same whatever the number of outputs. Each of [evals] is called
   at most once per attempt, only when a value is actually produced
   (clean return or finite outlier garbage); an outlier corrupts every
   output with the same drawn sign. *)
let draw_attempt plan ~in_burst fs ~evals =
  let rate, mix =
    match plan.burst with
    | Some b when in_burst -> (b.burst_rate, b.burst_mix)
    | _ -> (plan.rate, plan.mix)
  in
  let all v = Some (Array.map (fun _ -> v) evals) in
  if rate > 0. && Randkit.Prng.float fs < rate then
    match pick_kind mix fs with
    | Nan_return ->
        { injected = Some Nan_return; returned = all Float.nan; hang_s = 0. }
    | Inf_return ->
        let v =
          if Randkit.Prng.bool fs then Float.infinity else Float.neg_infinity
        in
        { injected = Some Inf_return; returned = all v; hang_s = 0. }
    | Outlier ->
        let vs = Array.map (fun e -> e ()) evals in
        let sign = if Randkit.Prng.bool fs then 1. else -1. in
        {
          injected = Some Outlier;
          returned =
            Some
              (Array.map
                 (fun v -> v +. (sign *. plan.outlier_scale *. (1. +. Float.abs v)))
                 vs);
          hang_s = 0.;
        }
    | Transient -> { injected = Some Transient; returned = None; hang_s = 0. }
    | Hang ->
        { injected = Some Hang; returned = None; hang_s = plan.hang_seconds }
  else
    {
      injected = None;
      returned = Some (Array.map (fun e -> e ()) evals);
      hang_s = 0.;
    }

let record_attempt st ~in_burst a =
  (match a.injected with
  | None -> ()
  | Some kind ->
      st.s_injected <- st.s_injected + 1;
      if in_burst then st.s_burst_faults <- st.s_burst_faults + 1;
      (match kind with
      | Nan_return | Inf_return -> st.s_nonfinite <- st.s_nonfinite + 1
      | Outlier -> st.s_outliers <- st.s_outliers + 1
      | Transient -> st.s_transient <- st.s_transient + 1
      | Hang -> st.s_hangs <- st.s_hangs + 1));
  st.s_extra <- st.s_extra +. a.hang_s

type batch = {
  b_points : Vec.t array;
  b_streams : Randkit.Prng.t array;
  b_burst : bool array;
}

(* The per-sample retry loop: up to [allowed] attempts, each a
   [draw_attempt]. Before every attempt after the first the policy's
   [grant] is asked for its backoff, and the retry is charged that
   backoff plus [retry_cost] (the re-run). A sample is delivered only
   when every output came back finite; non-finite returns (injected or
   genuine) are retried, while outliers are finite garbage and pass
   through — the downstream screen is responsible for them. Nothing is
   ever slept. *)
let attempt_sample plan b st i ~evals ~retry_cost ~allowed ~grant =
  let fs = b.b_streams.(i) and in_burst = b.b_burst.(i) in
  let delivered = ref None in
  let attempt = ref 0 in
  while !delivered = None && !attempt < allowed do
    incr attempt;
    if !attempt > 1 then begin
      let backoff = grant !attempt in
      st.s_retries <- st.s_retries + 1;
      st.s_extra <- st.s_extra +. backoff +. retry_cost
    end;
    let a = draw_attempt plan ~in_burst fs ~evals in
    record_attempt st ~in_burst a;
    match a.returned with
    | Some vs when Array.for_all Float.is_finite vs -> delivered := Some vs
    | Some _ | None -> () (* failed attempt: crash, hang, or garbage *)
  done;
  !delivered

let run_batch ~noise_rel ~faults sims g ~k walk =
  let outputs = Array.length sims in
  if outputs = 0 then
    invalid_arg "Simulator.run_batch: at least one simulator required";
  if k <= 0 then
    invalid_arg "Simulator.run_batch: sample count must be positive";
  let dim = sims.(0).dim in
  if Array.exists (fun sim -> sim.dim <> dim) sims then
    invalid_arg "Simulator.run_batch: simulators disagree on dimension";
  (* Points come sequentially from the caller's generator (same stream
     as [run]); fault decisions come from per-sample streams split off
     the plan's own seed before any evaluation, so the outcome of sample
     [i] is a pure function of (plan, policy, i) — bitwise identical at
     every domain count, and unperturbed by other samples' retries. *)
  let b =
    {
      b_points = Array.init k (fun _ -> Randkit.Gaussian.vector g dim);
      b_streams =
        Randkit.Prng.split_n (Randkit.Prng.create faults.fault_seed) k;
      b_burst = burst_states faults ~k;
    }
  in
  let out, tallies = walk b in
  let kept = ref [] and failed = ref [] in
  for i = k - 1 downto 0 do
    if out.(i) <> None then kept := i :: !kept else failed := i :: !failed
  done;
  let kept = Array.of_list !kept in
  let kept_points = Array.map (fun i -> b.b_points.(i)) kept in
  let datasets =
    Array.init outputs (fun r ->
        (* The point array is physically shared across outputs. *)
        {
          points = kept_points;
          values = Array.map (fun i -> (Option.get out.(i)).(r)) kept;
        })
  in
  let k' = Array.length kept in
  if noise_rel > 0. && k' > 1 then
    (* Observation noise per output, in output order, all from the
       caller's generator — each metric's measurement noise is
       independent of the others'. *)
    Array.iter
      (fun d ->
        let sigma = Stat.Descriptive.std d.values in
        for i = 0 to k' - 1 do
          d.values.(i) <-
            d.values.(i) +. (noise_rel *. sigma *. Randkit.Gaussian.sample g)
        done)
      datasets;
  let report =
    Array.fold_left
      (fun acc st ->
        {
          acc with
          faults_injected = acc.faults_injected + st.s_injected;
          nonfinite_faults = acc.nonfinite_faults + st.s_nonfinite;
          outliers_injected = acc.outliers_injected + st.s_outliers;
          transient_faults = acc.transient_faults + st.s_transient;
          hang_faults = acc.hang_faults + st.s_hangs;
          retries = acc.retries + st.s_retries;
          accounted_extra_seconds = acc.accounted_extra_seconds +. st.s_extra;
          burst_faults = acc.burst_faults + st.s_burst_faults;
        })
      {
        (clean_report ~requested:k) with
        delivered = k';
        failed = Array.of_list !failed;
        burst_windows = Array.length (Randkit.Markov.windows b.b_burst);
        burst_samples = Randkit.Markov.count b.b_burst;
      }
      tallies
  in
  (datasets, report)

(* The fixed policy: every sample independently gets [max_attempts]
   attempts under deterministic exponential backoff (1x, 2x, 4x ... of
   the base), so the samples fan out over the pool. A retry re-runs
   every simulation and is charged their summed per-sample cost. *)
let run_robust_multi ?(noise_rel = 0.) ?pool ?(faults = no_faults)
    ?(retry = no_retry) sims g ~k =
  run_batch ~noise_rel ~faults sims g ~k (fun b ->
      let retry_cost =
        Array.fold_left (fun acc sim -> acc +. sim.seconds_per_sample) 0. sims
      in
      let grant attempt =
        retry.backoff_seconds *. float_of_int (1 lsl (attempt - 2))
      in
      let out = Array.make k None in
      let tallies = Array.init k (fun _ -> tally ()) in
      let body i =
        let p = b.b_points.(i) in
        out.(i) <-
          attempt_sample faults b tallies.(i) i
            ~evals:(Array.map (fun sim () -> sim.eval p) sims)
            ~retry_cost ~allowed:retry.max_attempts ~grant
      in
      (match pool with
      | None ->
          for i = 0 to k - 1 do
            body i
          done
      | Some pool -> Parallel.Pool.parallel_for pool ~lo:0 ~hi:k body);
      (out, tallies))

let run_robust ?noise_rel ?pool ?faults ?retry sim g ~k =
  let ds, report =
    run_robust_multi ?noise_rel ?pool ?faults ?retry [| sim |] g ~k
  in
  (ds.(0), report)

let run ?(noise_rel = 0.) ?pool sim g ~k =
  if k <= 0 then invalid_arg "Simulator.run: sample count must be positive";
  (* Points are always drawn sequentially from the caller's generator so
     the stream — and hence the dataset — is identical whether or not
     the evaluations below run in parallel. *)
  let points = Array.init k (fun _ -> Randkit.Gaussian.vector g sim.dim) in
  let values =
    match pool with
    | None -> Array.map sim.eval points
    | Some pool ->
        (* Batch-parallel evaluation: the expensive part (the stand-in
           for one transistor-level simulation per point) fans out over
           the pool; each index writes its own slot. *)
        let out = Array.make k 0. in
        Parallel.Pool.parallel_for pool ~lo:0 ~hi:k (fun i ->
            out.(i) <- sim.eval points.(i));
        out
  in
  if noise_rel > 0. && k > 1 then begin
    let sigma = Stat.Descriptive.std values in
    for i = 0 to k - 1 do
      values.(i) <- values.(i) +. (noise_rel *. sigma *. Randkit.Gaussian.sample g)
    done
  end;
  { points; values }

let simulated_cost sim ~k = float_of_int k *. sim.seconds_per_sample

let dataset_size d = Array.length d.points

let split d idx =
  {
    points = Array.map (fun i -> d.points.(i)) idx;
    values = Array.map (fun i -> d.values.(i)) idx;
  }

let points_matrix d =
  let k = Array.length d.points in
  if k = 0 then Mat.create 0 0
  else begin
    let n = Array.length d.points.(0) in
    Mat.init k n (fun i j -> d.points.(i).(j))
  end
