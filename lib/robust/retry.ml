module Simulator = Circuit.Simulator

type policy = { max_attempts : int; breaker_threshold : int }

let policy ?(max_attempts = 4) ?(breaker_threshold = 8) () =
  if max_attempts < 1 then
    invalid_arg "Retry.policy: max_attempts must be >= 1";
  if breaker_threshold < 0 then
    invalid_arg "Retry.policy: negative breaker threshold";
  { max_attempts; breaker_threshold }

type event =
  | Backoff of { sample : int; attempt : int; seconds : float }
  | Tripped of { sample : int; consecutive : int; cooldown : int }
  | Fast_fail of { sample : int }
  | Probe of { sample : int; delivered : bool }
  | Closed of { sample : int }

type report = {
  run : Simulator.run_report;
  events : event array;
  retries_granted : int;
}

type breaker = Breaker_closed | Breaker_open of int | Breaker_half_open

(* The adaptive policy is a walk of [Simulator.run_batch], in two
   passes. Pass 1 fans the one expensive clean evaluation per point out
   over the pool — evaluators are pure, so caching the value and
   replaying it per attempt is value-identical to re-evaluating. Pass 2
   walks the samples in index order through the policy state machine
   (backoff, breaker), running each sample through
   [Simulator.attempt_sample] with the attempts the breaker allows and a
   [grant] that charges the jittered backoff. Everything the policy decides
   therefore depends only on (plan, policy, k, seed) — bitwise identical
   at every domain count. *)
let run ?(noise_rel = 0.) ?pool ?(faults = Simulator.no_faults) policy sim g
    ~k =
  (* The breaker stays open for the fault plan's expected burst length
     (16 samples when the plan has no burst model). *)
  let cooldown =
    match faults.Simulator.burst with
    | Some b -> int_of_float (Float.ceil b.Simulator.burst_len)
    | None -> 16
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  let trips = ref 0 in
  let retries_granted = ref 0 in
  let walk (b : Simulator.batch) =
    let values = Array.make k Float.nan in
    let eval_body i = values.(i) <- sim.Simulator.eval b.b_points.(i) in
    (match pool with
    | None ->
        for i = 0 to k - 1 do
          eval_body i
        done
    | Some pool -> Parallel.Pool.parallel_for pool ~lo:0 ~hi:k eval_body);
    let st = Simulator.tally () in
    let out = Array.make k None in
    let state = ref Breaker_closed in
    let consecutive = ref 0 in
    for i = 0 to k - 1 do
      (* A spent cooldown turns the open breaker half-open: this sample is
         the probe and gets its full retry allowance back. *)
      (match !state with
      | Breaker_open 0 -> state := Breaker_half_open
      | _ -> ());
      let allowed =
        match !state with
        | Breaker_open _ -> 1
        | Breaker_closed | Breaker_half_open -> policy.max_attempts
      in
      let grant attempt =
        incr retries_granted;
        (* Deterministic exponential backoff from 1 s with deterministic
           jitter of up to half: the jitter draw comes from the sample's
           own stream, so it is reproducible, yet desynchronizes the retry
           storm a real farm would see after an outage. *)
        let u = Randkit.Prng.float b.b_streams.(i) in
        let seconds =
          float_of_int (1 lsl (attempt - 2)) *. (1. +. (0.5 *. u))
        in
        emit (Backoff { sample = i; attempt; seconds });
        seconds
      in
      out.(i) <-
        Simulator.attempt_sample faults b st i
          ~evals:[| (fun () -> values.(i)) |]
          ~retry_cost:sim.Simulator.seconds_per_sample ~allowed ~grant;
      (* Breaker bookkeeping on the sample's final verdict. *)
      let succeeded = out.(i) <> None in
      match !state with
      | Breaker_half_open ->
          emit (Probe { sample = i; delivered = succeeded });
          if succeeded then begin
            emit (Closed { sample = i });
            state := Breaker_closed;
            consecutive := 0
          end
          else begin
            (* Failed probe: the outage is still on — re-open for another
               cooldown. Counted as a trip. *)
            incr trips;
            state := Breaker_open cooldown
          end
      | Breaker_open n ->
          if succeeded then begin
            (* Even a fast-fail single attempt succeeding is evidence the
               outage ended; close early instead of waiting out the rest
               of the cooldown. *)
            emit (Closed { sample = i });
            state := Breaker_closed;
            consecutive := 0
          end
          else begin
            emit (Fast_fail { sample = i });
            state := Breaker_open (max 0 (n - 1))
          end
      | Breaker_closed ->
          if succeeded then consecutive := 0
          else begin
            incr consecutive;
            if policy.breaker_threshold > 0
               && !consecutive >= policy.breaker_threshold
            then begin
              incr trips;
              emit
                (Tripped { sample = i; consecutive = !consecutive; cooldown });
              state := Breaker_open cooldown;
              consecutive := 0
            end
          end
    done;
    (out, [| st |])
  in
  let datasets, run =
    Simulator.run_batch ~noise_rel ~faults [| sim |] g ~k walk
  in
  ( datasets.(0),
    {
      run = { run with Simulator.breaker_trips = !trips };
      events = Array.of_list (List.rev !events);
      retries_granted = !retries_granted;
    } )
