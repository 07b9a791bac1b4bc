(* Repeated timing: warm-up, then repetitions until a time budget is
   spent, summarized as median, quartiles, min/max and sample count,
   with the GC and CPU-time deltas of the timed repetitions. *)

let now = Unix.gettimeofday

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  lo : float;
  hi : float;
  n : int;
}

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method), so spreads printed here match ones computed
   from the report's samples with Python. *)
let summarize xs =
  let d = Array.copy xs in
  Array.sort compare d;
  let n = Array.length d in
  if n = 0 then invalid_arg "Measure.summarize: no samples";
  let median =
    if n mod 2 = 1 then d.(n / 2) else 0.5 *. (d.((n / 2) - 1) +. d.(n / 2))
  in
  let quantile i =
    if n = 1 then d.(0)
    else
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
  in
  { median; q1 = quantile 1; q3 = quantile 3; lo = d.(0); hi = d.(n - 1); n }

(* Quartile distance as a share of the median: the spread a regression
   bound has to clear. *)
let rel_spread s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median

type run = {
  times : float array;  (** wall seconds of each timed repetition *)
  summary : summary;
  cpu_times : float array;
      (** process user+system seconds of each timed repetition, all
          domains together *)
  wall_s : float;  (** wall seconds summed over the timed calls *)
  cpu_s : float;  (** process user+system seconds over the timed calls *)
  minor_words : float;  (** per repetition *)
  major_words : float;  (** per repetition *)
  major_collections : float;  (** per repetition *)
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [repeat ~seconds f] calls [f] [warmup] times untimed, then times
   calls until [seconds] have elapsed and at least [min_reps] were
   made (never more than [max_reps]). Every timed call starts right
   after [Gc.compact ()], so garbage left by earlier calls is not
   collected on a later call's time (without it, successive flows grew
   slower by a few percent each). Every result, warm-up included, goes
   to [after]; the collection and [after] stay outside the timed
   interval and the deltas. *)
let repeat ?(warmup = 1) ?(min_reps = 3) ?(max_reps = 1000) ?(after = ignore)
    ~seconds f =
  for _ = 1 to warmup do
    after (f ())
  done;
  let times = ref [] and cpu_times = ref [] and reps = ref 0 in
  let minor = ref 0. and major = ref 0. and collections = ref 0 in
  let t_start = now () in
  while !reps < max_reps && (!reps < min_reps || now () -. t_start < seconds) do
    Gc.compact ();
    let gc0 = Gc.quick_stat () and c0 = cpu () and t0 = now () in
    let r = f () in
    let t1 = now () and c1 = cpu () and gc1 = Gc.quick_stat () in
    times := (t1 -. t0) :: !times;
    cpu_times := (c1 -. c0) :: !cpu_times;
    minor := !minor +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    major := !major +. (gc1.Gc.major_words -. gc0.Gc.major_words);
    collections := !collections + gc1.Gc.major_collections - gc0.Gc.major_collections;
    incr reps;
    after r
  done;
  let per x = x /. float_of_int !reps in
  let times = Array.of_list (List.rev !times) in
  let cpu_times = Array.of_list (List.rev !cpu_times) in
  let sum = Array.fold_left ( +. ) 0. in
  {
    times;
    summary = summarize times;
    cpu_times;
    wall_s = sum times;
    cpu_s = sum cpu_times;
    minor_words = per !minor;
    major_words = per !major;
    major_collections = per (float_of_int !collections);
  }

(* Median wall seconds of [reps] calls of [f] after one warm-up call:
   the kernel probes, which do identical work every call. *)
let median_time ?(reps = 5) f =
  (repeat ~warmup:1 ~min_reps:reps ~max_reps:reps ~seconds:0. f).summary.median

(* Process peak resident set (VmHWM) in MB; raises where /proc is
   unavailable rather than reporting a made-up number. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        let line = input_line ic in
        match String.split_on_char ':' line with
        | [ "VmHWM"; rest ] ->
            Scanf.sscanf (String.trim rest) "%f kB" (fun kb -> kb /. 1024.)
        | _ -> scan ()
      in
      scan ())
