let check pred truth =
  if Array.length pred <> Array.length truth then
    invalid_arg "Metrics: prediction/truth length mismatch";
  if Array.length pred = 0 then invalid_arg "Metrics: empty input"

let sse ~pred ~truth =
  let acc = ref 0. in
  for i = 0 to Array.length pred - 1 do
    let d = pred.(i) -. truth.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let sst truth =
  let mu = Descriptive.mean truth in
  let acc = ref 0. in
  Array.iter
    (fun t ->
      let d = t -. mu in
      acc := !acc +. (d *. d))
    truth;
  !acc

let relative_rms ~pred ~truth =
  check pred truth;
  let denom = sst truth in
  if denom = 0. then Float.nan else sqrt (sse ~pred ~truth /. denom)

let max_abs_error ~pred ~truth =
  check pred truth;
  let acc = ref 0. in
  for i = 0 to Array.length pred - 1 do
    acc := Float.max !acc (Float.abs (pred.(i) -. truth.(i)))
  done;
  !acc
