(* Marsaglia polar method. Each acceptance yields two independent
   variates; we return both from [sample2] and do not cache across calls
   so that the stream consumed per call is a deterministic function of
   the accept/reject history only. *)

let rec sample2 g =
  let u = (2. *. Prng.float g) -. 1. in
  let v = (2. *. Prng.float g) -. 1. in
  let s = (u *. u) +. (v *. v) in
  if s >= 1. || s = 0. then sample2 g
  else begin
    let m = sqrt (-2. *. log s /. s) in
    (u *. m, v *. m)
  end

let sample g = fst (sample2 g)

(* [sample2]'s loop, inline: no pair tuple and no boxed variates — the
   accepted pair goes straight into [out], consuming the same stream. *)
let fill g out =
  let n = Array.length out in
  let i = ref 0 in
  while !i < n do
    let u = (2. *. Prng.float g) -. 1. in
    let v = (2. *. Prng.float g) -. 1. in
    let s = (u *. u) +. (v *. v) in
    if s < 1. && s <> 0. then begin
      let m = sqrt (-2. *. log s /. s) in
      out.(!i) <- u *. m;
      incr i;
      if !i < n then begin
        out.(!i) <- v *. m;
        incr i
      end
    end
  done

let vector g n =
  let out = Array.make n 0. in
  fill g out;
  out

let matrix g r c = Linalg.Mat.init r c (fun _ _ -> sample g)

type sampler = Polar | Ziggurat

let sampler_name = function Polar -> "polar" | Ziggurat -> "ziggurat"

