(* 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000),
   with the exact exponential-rejection tail. One 64-bit word per
   attempt carries the layer index (low 8 bits), the sign (bit 8) and a
   53-bit mantissa draw (bits 11–63) with no overlap; the vast majority
   of attempts accept on one word and one compare with no
   transcendental call, and the sign goes on by a multiply, not a
   branch on a random bit.
   Two front-ends share the tables: a sequential sampler over [Prng.t]
   and a counter-addressed sampler over [Counter.point] whose bits are
   a pure function of (key, point, coord). *)

let layers = 256

(* Standard 256-layer constants: [r] is the base-strip boundary, [v]
   the common strip area (each of the 256 strips, wedges and tail
   included, has area v). *)
let r = 3.6541528853610088
let v = 4.92867323399707195e-3
let inv_r = 1. /. r
let pdf x = exp (-0.5 *. x *. x)

(* Strip boundaries, decreasing: xtab.(1) = r down to xtab.(256) = 0,
   with the recurrence x_{i+1} = pdf⁻¹(v/x_i + pdf x_i) (equal strip
   areas). xtab.(0) = v / pdf r is the *virtual* width of the base
   strip, whose overhang past r stands in for the tail mass. The
   recurrence stops at x_255: x_256 is 0 by construction of (r, v), and
   computing it through the recurrence could round the log argument
   past 1 into a NaN. ytab.(i) = pdf xtab.(i); ytab.(0) is unused. *)
let xtab, ytab =
  let x = Array.make (layers + 1) 0. in
  let y = Array.make (layers + 1) 0. in
  x.(0) <- v /. pdf r;
  x.(1) <- r;
  for i = 2 to layers - 1 do
    let xi = x.(i - 1) in
    x.(i) <- sqrt (-2. *. log ((v /. xi) +. pdf xi))
  done;
  x.(layers) <- 0.;
  for i = 0 to layers do
    y.(i) <- pdf x.(i)
  done;
  (x, y)

let[@inline] idx_of bits = Int64.to_int (Int64.logand bits 0xFFL)

(* The sign: bit 8 picks a factor. x·1 = x and x·(−1) = −x exactly,
   ±0 included, so the multiply gives the bits of a branch on the sign
   bit without its mispredictions (half of all draws). *)
let sign = [| 1.; -1. |]

let[@inline] signed bits x =
  x *. Array.unsafe_get sign ((Int64.to_int bits lsr 8) land 1)

let[@inline] u_of bits =
  Int64.to_float (Int64.shift_right_logical bits 11) *. 0x1.0p-53

(* (0, 1] so the tail's logs are finite. *)
let upos_of bits =
  (Int64.to_float (Int64.shift_right_logical bits 11) +. 1.) *. 0x1.0p-53

let rec sample g =
  let bits = Prng.bits64 g in
  let i = idx_of bits in
  let x = u_of bits *. xtab.(i) in
  if x < xtab.(i + 1) then signed bits x
  else if i = 0 then tail g bits
  else
    let y = ytab.(i) +. (Prng.float g *. (ytab.(i + 1) -. ytab.(i))) in
    if y < pdf x then signed bits x else sample g

and tail g bits =
  (* Exact tail past r: x ~ Exp(r) truncated by the Gaussian envelope
     (Marsaglia 1964). *)
  let x = -.log (upos_of (Prng.bits64 g)) *. inv_r in
  let y = -.log (upos_of (Prng.bits64 g)) in
  if y +. y >= x *. x then signed bits (r +. x) else tail g bits

let fill g out =
  for i = 0 to Array.length out - 1 do
    out.(i) <- sample g
  done

let vector g n =
  let out = Array.make n 0. in
  fill g out;
  out

(* Counter-addressed variant: draw [j] of coordinate [coord] is the
   word at address (key, point, coord, j); rejections walk j upward, so
   every coordinate owns an unbounded substream and the accepted value
   is a pure function of (key, point, coord). *)
let rec sample_at pk ~coord j =
  let bits = Counter.bits64 pk ~coord ~draw:j in
  let i = idx_of bits in
  let x = u_of bits *. xtab.(i) in
  if x < xtab.(i + 1) then signed bits x
  else if i = 0 then tail_at pk ~coord (j + 1) bits
  else
    let u2 = Counter.float pk ~coord ~draw:(j + 1) in
    let y = ytab.(i) +. (u2 *. (ytab.(i + 1) -. ytab.(i))) in
    if y < pdf x then signed bits x else sample_at pk ~coord (j + 2)

and tail_at pk ~coord j bits =
  let x = -.log (upos_of (Counter.bits64 pk ~coord ~draw:j)) *. inv_r in
  let y = -.log (upos_of (Counter.bits64 pk ~coord ~draw:(j + 1))) in
  if y +. y >= x *. x then signed bits (r +. x)
  else tail_at pk ~coord (j + 2) bits

let normal_at pk ~coord = sample_at pk ~coord 0

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Bulk counter draw: [Counter.draw0_into] forms the point key and
   writes every coordinate's draw-0 word, decoded here unboxed on the
   one-compare fast path. Any other case restarts [sample_at] at draw 0
   from a point key built here, boxed, which recomputes the same word,
   so every value is bitwise [normal_at]'s. *)
let fill_at key ~point ?vars ~words dy =
  let n = match vars with Some v -> Array.length v | None -> Array.length dy in
  Counter.draw0_into key ~point ?vars n words;
  for s = 0 to n - 1 do
    let coord = match vars with Some v -> Array.unsafe_get v s | None -> s in
    let bits = get64 words (8 * s) in
    let i = idx_of bits in
    let x = u_of bits *. Array.unsafe_get xtab i in
    dy.(coord) <-
      (if x < Array.unsafe_get xtab (i + 1) then signed bits x
       else sample_at (Counter.at key point) ~coord 0)
  done

let tail_start = r
