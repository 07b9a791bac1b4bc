(* Counter-mode PRNG: every output is a pure function of
   (key, point, coord, draw) pushed through rounds of the SplitMix64
   output finalizer — no sequential state, O(1) random access. Skipping
   a coordinate, a point, or a whole batch leaves every other draw's
   bits unchanged, which is exactly what makes support-projected
   sampling bitwise exact (see SERVING.md). *)

(* Odd 64-bit strides keep the three counter axes (point, coordinate,
   rejection draw) on distinct full-period lattices before the
   finalizer's avalanche mixes them. [golden] is SplitMix64's gamma;
   the other two are the xxhash64 primes. *)
let golden = 0x9E3779B97F4A7C15L
let coord_stride = 0xC2B2AE3D27D4EB4FL
let draw_stride = 0x165667B19E3779F9L

(* The SplitMix64 output finalizer (as in Prng.splitmix64_next): a
   bijection on 64-bit words with full avalanche. Two applications
   separate any output from its (key, point, coord, draw) address. *)
let[@inline] finalize z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

type t = int64
type point = int64

let create seed =
  finalize (Int64.add (Int64.mul (Int64.of_int seed) golden) coord_stride)

let of_prng g = Prng.bits64 g
let key t = t
let[@inline] at t p = finalize (Int64.add t (Int64.mul (Int64.of_int p) golden))

let[@inline] bits64 pk ~coord ~draw =
  finalize
    (Int64.add
       (Int64.add pk (Int64.mul (Int64.of_int coord) coord_stride))
       (Int64.mul (Int64.of_int draw) draw_stride))

let float pk ~coord ~draw =
  (* Top 53 bits → [0, 1), matching Prng.float's resolution. *)
  Int64.to_float (Int64.shift_right_logical (bits64 pk ~coord ~draw) 11)
  *. 0x1.0p-53

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* [at] and [bits64] are inlined here, so the point key and each word
   go from the finalizer to the buffer unboxed; a caller in another
   module would receive them boxed. *)
let draw0_into key ~point ?vars n words =
  if n < 0 || Bytes.length words < 8 * n then
    invalid_arg "Counter.draw0_into: words buffer shorter than 8·n bytes";
  let pk = at key point in
  match vars with
  | None ->
      for s = 0 to n - 1 do
        set64 words (8 * s) (bits64 pk ~coord:s ~draw:0)
      done
  | Some vars ->
      if Array.length vars < n then
        invalid_arg "Counter.draw0_into: fewer than n coordinates";
      for s = 0 to n - 1 do
        set64 words (8 * s) (bits64 pk ~coord:(Array.unsafe_get vars s) ~draw:0)
      done
