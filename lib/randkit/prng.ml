(* xoshiro256++ (Blackman & Vigna), seeded by SplitMix64. Both are public
   domain reference algorithms; implemented here directly on int64.

   The four state words live in one 32-byte [Bytes], read and written
   through the unboxed 64-bit bytes primitives. Kept as mutable [int64]
   record fields, every state update would box a fresh int64 (12 words
   per output) wherever the compiler does not see through the record —
   which, under [-opaque], is every cross-module call. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Expand a SplitMix64 state into the four xoshiro words. *)
let of_splitmix state =
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  (* All-zero state is invalid for xoshiro; the SplitMix expansion cannot
     produce it for any seed, but guard anyway. *)
  let s0, s1, s2, s3 =
    if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then (1L, 2L, 3L, 4L)
    else (s0, s1, s2, s3)
  in
  let g = Bytes.create 32 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 s2;
  set64 g 24 s3;
  g

let create seed = of_splitmix (ref (Int64.of_int seed))

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 g =
  let open Int64 in
  let s0 = get64 g 0 and s1 = get64 g 8 and s2 = get64 g 16 and s3 = get64 g 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 (logxor s2 t);
  set64 g 24 (rotl s3 45);
  result

let split g =
  (* Expand a fresh state from the parent's next outputs through
     SplitMix64, so parent and child streams are decorrelated. *)
  of_splitmix (ref (bits64 g))

let split_n g n =
  if n < 0 then invalid_arg "Prng.split_n: negative count";
  (* Children are derived in index order from the parent alone, before
     any of them is used: handing child i to the i-th parallel task
     gives every task the same stream regardless of execution order. *)
  let children = Array.make n g in
  for i = 0 to n - 1 do
    children.(i) <- split g
  done;
  children

let copy = Bytes.copy

let float g =
  (* Top 53 bits → [0, 1) with full double resolution. *)
  let bits = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float bits *. 0x1.0p-53

let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let r = Int64.shift_right_logical (bits64 g) 1 in
    (* r uniform on [0, 2^63). *)
    let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int n64) in
    if r >= limit then draw () else Int64.to_int (Int64.rem r n64)
  in
  draw ()

let bool g = Int64.logand (bits64 g) 1L = 1L

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a
