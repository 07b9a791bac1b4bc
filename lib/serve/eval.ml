(* Instruction-tape compilation of a sparse model.

   The tape is four flat arrays. Per touched variable (a "slot", sorted
   by variable index so compilation is deterministic): the variable, the
   max Hermite degree any support term needs of it, and the offset of
   its degree-0 value in one flat value buffer. Per support term (kept
   in Model support order): its coefficient and a [term_start] range of
   pre-resolved absolute offsets into that buffer.

   Bitwise contract: evaluation preserves exactly the arithmetic of
   [Rsm.Model.predict_point] — the same Hermite recurrence (the
   expression of [Hermite.eval_all_into], which [Term.eval] also runs
   one factor at a time), the same left-to-right factor product
   starting from 1.0, and the same support-order accumulation starting
   from 0.0. The point kernel interleaves four points' independent
   chains, never reordering any one point's operations. *)

type t = {
  basis_size : int;
  dim : int;
  var_of_slot : int array;  (* touched variables, ascending *)
  slot_deg : int array;  (* max degree needed per slot *)
  slot_offset : int array;  (* degree-0 offset of each slot in the buffer *)
  buf_len : int;  (* Σ (slot_deg + 1) *)
  coeffs : float array;  (* per term, support order *)
  term_start : int array;  (* nnz + 1 offsets into factor_ofs *)
  factor_ofs : int array;  (* absolute buffer offsets, term-factor order *)
  sqrt_k : float array;  (* sqrt k for k = 0 … max degree + 1 *)
  scratch0 : float array;  (* internal scalar scratch: NOT thread-safe *)
}

(* Four value buffers of [buf_len], one per point of a pass; the scalar
   path uses the first. *)
type scratch = float array

let compile model basis =
  if Polybasis.Basis.size basis <> model.Rsm.Model.basis_size then
    invalid_arg "Serve.Eval.compile: basis size disagrees with model";
  let support = model.Rsm.Model.support in
  let nnz = Array.length support in
  let terms = Array.map (Polybasis.Basis.term basis) support in
  (* Pass 1: per-variable max degree over the whole support. *)
  let deg_tbl = Hashtbl.create 16 in
  Array.iter
    (fun term ->
      Array.iter
        (fun (v, d) ->
          let cur = try Hashtbl.find deg_tbl v with Not_found -> 0 in
          if d > cur then Hashtbl.replace deg_tbl v d)
        term)
    terms;
  let var_of_slot =
    Hashtbl.fold (fun v _ acc -> v :: acc) deg_tbl []
    |> List.sort compare |> Array.of_list
  in
  let nvars = Array.length var_of_slot in
  let slot_deg = Array.map (fun v -> Hashtbl.find deg_tbl v) var_of_slot in
  let slot_offset = Array.make nvars 0 in
  let off = ref 0 in
  Array.iteri
    (fun s d ->
      slot_offset.(s) <- !off;
      off := !off + d + 1)
    slot_deg;
  let buf_len = !off in
  let slot_of_var = Hashtbl.create (max 1 nvars) in
  Array.iteri (fun s v -> Hashtbl.replace slot_of_var v s) var_of_slot;
  (* Pass 2: resolve every factor to an absolute buffer offset. *)
  let nfactors =
    Array.fold_left (fun acc term -> acc + Array.length term) 0 terms
  in
  let term_start = Array.make (nnz + 1) 0 in
  let factor_ofs = Array.make nfactors 0 in
  let fi = ref 0 in
  Array.iteri
    (fun p term ->
      term_start.(p) <- !fi;
      Array.iter
        (fun (v, d) ->
          factor_ofs.(!fi) <- slot_offset.(Hashtbl.find slot_of_var v) + d;
          incr fi)
        term)
    terms;
  term_start.(nnz) <- !fi;
  let max_deg = Array.fold_left max 0 slot_deg in
  {
    basis_size = model.Rsm.Model.basis_size;
    dim = Polybasis.Basis.dim basis;
    var_of_slot;
    slot_deg;
    slot_offset;
    buf_len;
    coeffs = Array.copy model.Rsm.Model.coeffs;
    term_start;
    factor_ofs;
    sqrt_k = Array.init (max_deg + 2) (fun k -> sqrt (float_of_int k));
    scratch0 = Array.make buf_len 0.;
  }

let basis_size t = t.basis_size
let dim t = t.dim
let nnz t = Array.length t.coeffs
let tape_length t = Array.length t.factor_ofs
let vars_touched t = Array.length t.var_of_slot
let touched_vars t = Array.copy t.var_of_slot

let max_degree t = Array.fold_left max 0 t.slot_deg

let make_scratch t = Array.make (4 * t.buf_len) 0.

let check_point t dy =
  if Array.length dy <> t.dim then
    invalid_arg "Serve.Eval: point dimension disagrees with the basis"

(* Normalized Hermite values g_0 … g_deg of [y] at [buf.(base)] …
   [buf.(base + deg)]: [Hermite.eval_all_into]'s recurrence, expression
   for expression, with its [sqrt k] and [sqrt (k + 1)] read from the
   tape's table (the same values: k + 1 is exact as a float). Kept in
   this module so that, inlined, [y] is never boxed — a call into
   another module takes it boxed. *)
let[@inline] hermite_into sqrt_k buf ~base ~deg y =
  Array.unsafe_set buf base 1.;
  if deg >= 1 then Array.unsafe_set buf (base + 1) y;
  for k = 1 to deg - 1 do
    Array.unsafe_set buf
      (base + k + 1)
      (((y *. Array.unsafe_get buf (base + k))
       -. (Array.unsafe_get sqrt_k k *. Array.unsafe_get buf (base + k - 1)))
      /. Array.unsafe_get sqrt_k (k + 1))
  done

(* One Hermite recurrence per touched variable, to its max needed
   degree, into the buffer at [at]; every term then reads shared
   values. *)
let fill t scratch ~at dy =
  check_point t dy;
  for s = 0 to Array.length t.var_of_slot - 1 do
    hermite_into t.sqrt_k scratch
      ~base:(at + Array.unsafe_get t.slot_offset s)
      ~deg:(Array.unsafe_get t.slot_deg s)
      (Array.unsafe_get dy (Array.unsafe_get t.var_of_slot s))
  done

let[@inline] eval_with t scratch dy =
  fill t scratch ~at:0 dy;
  let acc = ref 0. in
  for p = 0 to Array.length t.coeffs - 1 do
    let f1 = Array.unsafe_get t.term_start (p + 1) in
    let prod = ref 1. in
    for f = Array.unsafe_get t.term_start p to f1 - 1 do
      prod :=
        !prod *. Array.unsafe_get scratch (Array.unsafe_get t.factor_ofs f)
    done;
    acc := !acc +. (Array.unsafe_get t.coeffs p *. !prod)
  done;
  !acc

let eval_point t dy = eval_with t t.scratch0 dy

(* The point kernel: four points per pass, each in its own buffer, and
   for every term four product chains and four accumulators, so four
   term sums advance as independent add chains. Each point's
   operations are exactly [eval_with]'s, in its order; the n mod 4 tail
   goes through [eval_with]. Values go straight into the caller's float
   array: a float returned to another module is boxed. *)
let eval_points t scratch pts ~lo ~n out ~at =
  let l = t.buf_len in
  let i = ref 0 in
  while !i + 4 <= n do
    let p = lo + !i in
    fill t scratch ~at:0 pts.(p);
    fill t scratch ~at:l pts.(p + 1);
    fill t scratch ~at:(2 * l) pts.(p + 2);
    fill t scratch ~at:(3 * l) pts.(p + 3);
    let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
    for q = 0 to Array.length t.coeffs - 1 do
      let q0 = ref 1. and q1 = ref 1. and q2 = ref 1. and q3 = ref 1. in
      for f = Array.unsafe_get t.term_start q
          to Array.unsafe_get t.term_start (q + 1) - 1 do
        let o = Array.unsafe_get t.factor_ofs f in
        q0 := !q0 *. Array.unsafe_get scratch o;
        q1 := !q1 *. Array.unsafe_get scratch (o + l);
        q2 := !q2 *. Array.unsafe_get scratch (o + (2 * l));
        q3 := !q3 *. Array.unsafe_get scratch (o + (3 * l))
      done;
      let c = Array.unsafe_get t.coeffs q in
      a0 := !a0 +. (c *. !q0);
      a1 := !a1 +. (c *. !q1);
      a2 := !a2 +. (c *. !q2);
      a3 := !a3 +. (c *. !q3)
    done;
    let j = at + !i in
    out.(j) <- !a0;
    out.(j + 1) <- !a1;
    out.(j + 2) <- !a2;
    out.(j + 3) <- !a3;
    i := !i + 4
  done;
  for i = !i to n - 1 do
    out.(at + i) <- eval_with t scratch pts.(lo + i)
  done

let eval_batch ?pool t points =
  let k = Array.length points in
  let out = Array.make k 0. in
  (* One scratch per chunk: chunks run concurrently and share nothing. *)
  let body ~lo ~hi =
    eval_points t (make_scratch t) points ~lo ~n:(hi - lo) out ~at:lo
  in
  (match pool with
  | Some pool -> Parallel.Pool.parallel_for_chunks pool ~lo:0 ~hi:k body
  | None -> if k > 0 then body ~lo:0 ~hi:k);
  out

type loaded = { digest : int64; model : Rsm.Model.t; tape : t }

let read_bytes path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))

(* The digest check runs before any parse, so a pinned mismatch is
   refused without parsing or compiling the file. *)
let load ?expect basis path =
  match read_bytes path with
  | Error e -> Error e
  | Ok bytes -> (
      let digest = Rsm.Serialize.digest_string bytes in
      match expect with
      | Some d when d <> digest ->
          Error
            (Printf.sprintf
               "digest mismatch for %s: expected %Lx, file content is %Lx" path
               d digest)
      | _ -> (
          match Rsm.Serialize.of_string bytes with
          | Error e -> Error (path ^ ": " ^ e)
          | Ok model -> (
              match compile model basis with
              | exception Invalid_argument msg -> Error msg
              | tape -> Ok { digest; model; tape })))
