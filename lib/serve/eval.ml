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
   from 0.0. The batch kernel re-blocks the memory layout, never the
   per-point operation sequence. *)

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
  scratch0 : float array;  (* internal scalar scratch: NOT thread-safe *)
}

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
    scratch0 = Array.make buf_len 0.;
  }

let basis_size t = t.basis_size
let dim t = t.dim
let nnz t = Array.length t.coeffs
let tape_length t = Array.length t.factor_ofs
let vars_touched t = Array.length t.var_of_slot
let touched_vars t = Array.copy t.var_of_slot

let max_degree t = Array.fold_left max 0 t.slot_deg

let make_scratch t = Array.make t.buf_len 0.

let check_point t dy =
  if Array.length dy <> t.dim then
    invalid_arg "Serve.Eval: point dimension disagrees with the basis"

(* Normalized Hermite values g_0 … g_deg of [y] at [buf.(base)],
   [buf.(base + stride)], …: [Hermite.eval_all_into]'s recurrence,
   expression for expression, kept in this module so that, inlined, [y]
   is never boxed — a call into another module takes it boxed. *)
let[@inline] hermite_into buf ~base ~stride ~deg y =
  Array.unsafe_set buf base 1.;
  if deg >= 1 then Array.unsafe_set buf (base + stride) y;
  for k = 1 to deg - 1 do
    let fk = float_of_int k in
    Array.unsafe_set buf
      (base + ((k + 1) * stride))
      (((y *. Array.unsafe_get buf (base + (k * stride)))
       -. (sqrt fk *. Array.unsafe_get buf (base + ((k - 1) * stride))))
      /. sqrt (fk +. 1.))
  done

(* One Hermite recurrence per touched variable, to its max needed
   degree; every term then reads shared values. *)
let fill t scratch dy =
  for s = 0 to Array.length t.var_of_slot - 1 do
    hermite_into scratch
      ~base:(Array.unsafe_get t.slot_offset s)
      ~stride:1
      ~deg:(Array.unsafe_get t.slot_deg s)
      (Array.unsafe_get dy (Array.unsafe_get t.var_of_slot s))
  done

let[@inline] eval_with t scratch dy =
  check_point t dy;
  fill t scratch dy;
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

(* The value goes straight into the caller's float slot: a float
   returned to another module is boxed. *)
let eval_into t scratch dy out i = out.(i) <- eval_with t scratch dy

let eval_point t dy = eval_with t t.scratch0 dy

let evaluator t = eval_point t

let default_block = 256

(* Batch kernel: Hermite values for a block of [n] points live
   point-contiguous per buffer offset — value [o] of point [i] at
   [hbuf.(o·block + i)] — so each factor's multiply streams [n] adjacent
   floats. The per-point operation sequence (recurrence, 1·h₀ product
   seed, left-to-right factors, support-order accumulation) is exactly
   the scalar path's, so results are bitwise equal to [eval_point]
   whatever the blocking. *)
let eval_block t ~hbuf ~prod ~block ~points ~out ~lo ~n =
  let nvars = Array.length t.var_of_slot in
  for i = 0 to n - 1 do
    let dy = points.(lo + i) in
    check_point t dy;
    for s = 0 to nvars - 1 do
      hermite_into hbuf
        ~base:((Array.unsafe_get t.slot_offset s * block) + i)
        ~stride:block
        ~deg:(Array.unsafe_get t.slot_deg s)
        (Array.unsafe_get dy (Array.unsafe_get t.var_of_slot s))
    done
  done;
  for p = 0 to Array.length t.coeffs - 1 do
    let f0 = Array.unsafe_get t.term_start p in
    let f1 = Array.unsafe_get t.term_start (p + 1) in
    if f0 = f1 then Array.fill prod 0 n 1.
    else begin
      let o = Array.unsafe_get t.factor_ofs f0 * block in
      for i = 0 to n - 1 do
        Array.unsafe_set prod i (1. *. Array.unsafe_get hbuf (o + i))
      done;
      for f = f0 + 1 to f1 - 1 do
        let o = Array.unsafe_get t.factor_ofs f * block in
        for i = 0 to n - 1 do
          Array.unsafe_set prod i
            (Array.unsafe_get prod i *. Array.unsafe_get hbuf (o + i))
        done
      done
    end;
    let c = Array.unsafe_get t.coeffs p in
    for i = 0 to n - 1 do
      Array.unsafe_set out (lo + i)
        (Array.unsafe_get out (lo + i) +. (c *. Array.unsafe_get prod i))
    done
  done

let eval_batch ?pool ?(block = default_block) t points =
  if block <= 0 then invalid_arg "Serve.Eval.eval_batch: block must be positive";
  let k = Array.length points in
  let out = Array.make k 0. in
  let body ~lo ~hi =
    (* Per-chunk buffers: chunks run concurrently and share nothing. *)
    let hbuf = Array.make (max 1 (t.buf_len * block)) 0. in
    let prod = Array.make block 0. in
    let i = ref lo in
    while !i < hi do
      let n = min block (hi - !i) in
      eval_block t ~hbuf ~prod ~block ~points ~out ~lo:!i ~n;
      i := !i + n
    done
  in
  (match pool with
  | Some pool -> Parallel.Pool.parallel_for_chunks pool ~lo:0 ~hi:k body
  | None -> if k > 0 then body ~lo:0 ~hi:k);
  out
