open Linalg

let matrix_rows ?pool b samples =
  let k = Array.length samples in
  let m = Basis.size b in
  let g = Mat.create k m in
  if k > 0 then begin
    Array.iter
      (fun s ->
        if Array.length s <> Basis.dim b then
          invalid_arg "Design.matrix_rows: sample dimension mismatch")
      samples;
    let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
    (* Row-parallel: each chunk owns a disjoint row block of [g] and its
       own Hermite scratch tables, so rows are evaluated exactly as in a
       sequential loop — the result is bitwise identical for every
       domain count. *)
    (* Per-row work is one term evaluation per column; the grain keeps
       tiny designs on the sequential path. *)
    let grain = Parallel.Pool.grain_for ~work:m in
    if Basis.dim b = 0 then
      Parallel.Pool.parallel_for pool ~grain ~lo:0 ~hi:k (fun i ->
          for j = 0 to m - 1 do
            Mat.unsafe_set g i j (Term.eval (Basis.term b j) samples.(i))
          done)
    else
      Parallel.Pool.parallel_for_chunks pool ~grain ~lo:0 ~hi:k (fun ~lo ~hi ->
          let tbl = Basis.make_tables b in
          for i = lo to hi - 1 do
            Basis.fill_tables b tbl samples.(i);
            for j = 0 to m - 1 do
              Mat.unsafe_set g i j (Term.eval_tables (Basis.term b j) tbl)
            done
          done)
  end;
  g

let matrix ?pool b samples =
  if Mat.cols samples <> Basis.dim b then
    invalid_arg "Design.matrix: sample dimension mismatch";
  matrix_rows ?pool b (Array.init (Mat.rows samples) (fun i -> Mat.row samples i))

let row = Basis.eval_point

let column_norms ?pool g =
  let k = Mat.rows g and m = Mat.cols g in
  let out = Array.make m 0. in
  if k > 0 && m > 0 then begin
    let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
    (* Column-chunked; each column's sum of squares is accumulated over
       rows in ascending order, so the result is bitwise identical to
       the sequential double loop for every domain count. *)
    Parallel.Pool.parallel_for_chunks pool
      ~grain:(Parallel.Pool.grain_for ~work:k) ~lo:0 ~hi:m (fun ~lo ~hi ->
        let data = g.Mat.data in
        for i = 0 to k - 1 do
          let base = i * m in
          for j = lo to hi - 1 do
            let v = Array.unsafe_get data (base + j) in
            Array.unsafe_set out j (Array.unsafe_get out j +. (v *. v))
          done
        done)
  end;
  Array.map sqrt out

module Provider = struct
  (* A compiled term: per-column offsets into the transposed Hermite
     value table, so the hot sweep dispatches once per column and the
     row loop is pure float loads. The offset of (variable v, degree d)
     is the base of the contiguous length-K slice holding g_d(Δy_v) for
     every sample. *)
  type cterm =
    | Const
    | Single of int
    | Pair of int * int
    | Many of int array

  type streamed = {
    basis : Basis.t;
    samples : Vec.t array;
    sk : int;  (* rows K *)
    sm : int;  (* columns M *)
    (* vtab.((v·ord1 + d)·K + i) = g_d(samples.(i).(v)): K·N·(order+1)
       floats, independent of M — the whole point of the provider. *)
    vtab : float array;
    cterms : cterm array;
    tile : int;
    (* Reusable scratch buffers (per-length free lists) checked out by
       sweep chunks and column materializations, so steady-state sweeps
       allocate nothing per iteration. *)
    scratch : (int, float array Stack.t) Hashtbl.t;
    lock : Mutex.t;
  }

  type t = Dense of Mat.t | Streamed of streamed

  let default_tile_cols = 256

  (* The same three-term recurrence as [Basis.fill_tables], evaluated
     slice-by-slice: bitwise-identical Hermite values, laid out with the
     sample index innermost so per-column sweeps read contiguously. *)
  let build_vtab b samples k =
    let n = Basis.dim b in
    let ord1 = Basis.max_degree b + 1 in
    let vtab = Array.make (n * ord1 * k) 0. in
    for v = 0 to n - 1 do
      let base = v * ord1 * k in
      for i = 0 to k - 1 do
        Array.unsafe_set vtab (base + i) 1.
      done;
      if ord1 >= 2 then
        for i = 0 to k - 1 do
          Array.unsafe_set vtab (base + k + i) samples.(i).(v)
        done;
      for d = 1 to ord1 - 2 do
        let fd = float_of_int d in
        let sd = sqrt fd and sd1 = sqrt (fd +. 1.) in
        let prev = base + (d * k)
        and prev2 = base + ((d - 1) * k)
        and cur = base + ((d + 1) * k) in
        for i = 0 to k - 1 do
          let y = samples.(i).(v) in
          Array.unsafe_set vtab (cur + i)
            (((y *. Array.unsafe_get vtab (prev + i))
             -. (sd *. Array.unsafe_get vtab (prev2 + i)))
            /. sd1)
        done
      done
    done;
    vtab

  let compile_terms b k =
    let ord1 = Basis.max_degree b + 1 in
    let off (v, d) = ((v * ord1) + d) * k in
    Array.init (Basis.size b) (fun j ->
        match Basis.term b j with
        | [||] -> Const
        | [| p |] -> Single (off p)
        | [| p; q |] -> Pair (off p, off q)
        | pairs -> Many (Array.map off pairs))

  let dense g = Dense g

  let streamed ?(tile_cols = default_tile_cols) b samples =
    if tile_cols < 1 then
      invalid_arg "Design.Provider.streamed: tile_cols must be positive";
    Array.iter
      (fun s ->
        if Array.length s <> Basis.dim b then
          invalid_arg "Design.Provider.streamed: sample dimension mismatch")
      samples;
    let k = Array.length samples in
    Streamed
      {
        basis = b;
        samples;
        sk = k;
        sm = Basis.size b;
        vtab = build_vtab b samples k;
        cterms = compile_terms b k;
        tile = tile_cols;
        scratch = Hashtbl.create 4;
        lock = Mutex.create ();
      }

  let rows = function Dense g -> Mat.rows g | Streamed s -> s.sk

  let cols = function Dense g -> Mat.cols g | Streamed s -> s.sm

  let tile_cols = function
    | Dense _ -> default_tile_cols
    | Streamed s -> s.tile

  let is_streamed = function Dense _ -> false | Streamed _ -> true

  let acquire s len =
    Mutex.lock s.lock;
    let buf =
      match Hashtbl.find_opt s.scratch len with
      | Some st when not (Stack.is_empty st) -> Some (Stack.pop st)
      | _ -> None
    in
    Mutex.unlock s.lock;
    match buf with Some b -> b | None -> Array.make len 0.

  let release s buf =
    let len = Array.length buf in
    Mutex.lock s.lock;
    let st =
      match Hashtbl.find_opt s.scratch len with
      | Some st -> st
      | None ->
          let st = Stack.create () in
          Hashtbl.add s.scratch len st;
          st
    in
    Stack.push buf st;
    Mutex.unlock s.lock

  (* --- streamed per-column kernels --------------------------------- *)

  (* Column inner products ⟨g_j, r⟩ for j ∈ [lo, hi), written to
     out.(off + j − lo). Each column is generated on the fly from the
     Hermite slices and accumulated whole, over rows in ascending order
     — bitwise the dots a dense sweep produces on the materialized
     matrix. The per-column dispatch is hoisted out of the row loop. *)
  let dots_block s r out ~lo ~hi ~off =
    let k = s.sk in
    let vt = s.vtab in
    for j = lo to hi - 1 do
      let acc = ref 0. in
      (match Array.unsafe_get s.cterms j with
      | Const ->
          for i = 0 to k - 1 do
            acc := !acc +. Array.unsafe_get r i
          done
      | Single o ->
          for i = 0 to k - 1 do
            acc :=
              !acc +. (Array.unsafe_get vt (o + i) *. Array.unsafe_get r i)
          done
      | Pair (o1, o2) ->
          for i = 0 to k - 1 do
            acc :=
              !acc
              +. (Array.unsafe_get vt (o1 + i)
                  *. Array.unsafe_get vt (o2 + i)
                 *. Array.unsafe_get r i)
          done
      | Many offs ->
          for i = 0 to k - 1 do
            let e = ref 1. in
            Array.iter (fun o -> e := !e *. Array.unsafe_get vt (o + i)) offs;
            acc := !acc +. (!e *. Array.unsafe_get r i)
          done);
      out.(off + j - lo) <- !acc
    done

  let entry s j i =
    match s.cterms.(j) with
    | Const -> 1.
    | Single o -> Array.unsafe_get s.vtab (o + i)
    | Pair (o1, o2) ->
        Array.unsafe_get s.vtab (o1 + i) *. Array.unsafe_get s.vtab (o2 + i)
    | Many offs ->
        let e = ref 1. in
        Array.iter (fun o -> e := !e *. Array.unsafe_get s.vtab (o + i)) offs;
        !e

  let check_col name p j =
    if j < 0 || j >= cols p then
      invalid_arg (Printf.sprintf "Design.Provider.%s: column out of bounds" name)

  let column_into p j buf =
    check_col "column_into" p j;
    if Array.length buf <> rows p then
      invalid_arg "Design.Provider.column_into: buffer length mismatch";
    match p with
    | Dense g ->
        let m = Mat.cols g and data = g.Mat.data in
        for i = 0 to Mat.rows g - 1 do
          Array.unsafe_set buf i (Array.unsafe_get data ((i * m) + j))
        done
    | Streamed s ->
        for i = 0 to s.sk - 1 do
          buf.(i) <- entry s j i
        done

  let column p j =
    let buf = Array.make (rows p) 0. in
    column_into p j buf;
    buf

  let col_dot p j x =
    check_col "col_dot" p j;
    if Array.length x <> rows p then
      invalid_arg "Design.Provider.col_dot: length mismatch";
    match p with
    | Dense g -> Mat.col_dot g j x
    | Streamed s ->
        let out = [| 0. |] in
        dots_block s x out ~lo:j ~hi:(j + 1) ~off:0;
        out.(0)

  let col_col_dot p i j =
    check_col "col_col_dot" p i;
    check_col "col_col_dot" p j;
    match p with
    | Dense g -> Mat.col_col_dot g i j
    | Streamed s ->
        let bi = acquire s s.sk and bj = acquire s s.sk in
        column_into p i bi;
        column_into p j bj;
        let d = Vec.dot bi bj in
        release s bi;
        release s bj;
        d

  let to_dense ?pool = function
    | Dense g -> g
    | Streamed s -> matrix_rows ?pool s.basis s.samples

  (* A column-range view [jlo, jhi) of the provider, reindexed to
     local columns 0 … jhi−jlo−1 — the per-shard unit of the sharded
     sweep engine. Streamed windows share the parent's Hermite value
     table (it is K·N·(order+1) floats, independent of M) and slice the
     compiled terms, so creating S windows costs O(M) pointer copies,
     not S rebuilds; their basis is sliced accordingly so [to_dense] /
     [select_rows] on a window stay consistent. Column j of the window
     is generated by exactly the float sequence that produces column
     [jlo + j] of the parent, so every window kernel is bitwise equal
     to the corresponding slice of a full-provider kernel. *)
  let window p ~jlo ~jhi =
    if jlo < 0 || jhi > cols p || jlo >= jhi then
      invalid_arg "Design.Provider.window: column range out of bounds";
    let w = jhi - jlo in
    match p with
    | Dense g ->
        let k = Mat.rows g and m = Mat.cols g in
        let out = Mat.create k w in
        for i = 0 to k - 1 do
          Array.blit g.Mat.data ((i * m) + jlo) out.Mat.data (i * w) w
        done;
        Dense out
    | Streamed s ->
        let terms = Array.init w (fun dj -> Basis.term s.basis (jlo + dj)) in
        Streamed
          {
            s with
            basis = Basis.create (Basis.dim s.basis) terms;
            sm = w;
            cterms = Array.sub s.cterms jlo w;
            scratch = Hashtbl.create 4;
            lock = Mutex.create ();
          }

  (* The provider's construction recipe, for shipping a window to
     another process: a streamed provider is (basis, samples) — the
     receiver rebuilds bitwise-identical Hermite tables from them — and
     a dense one is its matrix. *)
  let spec = function
    | Dense g -> `Dense g
    | Streamed s -> `Streamed (s.basis, s.samples)

  let select_rows p idx =
    match p with
    | Dense g -> Dense (Mat.select_rows g idx)
    | Streamed s ->
        Array.iter
          (fun i ->
            if i < 0 || i >= s.sk then
              invalid_arg "Design.Provider.select_rows: row out of bounds")
          idx;
        streamed ~tile_cols:s.tile s.basis
          (Array.map (fun i -> s.samples.(i)) idx)

  (* Materialize the column block [jlo, jhi) into a reusable K×B tile
     (row-major within the block). This is the bounded-memory unit every
     dense-output path works in: at most K·tile_cols floats live at once
     per consumer, never K·M. *)
  let with_tile p ~jlo ~jhi f =
    if jlo < 0 || jhi > cols p || jlo > jhi then
      invalid_arg "Design.Provider.with_tile: block out of bounds";
    let k = rows p in
    let w = jhi - jlo in
    match p with
    | Dense g ->
        let m = Mat.cols g in
        let tile = Array.make (max 1 (k * w)) 0. in
        for i = 0 to k - 1 do
          Array.blit g.Mat.data ((i * m) + jlo) tile (i * w) w
        done;
        f tile
    | Streamed s ->
        let tile = acquire s (max 1 (k * w)) in
        for dj = 0 to w - 1 do
          let j = jlo + dj in
          for i = 0 to k - 1 do
            Array.unsafe_set tile ((i * w) + dj) (entry s j i)
          done
        done;
        Fun.protect ~finally:(fun () -> release s tile) (fun () -> f tile)

  let columns p idx =
    let k = rows p and n = Array.length idx in
    let out = Mat.create k n in
    let od = out.Mat.data in
    let buf = Array.make k 0. in
    Array.iteri
      (fun q j ->
        column_into p j buf;
        for i = 0 to k - 1 do
          Array.unsafe_set od ((i * n) + q) (Array.unsafe_get buf i)
        done)
      idx;
    out

  (* --- the blocked correlation sweeps ------------------------------ *)

  let check_r p r =
    if Array.length r <> rows p then
      invalid_arg "Design.Provider: residual length mismatch"

  (* The rows a dense sweep visits: every row of the matrix, or one
     fold's strictly ascending row set. *)
  type row_set = All | Fold of int array

  (* The one dense sweep kernel: out.(off + j − lo) += Σᵢ g[row i, j]·r.(i)
     for j ∈ [lo, hi), where row i is i itself ([All]) or idx.(i)
     ([Fold idx]). Rows are walked outermost, so the row-major matrix
     streams through cache; each visited row is one axpy of r.(i) into
     the output slice, unrolled 4-wide. Each column still adds its
     rows in ascending order onto the caller's zeroed slice — the bits
     of [Mat.col_dot] on the selected rows; the unroll only interleaves
     independent columns. *)
  let dense_sweep g rows r out ~lo ~hi ~off =
    let m = Mat.cols g in
    let data = g.Mat.data in
    let stop = off + hi - lo in
    for i = 0 to Array.length r - 1 do
      let row = match rows with All -> i | Fold idx -> Array.unsafe_get idx i in
      (* Data index of output slot o is [base + o]. *)
      let base = (row * m) + lo - off in
      let ri = Array.unsafe_get r i in
      let o = ref off in
      while !o + 4 <= stop do
        let o0 = !o in
        Array.unsafe_set out o0
          (Array.unsafe_get out o0
          +. (Array.unsafe_get data (base + o0) *. ri));
        Array.unsafe_set out (o0 + 1)
          (Array.unsafe_get out (o0 + 1)
          +. (Array.unsafe_get data (base + o0 + 1) *. ri));
        Array.unsafe_set out (o0 + 2)
          (Array.unsafe_get out (o0 + 2)
          +. (Array.unsafe_get data (base + o0 + 2) *. ri));
        Array.unsafe_set out (o0 + 3)
          (Array.unsafe_get out (o0 + 3)
          +. (Array.unsafe_get data (base + o0 + 3) *. ri));
        o := o0 + 4
      done;
      while !o < stop do
        let o0 = !o in
        Array.unsafe_set out o0
          (Array.unsafe_get out o0
          +. (Array.unsafe_get data (base + o0) *. ri));
        o := o0 + 1
      done
    done

  (* Single-residual block [lo, hi) of Gᵀ·r into out.(off + j − lo);
     the slice must be zeroed for a dense provider. *)
  let sweep_block p r out ~lo ~hi ~off =
    match p with
    | Dense g -> dense_sweep g All r out ~lo ~hi ~off
    | Streamed s -> dots_block s r out ~lo ~hi ~off

  (* A per-chunk dots buffer of [len] floats, zeroed for the dense
     kernel's accumulation; streamed kernels overwrite every slot, so
     they take a pooled scratch buffer instead. *)
  let chunk_buf p len =
    match p with Dense _ -> Array.make len 0. | Streamed s -> acquire s len

  let release_buf p buf =
    match p with Dense _ -> () | Streamed s -> release s buf

  let gram_tr ?pool p r =
    check_r p r;
    let m = cols p in
    let out = Array.make m 0. in
    let pool = match pool with Some q -> q | None -> Parallel.Pool.default () in
    Parallel.Pool.parallel_for_chunks pool
      ~grain:(Parallel.Pool.grain_for ~work:(rows p)) ~lo:0 ~hi:m
      (fun ~lo ~hi -> sweep_block p r out ~lo ~hi ~off:lo);
    out

  let scan_argmax dots skip ~lo ~hi =
    let best = ref (-1) and best_abs = ref 0. in
    for j = lo to hi - 1 do
      if not skip.(j) then begin
        let c = Float.abs dots.(j - lo) in
        if c > !best_abs then begin
          best := j;
          best_abs := c
        end
      end
    done;
    (!best, !best_abs)

  (* Strict > keeps the earlier chunk's winner on exact ties — the same
     column a sequential left-to-right scan would pick. *)
  let combine_argmax ((_, ca) as a) ((_, cb) as b) = if cb > ca then b else a

  let argmax_abs ?pool ~skip p r =
    check_r p r;
    let m = cols p in
    if Array.length skip <> m then
      invalid_arg "Design.Provider.argmax_abs: skip length mismatch";
    let pool = match pool with Some q -> q | None -> Parallel.Pool.default () in
    Parallel.Pool.parallel_reduce pool ?chunks:None
      ~grain:(Parallel.Pool.grain_for ~work:(rows p)) ~lo:0 ~hi:m
      ~init:(-1, 0.)
      ~fold:(fun ~lo ~hi ->
        let dots = chunk_buf p (hi - lo) in
        sweep_block p r dots ~lo ~hi ~off:0;
        let result = scan_argmax dots skip ~lo ~hi in
        release_buf p dots;
        result)
      ~combine:combine_argmax

  (* --- fused multi-residual sweeps --------------------------------- *)

  (* The fold-parallel CV bottleneck on streamed providers is column
     *generation*: Q folds each regenerate every Hermite column per
     step. The streamed multi kernel generates each column exactly once
     per call and dots it against all Q fold residuals, so generation
     is paid once per step instead of once per fold. A dense provider
     has nothing to generate: each fold runs the row-streaming
     [dense_sweep] over its own rows.

     Bitwise contract: fold row sets are strictly ascending, so for each
     fold the dot accumulates over exactly the rows (in the same order)
     that a sweep over [select_rows p rows.(q)] would visit, and the
     per-term product order matches [dots_block] / [entry]. The fused
     result is therefore bitwise identical to Q independent sweeps. *)

  let multi_check name p fold_rows rs =
    let nq = Array.length rs in
    if nq = 0 then
      invalid_arg (Printf.sprintf "Design.Provider.%s: no residuals" name);
    if Array.length fold_rows <> nq then
      invalid_arg
        (Printf.sprintf
           "Design.Provider.%s: fold row sets / residuals count mismatch" name);
    let k = rows p in
    Array.iteri
      (fun q idx ->
        if Array.length rs.(q) <> Array.length idx then
          invalid_arg
            (Printf.sprintf "Design.Provider.%s: residual length mismatch" name);
        let prev = ref (-1) in
        Array.iter
          (fun i ->
            if i <= !prev || i >= k then
              invalid_arg
                (Printf.sprintf
                   "Design.Provider.%s: fold rows must be strictly \
                    ascending and in range"
                   name);
            prev := i)
          idx)
      fold_rows

  (* Streamed block: materialize column j once into a K-length scratch
     buffer, then one ascending-row dot per fold against its residual,
     stored to outs.(q).(off + j − lo). Const columns skip
     materialization and sum the residual directly — the exact float
     sequence [dots_block] produces for them. *)
  let multi_block_streamed s fold_rows rs outs ~lo ~hi ~off =
    let k = s.sk in
    let vt = s.vtab in
    let nq = Array.length rs in
    let buf = acquire s (max 1 k) in
    for j = lo to hi - 1 do
      let ct = Array.unsafe_get s.cterms j in
      (match ct with
      | Const -> ()
      | Single o ->
          for i = 0 to k - 1 do
            Array.unsafe_set buf i (Array.unsafe_get vt (o + i))
          done
      | Pair (o1, o2) ->
          for i = 0 to k - 1 do
            Array.unsafe_set buf i
              (Array.unsafe_get vt (o1 + i) *. Array.unsafe_get vt (o2 + i))
          done
      | Many offs ->
          for i = 0 to k - 1 do
            let e = ref 1. in
            Array.iter (fun o -> e := !e *. Array.unsafe_get vt (o + i)) offs;
            Array.unsafe_set buf i !e
          done);
      for q = 0 to nq - 1 do
        let idx = Array.unsafe_get fold_rows q in
        let r = Array.unsafe_get rs q in
        let n = Array.length r in
        let acc = ref 0. in
        (match ct with
        | Const ->
            for i = 0 to n - 1 do
              acc := !acc +. Array.unsafe_get r i
            done
        | _ ->
            for i = 0 to n - 1 do
              acc :=
                !acc
                +. (Array.unsafe_get buf (Array.unsafe_get idx i)
                   *. Array.unsafe_get r i)
            done);
        Array.unsafe_set (Array.unsafe_get outs q) (off + j - lo) !acc
      done
    done;
    release s buf

  (* Every fold's block [lo, hi) of Gᵀ·r into outs.(q).(off + j − lo);
     the slices must be zeroed for a dense provider. *)
  let multi_block p fold_rows rs outs ~lo ~hi ~off =
    match p with
    | Dense g ->
        Array.iteri
          (fun q idx -> dense_sweep g (Fold idx) rs.(q) outs.(q) ~lo ~hi ~off)
          fold_rows
    | Streamed s -> multi_block_streamed s fold_rows rs outs ~lo ~hi ~off

  let gram_tr_multi ?pool p ~rows:fold_rows rs =
    multi_check "gram_tr_multi" p fold_rows rs;
    let m = cols p in
    let nq = Array.length rs in
    let outs = Array.init nq (fun _ -> Array.make m 0.) in
    let pool = match pool with Some q -> q | None -> Parallel.Pool.default () in
    Parallel.Pool.parallel_for_chunks pool
      ~grain:(Parallel.Pool.grain_for ~work:(rows p * (nq + 1)))
      ~lo:0 ~hi:m
      (fun ~lo ~hi -> multi_block p fold_rows rs outs ~lo ~hi ~off:lo);
    outs

  let argmax_abs_multi ?pool ~skips p ~rows:fold_rows rs =
    multi_check "argmax_abs_multi" p fold_rows rs;
    let m = cols p in
    let nq = Array.length rs in
    if Array.length skips <> nq then
      invalid_arg "Design.Provider.argmax_abs_multi: skip mask count mismatch";
    Array.iter
      (fun sk ->
        if Array.length sk <> m then
          invalid_arg "Design.Provider.argmax_abs_multi: skip length mismatch")
      skips;
    let pool = match pool with Some q -> q | None -> Parallel.Pool.default () in
    Parallel.Pool.parallel_reduce pool ?chunks:None
      ~grain:(Parallel.Pool.grain_for ~work:(rows p * (nq + 1)))
      ~lo:0 ~hi:m
      ~init:(Array.make nq (-1, 0.))
      ~fold:(fun ~lo ~hi ->
        let dots = Array.init nq (fun _ -> chunk_buf p (hi - lo)) in
        multi_block p fold_rows rs dots ~lo ~hi ~off:0;
        let best =
          Array.init nq (fun q -> scan_argmax dots.(q) skips.(q) ~lo ~hi)
        in
        Array.iter (release_buf p) dots;
        best)
      ~combine:(Array.map2 combine_argmax)

  let column_norms ?pool p =
    match p with
    | Dense g -> column_norms ?pool g
    | Streamed s ->
        let out = Array.make s.sm 0. in
        let pool =
          match pool with Some q -> q | None -> Parallel.Pool.default ()
        in
        Parallel.Pool.parallel_for_chunks pool
          ~grain:(Parallel.Pool.grain_for ~work:s.sk) ~lo:0 ~hi:s.sm
          (fun ~lo ~hi ->
            for j = lo to hi - 1 do
              let acc = ref 0. in
              for i = 0 to s.sk - 1 do
                let v = entry s j i in
                acc := !acc +. (v *. v)
              done;
              out.(j) <- sqrt !acc
            done);
        out

  module Cache = struct
    type provider = t

    type t = { src : provider; tbl : (int, Vec.t) Hashtbl.t }

    let create src = { src; tbl = Hashtbl.create 64 }

    let column c j =
      match Hashtbl.find_opt c.tbl j with
      | Some col -> col
      | None ->
          let col = column c.src j in
          Hashtbl.add c.tbl j col;
          col

    let col_dot c j x = Vec.dot (column c j) x

    let col_col_dot c i j = Vec.dot (column c i) (column c j)
  end
end
