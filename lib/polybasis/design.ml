open Linalg

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
     every sample. Constant and single-factor terms are compiled as a
     [Pair] against the all-ones slice at offset 0 (x·1.0 = x exactly),
     so quadratic dictionaries are all [Pair]. *)
  type cterm = Pair of int * int | Many of int array

  type streamed = {
    basis : Basis.t;
    samples : Vec.t array;
    sk : int;  (* rows K *)
    sm : int;  (* columns M *)
    (* vtab.((v·ord1 + d)·K + i) = g_d(samples.(i).(v)): K·N·(order+1)
       floats, independent of M — the whole point of the provider. *)
    vtab : float array;
    cterms : cterm array;
    (* Reusable scratch buffers (per-length free lists) checked out by
       sweep chunks and column materializations, so steady-state sweeps
       allocate nothing per iteration. *)
    scratch : (int, float array Stack.t) Hashtbl.t;
    lock : Mutex.t;
  }

  type t = Dense of Mat.t | Streamed of streamed

  (* The same three-term recurrence as [Basis.fill_tables], evaluated
     slice-by-slice: bitwise-identical Hermite values, laid out with the
     sample index innermost so per-column sweeps read contiguously.
     Offset 0 is always an all-ones slice: variable 0's degree-0 values,
     or, for a dim-0 basis, one slice of padding that no loop
     overwrites. *)
  let build_vtab b samples k =
    let n = Basis.dim b in
    let ord1 = Basis.max_degree b + 1 in
    let vtab = Array.make (max 1 n * ord1 * k) 1. in
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
        | [||] -> Pair (0, 0)
        | [| p |] -> Pair (0, off p)
        | [| p; q |] -> Pair (off p, off q)
        | pairs -> Many (Array.map off pairs))

  (* Every design entry a sweep forms must be finite: the lane kernel
     adds x·(+0) for each row outside a lane's set, which leaves the
     sum unchanged only for a finite x. So every table entry must be
     finite, and so must every column's product of its factors' largest
     magnitudes — rounding is monotone, so that bounds every entry the
     column forms, factor by factor from 1.0 as [gen_column] does. *)
  let check_finite b k vtab cterms =
    let ord1 = Basis.max_degree b + 1 in
    for v = 0 to Basis.dim b - 1 do
      for d = 0 to ord1 - 1 do
        for i = 0 to k - 1 do
          let x = vtab.((((v * ord1) + d) * k) + i) in
          if not (Float.is_finite x) then
            invalid_arg
              (Printf.sprintf
                 "Design.Provider.streamed: non-finite Hermite table entry \
                  He_%d(y) = %g at sample %d, variable %d"
                 d x i v)
        done
      done
    done;
    if k > 0 then begin
      let slice_max =
        Array.init
          (Array.length vtab / k)
          (fun sl ->
            let m = ref 0. in
            for i = 0 to k - 1 do
              m := Float.max !m (Float.abs vtab.((sl * k) + i))
            done;
            !m)
      in
      let bound = function
        | Pair (a, b) -> slice_max.(a / k) *. slice_max.(b / k)
        | Many offs ->
            Array.fold_left (fun acc o -> acc *. slice_max.(o / k)) 1. offs
      in
      Array.iteri
        (fun j t ->
          if not (Float.is_finite (bound t)) then
            invalid_arg
              (Printf.sprintf
                 "Design.Provider.streamed: column %d can overflow (its \
                  factors' largest table magnitudes multiply to %g)"
                 j (bound t)))
        cterms
    end

  let dense g = Dense g

  (* The tables and compiled terms of (b, samples), unchecked for
     finiteness; [name] labels the dimension check. *)
  let tables name b samples =
    Array.iter
      (fun s ->
        if Array.length s <> Basis.dim b then
          invalid_arg (name ^ ": sample dimension mismatch"))
      samples;
    let k = Array.length samples in
    {
      basis = b;
      samples;
      sk = k;
      sm = Basis.size b;
      vtab = build_vtab b samples k;
      cterms = compile_terms b k;
      scratch = Hashtbl.create 4;
      lock = Mutex.create ();
    }

  let streamed b samples =
    let s = tables "Design.Provider.streamed" b samples in
    check_finite b s.sk s.vtab s.cterms;
    Streamed s

  let rows = function Dense g -> Mat.rows g | Streamed s -> s.sk

  let cols = function Dense g -> Mat.cols g | Streamed s -> s.sm

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

  (* --- the streamed sweep kernels ----------------------------------- *)

  (* The rows a dense sweep visits: every row of the design, or one
     fold's strictly ascending row set. *)
  type row_set = All | Fold of int array

  (* Column j's K entries into buf.(pos + i·stride), i ascending. Each
     entry is the product [Term.eval_tables] forms, factors left to
     right from 1.0 (the leading 1.0· is exact, so a [Pair] is one
     multiply) — bitwise the entry of [row]. Both design forms take
     their entries from here: the dense matrix is this routine written
     at stride M. *)
  let gen_column s j buf ~pos ~stride =
    let vt = s.vtab in
    match Array.unsafe_get s.cterms j with
    | Pair (a, b) ->
        for i = 0 to s.sk - 1 do
          Array.unsafe_set buf (pos + (i * stride))
            (Array.unsafe_get vt (a + i) *. Array.unsafe_get vt (b + i))
        done
    | Many offs ->
        for i = 0 to s.sk - 1 do
          Array.unsafe_set buf (pos + (i * stride)) 1.
        done;
        Array.iter
          (fun o ->
            for i = 0 to s.sk - 1 do
              let p = pos + (i * stride) in
              Array.unsafe_set buf p
                (Array.unsafe_get buf p *. Array.unsafe_get vt (o + i))
            done)
          offs

  (* The lane kernel, two columns against every lane. Column c's entry
     at row i is the product x.(a_c + i)·x.(b_c + i), formed inline once
     per row; lanes are the columns of the row-major K×nl matrix
     [lanes], and (column c, lane t) gets Σᵢ x_{c,i}·lanes.(i·nl + t)
     over all K rows, ascending from +0, in outs.(t).(o + c) — column 0
     only when [two] is false. Lanes go in groups of at most five, so
     one pass over the rows keeps ten accumulators busy; a group of
     w < 5 lanes runs a w-lane loop. The accumulators are local float
     refs and stay unboxed. Both columns read one array and the rows
     are counted from a0, which keeps the loop's operands in registers;
     with the products staged through scratch instead, or with a call
     in the function, the fused 4-fold sweep at K = 1000, M = 20 301
     ran no faster than the per-fold gather it replaces (PERFORMANCE.md
     has the timings). *)
  let lane_pair k (x : float array) a0 b0 a1 b1 (lanes : float array) nl
      (outs : float array array) ~o ~two =
    let db0 = b0 - a0 and da1 = a1 - a0 and db1 = b1 - a0 in
    let g = ref 0 in
    while !g < nl do
      let g0 = !g in
      (* An int compare, not the polymorphic [min]: a call here would
         spill the loop's arrays to the stack. *)
      let w = if nl - g0 < 5 then nl - g0 else 5 in
      let c00 = ref 0. and c01 = ref 0. and c02 = ref 0. and c03 = ref 0.
      and c04 = ref 0. in
      let c10 = ref 0. and c11 = ref 0. and c12 = ref 0. and c13 = ref 0.
      and c14 = ref 0. in
      (* Row i's entries are x.(a0 + i)·x.(b0 + i) and
         x.(a1 + i)·x.(b1 + i), with the loop running over a0 + i; its
         lanes start at lanes.(!row) = lanes.(i·nl + g0). *)
      let row = ref g0 in
      (match w with
      | 5 ->
          for i = a0 to a0 + k - 1 do
            let x0 = Array.unsafe_get x i *. Array.unsafe_get x (i + db0)
            and x1 =
              Array.unsafe_get x (i + da1) *. Array.unsafe_get x (i + db1)
            and p = !row in
            row := p + nl;
            let l = Array.unsafe_get lanes p in
            c00 := !c00 +. (x0 *. l);
            c10 := !c10 +. (x1 *. l);
            let l = Array.unsafe_get lanes (p + 1) in
            c01 := !c01 +. (x0 *. l);
            c11 := !c11 +. (x1 *. l);
            let l = Array.unsafe_get lanes (p + 2) in
            c02 := !c02 +. (x0 *. l);
            c12 := !c12 +. (x1 *. l);
            let l = Array.unsafe_get lanes (p + 3) in
            c03 := !c03 +. (x0 *. l);
            c13 := !c13 +. (x1 *. l);
            let l = Array.unsafe_get lanes (p + 4) in
            c04 := !c04 +. (x0 *. l);
            c14 := !c14 +. (x1 *. l)
          done
      | 4 ->
          for i = a0 to a0 + k - 1 do
            let x0 = Array.unsafe_get x i *. Array.unsafe_get x (i + db0)
            and x1 =
              Array.unsafe_get x (i + da1) *. Array.unsafe_get x (i + db1)
            and p = !row in
            row := p + nl;
            let l = Array.unsafe_get lanes p in
            c00 := !c00 +. (x0 *. l);
            c10 := !c10 +. (x1 *. l);
            let l = Array.unsafe_get lanes (p + 1) in
            c01 := !c01 +. (x0 *. l);
            c11 := !c11 +. (x1 *. l);
            let l = Array.unsafe_get lanes (p + 2) in
            c02 := !c02 +. (x0 *. l);
            c12 := !c12 +. (x1 *. l);
            let l = Array.unsafe_get lanes (p + 3) in
            c03 := !c03 +. (x0 *. l);
            c13 := !c13 +. (x1 *. l)
          done
      | 3 ->
          for i = a0 to a0 + k - 1 do
            let x0 = Array.unsafe_get x i *. Array.unsafe_get x (i + db0)
            and x1 =
              Array.unsafe_get x (i + da1) *. Array.unsafe_get x (i + db1)
            and p = !row in
            row := p + nl;
            let l = Array.unsafe_get lanes p in
            c00 := !c00 +. (x0 *. l);
            c10 := !c10 +. (x1 *. l);
            let l = Array.unsafe_get lanes (p + 1) in
            c01 := !c01 +. (x0 *. l);
            c11 := !c11 +. (x1 *. l);
            let l = Array.unsafe_get lanes (p + 2) in
            c02 := !c02 +. (x0 *. l);
            c12 := !c12 +. (x1 *. l)
          done
      | 2 ->
          for i = a0 to a0 + k - 1 do
            let x0 = Array.unsafe_get x i *. Array.unsafe_get x (i + db0)
            and x1 =
              Array.unsafe_get x (i + da1) *. Array.unsafe_get x (i + db1)
            and p = !row in
            row := p + nl;
            let l = Array.unsafe_get lanes p in
            c00 := !c00 +. (x0 *. l);
            c10 := !c10 +. (x1 *. l);
            let l = Array.unsafe_get lanes (p + 1) in
            c01 := !c01 +. (x0 *. l);
            c11 := !c11 +. (x1 *. l)
          done
      | _ ->
          for i = a0 to a0 + k - 1 do
            let x0 = Array.unsafe_get x i *. Array.unsafe_get x (i + db0)
            and x1 =
              Array.unsafe_get x (i + da1) *. Array.unsafe_get x (i + db1)
            and l = Array.unsafe_get lanes !row in
            row := !row + nl;
            c00 := !c00 +. (x0 *. l);
            c10 := !c10 +. (x1 *. l)
          done);
      let out = Array.unsafe_get outs g0 in
      Array.unsafe_set out o !c00;
      if two then Array.unsafe_set out (o + 1) !c10;
      if w > 1 then begin
        let out = Array.unsafe_get outs (g0 + 1) in
        Array.unsafe_set out o !c01;
        if two then Array.unsafe_set out (o + 1) !c11
      end;
      if w > 2 then begin
        let out = Array.unsafe_get outs (g0 + 2) in
        Array.unsafe_set out o !c02;
        if two then Array.unsafe_set out (o + 1) !c12
      end;
      if w > 3 then begin
        let out = Array.unsafe_get outs (g0 + 3) in
        Array.unsafe_set out o !c03;
        if two then Array.unsafe_set out (o + 1) !c13
      end;
      if w > 4 then begin
        let out = Array.unsafe_get outs (g0 + 4) in
        Array.unsafe_set out o !c04;
        if two then Array.unsafe_set out (o + 1) !c14
      end;
      g := g0 + 5
    done

  (* Columns [lo, hi) against all nl lanes, into outs.(t).(off + j − lo),
     two columns per pass. A block of two [Pair] columns reads the
     tables; a block holding a [Many] term, and the odd tail column,
     are generated into scratch first and read against K ones
     (x·1.0 = x). *)
  let lane_sweep s lanes nl outs ~lo ~hi ~off =
    let k = s.sk and vt = s.vtab and ct = s.cterms in
    (* K ones, then the generated columns at [k, 3k). *)
    let buf = acquire s (max 1 (3 * k)) in
    Array.fill buf 0 k 1.;
    let j = ref lo in
    while !j < hi do
      let j0 = !j in
      let o = off + j0 - lo in
      (if j0 + 1 < hi then
         match (Array.unsafe_get ct j0, Array.unsafe_get ct (j0 + 1)) with
         | Pair (a0, b0), Pair (a1, b1) ->
             lane_pair k vt a0 b0 a1 b1 lanes nl outs ~o ~two:true
         | _ ->
             gen_column s j0 buf ~pos:k ~stride:1;
             gen_column s (j0 + 1) buf ~pos:(2 * k) ~stride:1;
             lane_pair k buf k 0 (2 * k) 0 lanes nl outs ~o ~two:true
       else begin
         gen_column s j0 buf ~pos:k ~stride:1;
         lane_pair k buf k 0 k 0 lanes nl outs ~o ~two:false
       end);
      j := j0 + 2
    done;
    release s buf

  (* The lane matrix of one multi-residual call, K×L row-major: lane q
     holds rs.(q).(i) at row rows.(q).(i) and +0 at every other row.
     Built once per call and only read by the chunks. *)
  let lane_matrix s fold_rows rs =
    let nl = Array.length rs in
    let lanes = acquire s (max 1 (s.sk * nl)) in
    Array.fill lanes 0 (Array.length lanes) 0.;
    for q = 0 to nl - 1 do
      let idx = fold_rows.(q) and r = rs.(q) in
      for i = 0 to Array.length idx - 1 do
        Array.unsafe_set lanes
          ((Array.unsafe_get idx i * nl) + q)
          (Array.unsafe_get r i)
      done
    done;
    lanes

  (* The one-residual all-rows sweep behind [gram_tr], [argmax_abs] and
     [col_dot]: out.(off + j − lo) ← Σᵢ g[i, j]·r.(i) for j ∈ [lo, hi).
     Four [Pair] columns go per pass with their products formed inline
     and no column stored, so four independent add chains share every
     row instead of one column waiting on its previous add. A block
     holding a [Many] term, and the tail, run the lane kernel with r as
     its one lane. Each column adds its rows in ascending order from 0
     with the products of [gen_column] — the bits of a dense sweep; the
     blocking only interleaves independent columns. *)
  let streamed_sweep s r out ~lo ~hi ~off =
    let k = s.sk and vt = s.vtab and ct = s.cterms in
    let outs = [| out |] in
    let j = ref lo in
    while !j + 4 <= hi do
      let j0 = !j in
      let o = off + j0 - lo in
      (match
         ( Array.unsafe_get ct j0,
           Array.unsafe_get ct (j0 + 1),
           Array.unsafe_get ct (j0 + 2),
           Array.unsafe_get ct (j0 + 3) )
       with
      | Pair (a0, b0), Pair (a1, b1), Pair (a2, b2), Pair (a3, b3) ->
          let c0 = ref 0. and c1 = ref 0. and c2 = ref 0. and c3 = ref 0. in
          for i = 0 to k - 1 do
            let ri = Array.unsafe_get r i in
            c0 :=
              !c0
              +. (Array.unsafe_get vt (a0 + i) *. Array.unsafe_get vt (b0 + i)
                 *. ri);
            c1 :=
              !c1
              +. (Array.unsafe_get vt (a1 + i) *. Array.unsafe_get vt (b1 + i)
                 *. ri);
            c2 :=
              !c2
              +. (Array.unsafe_get vt (a2 + i) *. Array.unsafe_get vt (b2 + i)
                 *. ri);
            c3 :=
              !c3
              +. (Array.unsafe_get vt (a3 + i) *. Array.unsafe_get vt (b3 + i)
                 *. ri)
          done;
          Array.unsafe_set out o !c0;
          Array.unsafe_set out (o + 1) !c1;
          Array.unsafe_set out (o + 2) !c2;
          Array.unsafe_set out (o + 3) !c3
      | _ -> lane_sweep s r 1 outs ~lo:j0 ~hi:(j0 + 4) ~off:o);
      j := j0 + 4
    done;
    if !j < hi then lane_sweep s r 1 outs ~lo:!j ~hi ~off:(off + !j - lo)

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
    | Streamed s -> gen_column s j buf ~pos:0 ~stride:1

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
        streamed_sweep s x out ~lo:j ~hi:(j + 1) ~off:0;
        out.(0)

  let col_col_dot p i j =
    check_col "col_col_dot" p i;
    check_col "col_col_dot" p j;
    match p with
    | Dense g -> Mat.col_col_dot g i j
    | Streamed s ->
        let bi = acquire s s.sk and bj = acquire s s.sk in
        gen_column s i bi ~pos:0 ~stride:1;
        gen_column s j bj ~pos:0 ~stride:1;
        let d = Vec.dot bi bj in
        release s bi;
        release s bj;
        d

  (* The K×M matrix, column j written by [gen_column] straight into its
     row-major slots. Column-parallel: each chunk owns disjoint columns,
     and every entry is the one product [gen_column] forms, so the bits
     do not depend on the domain count. Non-finite entries pass through:
     only the lane kernel needs finite ones, and a dense sweep runs no
     lanes. *)
  let materialize ?pool s =
    let k = s.sk and m = s.sm in
    let g = Mat.create k m in
    if k > 0 then begin
      let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
      Parallel.Pool.parallel_for_chunks pool
        ~grain:(Parallel.Pool.grain_for ~work:k) ~lo:0 ~hi:m (fun ~lo ~hi ->
          for j = lo to hi - 1 do
            gen_column s j g.Mat.data ~pos:j ~stride:m
          done)
    end;
    g

  let to_dense ?pool = function
    | Dense g -> g
    | Streamed s -> materialize ?pool s

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
        streamed s.basis (Array.map (fun i -> s.samples.(i)) idx)

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

  (* The one dense sweep kernel: out.(off + j − lo) += Σᵢ g[row i, j]·r.(i)
     for j ∈ [lo, hi), where row i is i itself ([All]) or idx.(i)
     ([Fold idx]). Rows are walked outermost, so the row-major matrix
     streams through cache. Four visited rows go per pass: each output
     slot is loaded once, gets the four rows' products added in
     ascending row order, ((a + x₀·r₀) + x₁·r₁) + …, and is stored
     once, so the slot's load and store are shared by four rows instead
     of paid per row. The column loop runs four slots per iteration;
     the n mod 4 leftover rows and the column tail go one at a time.
     Each column still adds its rows in ascending order onto the
     caller's zeroed slice — the bits of [Mat.col_dot] on the selected
     rows; the blocking only groups the additions, never reorders
     them. Forming each row's data index once per iteration, with the
     next three slots at constant offsets from it, is what makes the
     blocking pay: PERFORMANCE.md "Dense sweep: four rows per pass". *)
  let dense_sweep g rows r out ~lo ~hi ~off =
    let m = Mat.cols g in
    let data = g.Mat.data in
    let n = Array.length r in
    let stop = off + hi - lo in
    (* Output slot o of a visited row with base b reads data.(b + o),
       where b = row·m + shift. *)
    let shift = lo - off in
    let i = ref 0 in
    while !i + 4 <= n do
      let i0 = !i in
      let b0, b1, b2, b3 =
        match rows with
        | All ->
            let b0 = (i0 * m) + shift in
            (b0, b0 + m, b0 + (2 * m), b0 + (3 * m))
        | Fold idx ->
            ( (Array.unsafe_get idx i0 * m) + shift,
              (Array.unsafe_get idx (i0 + 1) * m) + shift,
              (Array.unsafe_get idx (i0 + 2) * m) + shift,
              (Array.unsafe_get idx (i0 + 3) * m) + shift )
      in
      let r0 = Array.unsafe_get r i0
      and r1 = Array.unsafe_get r (i0 + 1)
      and r2 = Array.unsafe_get r (i0 + 2)
      and r3 = Array.unsafe_get r (i0 + 3) in
      let o = ref off in
      while !o + 4 <= stop do
        let o0 = !o in
        (* The four rows' data indices of slot o0; slots o0 + 1 … o0 + 3
           sit at constant offsets from them. *)
        let p0 = b0 + o0 and p1 = b1 + o0 and p2 = b2 + o0 and p3 = b3 + o0 in
        Array.unsafe_set out o0
          (Array.unsafe_get out o0
           +. (Array.unsafe_get data p0 *. r0)
           +. (Array.unsafe_get data p1 *. r1)
           +. (Array.unsafe_get data p2 *. r2)
           +. (Array.unsafe_get data p3 *. r3));
        Array.unsafe_set out (o0 + 1)
          (Array.unsafe_get out (o0 + 1)
           +. (Array.unsafe_get data (p0 + 1) *. r0)
           +. (Array.unsafe_get data (p1 + 1) *. r1)
           +. (Array.unsafe_get data (p2 + 1) *. r2)
           +. (Array.unsafe_get data (p3 + 1) *. r3));
        Array.unsafe_set out (o0 + 2)
          (Array.unsafe_get out (o0 + 2)
           +. (Array.unsafe_get data (p0 + 2) *. r0)
           +. (Array.unsafe_get data (p1 + 2) *. r1)
           +. (Array.unsafe_get data (p2 + 2) *. r2)
           +. (Array.unsafe_get data (p3 + 2) *. r3));
        Array.unsafe_set out (o0 + 3)
          (Array.unsafe_get out (o0 + 3)
           +. (Array.unsafe_get data (p0 + 3) *. r0)
           +. (Array.unsafe_get data (p1 + 3) *. r1)
           +. (Array.unsafe_get data (p2 + 3) *. r2)
           +. (Array.unsafe_get data (p3 + 3) *. r3));
        o := o0 + 4
      done;
      while !o < stop do
        let o0 = !o in
        Array.unsafe_set out o0
          (Array.unsafe_get out o0
           +. (Array.unsafe_get data (b0 + o0) *. r0)
           +. (Array.unsafe_get data (b1 + o0) *. r1)
           +. (Array.unsafe_get data (b2 + o0) *. r2)
           +. (Array.unsafe_get data (b3 + o0) *. r3));
        o := o0 + 1
      done;
      i := i0 + 4
    done;
    for i = !i to n - 1 do
      let b =
        ((match rows with All -> i | Fold idx -> Array.unsafe_get idx i) * m)
        + shift
      in
      let ri = Array.unsafe_get r i in
      for o = off to stop - 1 do
        Array.unsafe_set out o
          (Array.unsafe_get out o +. (Array.unsafe_get data (b + o) *. ri))
      done
    done

  (* Block [lo, hi) of Gᵀ·r over all rows into out.(off + j − lo); the
     slice must be zeroed for a dense provider. *)
  let sweep_block p r out ~lo ~hi ~off =
    match p with
    | Dense g -> dense_sweep g All r out ~lo ~hi ~off
    | Streamed s -> streamed_sweep s r out ~lo ~hi ~off

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

  (* Slot t ← Σᵢ g[i, idx.(t)]·r.(i), rows ascending from +0 — bitwise
     slot idx.(t) of [gram_tr]. Dense: rows outermost over the index
     set, four rows per pass with each slot's products added in
     ascending row order between one load and one store, as
     [dense_sweep] adds them. Streamed: each column's products formed
     as [gen_column] forms them ([Pair] inline, [Many] through a
     scratch column) and added into its own accumulator. *)
  let col_dots p idx r out =
    check_r p r;
    let n = Array.length idx in
    if Array.length out <> n then
      invalid_arg "Design.Provider.col_dots: output length mismatch";
    Array.iter (check_col "col_dots" p) idx;
    match p with
    | Dense g ->
        let m = Mat.cols g and data = g.Mat.data and k = Mat.rows g in
        Array.fill out 0 n 0.;
        let i = ref 0 in
        while !i + 4 <= k do
          let i0 = !i in
          let b0 = i0 * m in
          let b1 = b0 + m and b2 = b0 + (2 * m) and b3 = b0 + (3 * m) in
          let r0 = Array.unsafe_get r i0
          and r1 = Array.unsafe_get r (i0 + 1)
          and r2 = Array.unsafe_get r (i0 + 2)
          and r3 = Array.unsafe_get r (i0 + 3) in
          for t = 0 to n - 1 do
            let j = Array.unsafe_get idx t in
            Array.unsafe_set out t
              (Array.unsafe_get out t
               +. (Array.unsafe_get data (b0 + j) *. r0)
               +. (Array.unsafe_get data (b1 + j) *. r1)
               +. (Array.unsafe_get data (b2 + j) *. r2)
               +. (Array.unsafe_get data (b3 + j) *. r3))
          done;
          i := i0 + 4
        done;
        for i = !i to k - 1 do
          let b = i * m and ri = Array.unsafe_get r i in
          for t = 0 to n - 1 do
            Array.unsafe_set out t
              (Array.unsafe_get out t
               +. (Array.unsafe_get data (b + Array.unsafe_get idx t) *. ri))
          done
        done
    | Streamed s ->
        let k = s.sk and vt = s.vtab in
        let buf = acquire s k in
        Array.iteri
          (fun t j ->
            let acc = ref 0. in
            (match Array.unsafe_get s.cterms j with
            | Pair (a, b) ->
                for i = 0 to k - 1 do
                  acc :=
                    !acc
                    +. (Array.unsafe_get vt (a + i) *. Array.unsafe_get vt (b + i)
                       *. Array.unsafe_get r i)
                done
            | Many _ ->
                gen_column s j buf ~pos:0 ~stride:1;
                for i = 0 to k - 1 do
                  acc := !acc +. (Array.unsafe_get buf i *. Array.unsafe_get r i)
                done);
            Array.unsafe_set out t !acc)
          idx;
        release s buf

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

  (* One call serves L residuals, each over its own row set: a dense
     provider runs the row-streaming [dense_sweep] over each set's rows;
     a streamed one scatters the residuals into a K×L lane matrix once
     per call and runs the lane kernel, which forms every column's
     products once for all L lanes.

     Bitwise contract: row sets are strictly ascending, so a dense dot
     accumulates over exactly the rows (in the same order) that a sweep
     over [select_rows p rows.(q)] would visit. A lane dot visits all K
     rows in ascending order from +0 with the products of
     [gen_column]; a row outside the lane's set adds x·(+0) = ±0 for a
     finite x ([streamed] rejects tables that could give another), and
     a round-to-nearest sum that starts at +0 is never −0, so adding ±0
     leaves it unchanged. The fused result is therefore bitwise
     identical to L independent sweeps. *)

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

  (* The per-chunk kernel of one multi-residual call, writing block
     [lo, hi) of every residual's sweep into outs.(q).(off + j − lo)
     (zeroed slices for a dense provider), and the call's cleanup. *)
  let multi_kernel p fold_rows rs =
    match p with
    | Dense g ->
        ( (fun outs ~lo ~hi ~off ->
            Array.iteri
              (fun q r ->
              dense_sweep g (Fold fold_rows.(q)) r outs.(q) ~lo ~hi ~off)
              rs),
          ignore )
    | Streamed s ->
        let lanes = lane_matrix s fold_rows rs in
        let nl = Array.length rs in
        ( (fun outs ~lo ~hi ~off -> lane_sweep s lanes nl outs ~lo ~hi ~off),
          fun () -> release s lanes )

  let gram_tr_multi ?pool p ~rows:fold_rows rs =
    multi_check "gram_tr_multi" p fold_rows rs;
    let m = cols p in
    let nq = Array.length rs in
    let outs = Array.init nq (fun _ -> Array.make m 0.) in
    let kernel, finish = multi_kernel p fold_rows rs in
    let pool = match pool with Some q -> q | None -> Parallel.Pool.default () in
    Parallel.Pool.parallel_for_chunks pool
      ~grain:(Parallel.Pool.grain_for ~work:(rows p * (nq + 1)))
      ~lo:0 ~hi:m
      (fun ~lo ~hi -> kernel outs ~lo ~hi ~off:lo);
    finish ();
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
    let kernel, finish = multi_kernel p fold_rows rs in
    let pool = match pool with Some q -> q | None -> Parallel.Pool.default () in
    let best =
      Parallel.Pool.parallel_reduce pool ?chunks:None
        ~grain:(Parallel.Pool.grain_for ~work:(rows p * (nq + 1)))
        ~lo:0 ~hi:m
        ~init:(Array.make nq (-1, 0.))
        ~fold:(fun ~lo ~hi ->
          let dots = Array.init nq (fun _ -> chunk_buf p (hi - lo)) in
          kernel dots ~lo ~hi ~off:0;
          let best =
            Array.init nq (fun q -> scan_argmax dots.(q) skips.(q) ~lo ~hi)
          in
          Array.iter (release_buf p) dots;
          best)
        ~combine:(Array.map2 combine_argmax)
    in
    finish ();
    best

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
            let buf = acquire s (max 1 s.sk) in
            for j = lo to hi - 1 do
              gen_column s j buf ~pos:0 ~stride:1;
              let acc = ref 0. in
              for i = 0 to s.sk - 1 do
                let v = Array.unsafe_get buf i in
                acc := !acc +. (v *. v)
              done;
              out.(j) <- sqrt !acc
            done;
            release s buf);
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

let matrix_rows ?pool b samples =
  Provider.materialize ?pool (Provider.tables "Design.matrix_rows" b samples)

let matrix ?pool b samples =
  if Mat.cols samples <> Basis.dim b then
    invalid_arg "Design.matrix: sample dimension mismatch";
  matrix_rows ?pool b (Array.init (Mat.rows samples) (fun i -> Mat.row samples i))
