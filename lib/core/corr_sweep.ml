module Provider = Polybasis.Design.Provider

type sweep = Exact | Incremental of { refresh : int }

let default_refresh = 16
let incremental ?(refresh = default_refresh) () = Incremental { refresh }

let sweep_of_string = function
  | "exact" -> Some Exact
  | "incremental" -> Some (Incremental { refresh = default_refresh })
  | _ -> None

let sweep_to_string = function
  | Exact -> "exact"
  | Incremental _ -> "incremental"

(* The Gram cache replaces one of a LAR step's two sweeps; a greedy
   step runs one sweep, and its entering column's Gram build costs that
   sweep again. *)
let lar_only ~lar = function
  | Incremental _ when not lar ->
      Error
        "incremental sweep serves lar and lasso only; other methods run the \
         exact sweep"
  | Exact | Incremental _ -> Ok ()

let gram_tr ?pool src r = Provider.gram_tr ?pool src r

let argmax_abs ?pool ~skip src r = Provider.argmax_abs ?pool ~skip src r

let gram_tr_multi ?pool src ~rows rs = Provider.gram_tr_multi ?pool src ~rows rs

let argmax_abs_multi ?pool ~skips src ~rows rs =
  Provider.argmax_abs_multi ?pool ~skips src ~rows rs

module Inc = struct
  type t = {
    src : Provider.t;
    pool : Parallel.Pool.t option;
    refresh_every : int;
    c : Linalg.Vec.t;
    (* j ↦ v_j = Gᵀ·g_j, built once when column j enters the active set. *)
    grams : (int, Linalg.Vec.t) Hashtbl.t;
    mutable since : int;
  }

  let create ?pool ~refresh src r =
    if refresh < 0 then
      invalid_arg "Corr_sweep.Inc.create: negative refresh cadence";
    {
      src;
      pool;
      refresh_every = refresh;
      c = Provider.gram_tr ?pool src r;
      grams = Hashtbl.create 32;
      since = 0;
    }

  let correlations t = t.c

  let ensure_gram t j col =
    if not (Hashtbl.mem t.grams j) then
      Hashtbl.add t.grams j (Provider.gram_tr ?pool:t.pool t.src col)

  let gram t j =
    match Hashtbl.find_opt t.grams j with
    | Some v -> v
    | None ->
        invalid_arg "Corr_sweep.Inc: gram column was never cached (ensure_gram)"

  let pool_of t =
    match t.pool with Some p -> p | None -> Parallel.Pool.default ()

  (* Σ_p w_p·v_{j_p} — the cached stand-in for Gᵀ·u when
     u = Σ_p w_p·g_{j_p} (LARS equiangular direction), at O(p·M)
     instead of an O(K·M) sweep. Column-chunked with the terms added in
     the given order within each chunk, so every entry sees the same
     float sequence at any domain count. *)
  let combination t terms =
    let m = Array.length t.c in
    let out = Array.make m 0. in
    if Array.length terms > 0 then begin
      let vs = Array.map (fun (j, _) -> gram t j) terms in
      Parallel.Pool.parallel_for_chunks (pool_of t)
        ~grain:(Parallel.Pool.grain_for ~work:(Array.length terms))
        ~lo:0 ~hi:m
        (fun ~lo ~hi ->
          Array.iteri
            (fun q (_, w) ->
              if w <> 0. then begin
                let v = Array.unsafe_get vs q in
                for jj = lo to hi - 1 do
                  Array.unsafe_set out jj
                    (Array.unsafe_get out jj +. (w *. Array.unsafe_get v jj))
                done
              end)
            terms)
    end;
    out

  (* c ← c − γ·a for a precomputed direction image a = Gᵀ·u (the
     residual moved by γ along u). *)
  let retreat t gamma a =
    if Array.length a <> Array.length t.c then
      invalid_arg "Corr_sweep.Inc.retreat: direction length mismatch";
    let m = Array.length t.c in
    let c = t.c in
    Parallel.Pool.parallel_for_chunks (pool_of t)
      ~grain:(Parallel.Pool.grain_for ~work:1) ~lo:0 ~hi:m (fun ~lo ~hi ->
        for jj = lo to hi - 1 do
          Array.unsafe_set c jj
            (Array.unsafe_get c jj -. (gamma *. Array.unsafe_get a jj))
        done)

  let note_step t = t.since <- t.since + 1
  let due t = t.refresh_every > 0 && t.since >= t.refresh_every

  let refresh t r =
    let fresh = Provider.gram_tr ?pool:t.pool t.src r in
    Array.blit fresh 0 t.c 0 (Array.length t.c);
    t.since <- 0
end
