(* Shared helpers for the test suites. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let check_vec ?(eps = 1e-9) msg expected actual =
  if not (Linalg.Vec.approx_equal ~tol:eps expected actual) then
    Alcotest.failf "%s: vectors differ:@ %a@ vs@ %a" msg Linalg.Vec.pp expected
      Linalg.Vec.pp actual

let check_mat ?(eps = 1e-9) msg expected actual =
  if not (Linalg.Mat.approx_equal ~tol:eps expected actual) then
    Alcotest.failf "%s: matrices differ" msg

let rng () = Randkit.Prng.create 20260705

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

(* The engine values, built by their validating constructors; a test
   that needs a rejection calls the constructor itself. *)
let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected Error %S" e

let walk_log ?every ?save ?resume () =
  ok (Rsm.Serialize.Checkpoint.log ?every ?save ?resume ())

let plan ?mode shards = ok (Rsm.Shard_sweep.plan ?mode shards)

let store ?resume base = ok (Rsm.Select.store ?resume base)

(* The unscreened reference LAR walk: the public engine with every
   request answered by the full Gᵀv sweep. A lasso drop's non-SPD
   rebuild under `Stop raises, as the drivers do. *)
let reference_walk ?pool ?(mode = Rsm.Lars.Lar) ?(on_singular = `Stop) src f
    ~max_lambda =
  let e = Rsm.Lars.Engine.create ~mode ?pool ~on_singular src f ~max_lambda in
  while not (Rsm.Lars.Engine.finished e) do
    Rsm.Lars.Engine.supply e
      (Polybasis.Design.Provider.gram_tr ?pool src (Rsm.Lars.Engine.request e))
  done;
  Rsm.Lars.Engine.steps e

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

(* Fails when one call of [f] allocates [bound] minor words or more,
   averaged over 10 calls after a warm-up call. The test build is
   dune's dev profile ([-opaque]): a float or int64 that crosses a
   module boundary is boxed there, so these bounds hold the unboxed
   kernels to the build that runs them. *)
let check_minor_words what ~bound f =
  f ();
  let reps = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int reps in
  if words >= bound then
    Alcotest.failf "%s allocated %.0f minor words per call (bound %.0f)" what
      words bound

(* The mean of a plan's fold curves, each fold's curve from
   [fit_curve ~train ~held_out] through [Crossval.run_fold_curves_multi]
   at one output. *)
let cv_mean_curve plan ~fit_curve =
  Stat.Crossval.mean_curve
    (Stat.Crossval.run_fold_curves_multi ~outputs:1 plan
       ~fit_curves:(fun jobs finish ->
         Array.iteri
           (fun i (_, _, train, held_out) ->
             finish i (fit_curve ~train ~held_out))
           jobs)).(0)
