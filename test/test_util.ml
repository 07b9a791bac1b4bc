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
