(* Figure 6: magnitude of the SRAM read-delay linear model coefficients
   estimated by OMP — a sorted spectrum showing that out of the full
   dictionary only a few dozen coefficients are materially non-zero,
   plus the paper's headline count ("only 36 basis functions are
   selected"). Rendered as a text histogram over coefficient rank.

   Gate ([run] returns false): the largest selected coefficient is at
   least [min_ratio] times the largest unselected-coefficient estimate. *)

let min_ratio = 10.

let run ~quick ~full () =
  let cells =
    if full then Circuit.Sram.paper_cells else if quick then 30 else 80
  in
  let sram = Circuit.Sram.build ~cells () in
  let dim = Circuit.Sram.dim sram in
  let basis = Polybasis.Basis.constant_linear dim in
  let k = if quick then 250 else 1000 in
  Printf.printf
    "\n=== Fig. 6: sparsity of the SRAM read-delay model (%d basis functions) \
     ===\n"
    (Polybasis.Basis.size basis);
  Printf.printf
    "Paper: 21311 bases, 36 selected; all other coefficients ~ zero.\n";
  let sim = Circuit.Sram.simulator sram in
  let rng = Randkit.Prng.create Bench_util.default_seed in
  let prep = Bench_util.prepare basis sim rng ~train:k ~test:(k / 2) in
  let sel_rng = Randkit.Prng.create (Bench_util.default_seed + 3) in
  let r =
    Rsm.Select.omp sel_rng ~max_lambda:(min (k / 5) 100) prep.Bench_util.g_train
      prep.Bench_util.f_train
  in
  let model = r.Rsm.Select.model in
  Printf.printf
    "OMP selected %d of %d basis functions (cross-validated lambda = %d); \
     testing error %s.\n"
    (Rsm.Model.nnz model)
    (Polybasis.Basis.size basis)
    r.Rsm.Select.lambda
    (Bench_util.pct
       (Rsm.Model.error_on model prep.Bench_util.g_test prep.Bench_util.f_test));
  (* Sorted |coefficient| spectrum, excluding the constant term whose
     magnitude is the nominal delay. *)
  let mags =
    Array.of_list
      (List.filter_map
         (fun p ->
           if model.Rsm.Model.support.(p) = 0 then None
           else Some (Float.abs model.Rsm.Model.coeffs.(p)))
         (List.init (Rsm.Model.nnz model) Fun.id))
  in
  Array.sort (fun a b -> compare b a) mags;
  let top = Float.max (if Array.length mags > 0 then mags.(0) else 1.) 1e-12 in
  Printf.printf "\nrank  |coefficient| (ps per sigma)\n";
  Array.iteri
    (fun i m ->
      if i < 40 then begin
        let bar = int_of_float (50. *. m /. top) in
        Printf.printf "%4d  %10.4f  %s\n" (i + 1) m (String.make (max bar 1) '#')
      end)
    mags;
  (* The background: how much response energy the unselected ~M bases
     carry, via the residual correlation spectrum. *)
  let res =
    Linalg.Vec.sub prep.Bench_util.f_train
      (Rsm.Model.predict_design model prep.Bench_util.g_train)
  in
  let kf = float_of_int (Linalg.Mat.rows prep.Bench_util.g_train) in
  let max_unselected = ref 0. in
  for j = 0 to Linalg.Mat.cols prep.Bench_util.g_train - 1 do
    if Rsm.Model.coeff model j = 0. then
      max_unselected :=
        Float.max !max_unselected
          (Float.abs (Linalg.Mat.col_dot prep.Bench_util.g_train j res) /. kf)
  done;
  let ratio = top /. Float.max !max_unselected 1e-12 in
  Printf.printf
    "\nLargest unselected-coefficient estimate: %.4f ps (%.1fx below the \
     largest selected) - the near-zero background of Fig. 6.\n"
    !max_unselected ratio;
  Bench_util.report_gate "Fig. 6 sparsity"
    (if ratio >= min_ratio then []
     else
       [
         Printf.sprintf "selected-to-unselected ratio %.1fx below %.0fx" ratio
           min_ratio;
       ])
