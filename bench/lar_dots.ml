(* LAR column dots per walk, by kind: the correlation phase's full
   sweeps, its carried correlations (columns whose bound reached C),
   the step-length images of screens that held, and the full sweeps of
   screens that fell back — plus each walk's time against the
   unscreened reference walk (every request answered by the full
   sweep), whose steps it must reproduce bit for bit (exit 1
   otherwise).

   Designs: the Table II design (op-amp gain, top-60 quadratic, K =
   1000, dense, λ ≤ 120) and, with --full, Table IV's paper-size SRAM
   linear design (M = 21,311, K = 1000, dense, λ ≤ 100). Each design
   walks as its CV flow walks it: four 3/4-row folds and the all-rows
   refit. *)

open Bench_util
module P = Polybasis.Design.Provider
module E = Rsm.Lars.Engine

let walk ~pool ~screened src f ~max_lambda =
  let e = E.create ~pool ~on_singular:`Fallback src f ~max_lambda in
  while not (E.finished e) do
    match if screened then E.screen e else None with
    | Some _ -> E.supply_screened e
    | None -> E.supply e (P.gram_tr ~pool src (E.request e))
  done;
  e

let step_bits (s : Rsm.Lars.step) =
  ( s.Rsm.Lars.added,
    s.Rsm.Lars.dropped,
    Int64.bits_of_float s.Rsm.Lars.max_corr,
    s.Rsm.Lars.model.Rsm.Model.support,
    Array.map Int64.bits_of_float s.Rsm.Lars.model.Rsm.Model.coeffs )

type row = {
  name : string;
  m : int;
  walks : int;
  steps : int;
  dots : E.dots;
  screened_s : float;
  reference_s : float;
  same : bool;
}

let cpu () = Sys.time ()

(* The flow's five walks over [src]: four training folds, then every
   row. *)
let measure ~pool ~name src f ~max_lambda =
  let k = P.rows src in
  let assignment =
    Randkit.Sampling.fold_assignment (Randkit.Prng.create 53) ~n:k ~folds:4
  in
  let jobs =
    List.init 4 (fun q -> fst (Randkit.Sampling.fold_split assignment q))
    @ [ Array.init k Fun.id ]
  in
  let zero = { E.full = 0; carried = 0; screened = 0; fallback = 0 } in
  List.fold_left
    (fun acc rows ->
      let sub = if Array.length rows = k then src else P.select_rows src rows in
      let fs = Array.map (fun i -> f.(i)) rows in
      let t0 = cpu () in
      let e = walk ~pool ~screened:true sub fs ~max_lambda in
      let t1 = cpu () in
      let r = walk ~pool ~screened:false sub fs ~max_lambda in
      let t2 = cpu () in
      let d = E.dots e in
      {
        acc with
        walks = acc.walks + 1;
        steps = acc.steps + Array.length (E.steps e);
        dots =
          {
            E.full = acc.dots.E.full + d.E.full;
            carried = acc.dots.E.carried + d.E.carried;
            screened = acc.dots.E.screened + d.E.screened;
            fallback = acc.dots.E.fallback + d.E.fallback;
          };
        screened_s = acc.screened_s +. (t1 -. t0);
        reference_s = acc.reference_s +. (t2 -. t1);
        same =
          acc.same
          && Array.map step_bits (E.steps e) = Array.map step_bits (E.steps r);
      })
    {
      name;
      m = P.cols src;
      walks = 0;
      steps = 0;
      dots = zero;
      screened_s = 0.;
      reference_s = 0.;
      same = true;
    }
    jobs

(* The Table II design: the linear OMP screen ranks the op-amp's
   factors, and the top [n_top] span the quadratic dictionary. *)
let table2_design ~quick =
  let amp = Circuit.Opamp.build () in
  let dim = Circuit.Opamp.dim amp in
  let sim = Circuit.Opamp.simulator amp Circuit.Opamp.Gain in
  let n_top = if quick then 20 else 60 and k = if quick then 300 else 1000 in
  let lin =
    prepare (Polybasis.Basis.constant_linear dim) sim
      (Randkit.Prng.create default_seed) ~train:(min k 600) ~test:1
  in
  let top = Tables.top_parameters lin ~dim ~take:n_top in
  let quad = Polybasis.Basis.quadratic_subset ~dim top in
  let prep =
    prepare quad sim (Randkit.Prng.create (default_seed + 2)) ~train:k ~test:1
  in
  ( Printf.sprintf "Table II op-amp quadratic, top %d, K = %d" n_top k,
    P.dense prep.g_train,
    prep.f_train,
    if quick then 40 else 120 )

(* Table IV's SRAM linear design at the paper's size. *)
let table4_design () =
  let sram = Circuit.Sram.build ~cells:Circuit.Sram.paper_cells () in
  let basis = Polybasis.Basis.constant_linear (Circuit.Sram.dim sram) in
  let prep =
    prepare basis (Circuit.Sram.simulator sram)
      (Randkit.Prng.create default_seed) ~train:1000 ~test:1
  in
  ( "Table IV SRAM linear, paper size, K = 1000",
    P.dense prep.g_train,
    prep.f_train,
    100 )

let run ~quick ~full ~domains () =
  let domains =
    match domains with Some d -> d | None -> Parallel.Pool.default_domains ()
  in
  Printf.printf "\n=== LAR column dots per walk (%d domain%s) ===\n%!" domains
    (if domains = 1 then "" else "s");
  let designs =
    let t2 = table2_design ~quick in
    if full then [ t2; table4_design () ] else [ t2 ]
  in
  let rows =
    Parallel.Pool.with_pool ~domains (fun pool ->
        List.map
          (fun (name, src, f, max_lambda) ->
            measure ~pool ~name src f ~max_lambda)
          designs)
  in
  let per_walk r x = float_of_int x /. float_of_int r.walks in
  print_table ~title:"column dots per walk (M per full sweep)"
    ~header:
      [
        "design"; "M"; "steps"; "full"; "carried"; "screened"; "fallback";
        "total / 2 sweeps"; "CPU s"; "reference CPU s";
      ]
    (List.map
       (fun r ->
         let d = r.dots in
         let total = d.E.full + d.E.carried + d.E.screened + d.E.fallback in
         [
           r.name;
           string_of_int r.m;
           Printf.sprintf "%.1f" (per_walk r r.steps);
           Printf.sprintf "%.0f" (per_walk r d.E.full);
           Printf.sprintf "%.0f" (per_walk r d.E.carried);
           Printf.sprintf "%.0f" (per_walk r d.E.screened);
           Printf.sprintf "%.0f" (per_walk r d.E.fallback);
           Printf.sprintf "%.3f"
             (float_of_int total /. float_of_int (2 * r.m * r.steps));
           Printf.sprintf "%.3f" r.screened_s;
           Printf.sprintf "%.3f" r.reference_s;
         ])
       rows);
  let failures =
    List.filter_map
      (fun r ->
        if r.same then None
        else Some (r.name ^ ": screened steps differ from the reference walk"))
      rows
  in
  report_gate "LAR dots parity" failures
