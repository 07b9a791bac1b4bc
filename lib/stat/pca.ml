open Linalg

type t = {
  vectors : Mat.t;  (* n×r retained eigenvector columns *)
  values : Vec.t;  (* r retained eigenvalues, decreasing *)
}

let of_covariance sigma =
  let { Eigen.values; vectors } = Eigen.symmetric sigma in
  let n = Mat.rows sigma in
  let lead = Float.max values.(0) 0. in
  let keep = ref 0 in
  for i = 0 to n - 1 do
    (* Components below 1e-12 of the leading eigenvalue are dropped. *)
    if values.(i) > 1e-12 *. lead && values.(i) > 0. then incr keep
  done;
  let r = max 1 !keep in
  {
    vectors = Mat.init n r (fun i j -> Mat.unsafe_get vectors i j);
    values = Array.sub values 0 r;
  }

let input_dim t = Mat.rows t.vectors

let output_dim t = Mat.cols t.vectors

let eigenvalues t = Vec.copy t.values

let whiten t dx =
  if Array.length dx <> input_dim t then
    invalid_arg "Pca.whiten: dimension mismatch";
  let proj = Mat.tmulv t.vectors dx in
  Array.mapi (fun j v -> v /. sqrt t.values.(j)) proj

let unwhiten t dy =
  if Array.length dy <> output_dim t then
    invalid_arg "Pca.unwhiten: dimension mismatch";
  let scaled = Array.mapi (fun j v -> v *. sqrt t.values.(j)) dy in
  Mat.mulv t.vectors scaled
