open Linalg

type extremum = { value : float; corner : Vec.t }

let linear_coeffs model basis =
  let n = Polybasis.Basis.dim basis in
  let alpha0 = ref 0. in
  let lin = Array.make n 0. in
  Array.iteri
    (fun p j ->
      let term = Polybasis.Basis.term basis j in
      match Polybasis.Term.total_degree term with
      | 0 -> alpha0 := !alpha0 +. model.Model.coeffs.(p)
      | 1 ->
          let v = List.hd (Polybasis.Term.vars term) in
          lin.(v) <- lin.(v) +. model.Model.coeffs.(p)
      | _ -> invalid_arg "Corner.linear_worst: model has nonlinear terms")
    model.Model.support;
  (!alpha0, lin)

let linear_worst model basis ~sigma ~maximize =
  if Polybasis.Basis.size basis <> model.Model.basis_size then
    invalid_arg "Corner: basis size disagrees with model";
  if sigma < 0. then invalid_arg "Corner.linear_worst: negative sigma";
  let alpha0, lin = linear_coeffs model basis in
  let norm = Vec.nrm2 lin in
  if norm = 0. then { value = alpha0; corner = Vec.create (Array.length lin) }
  else begin
    let sign = if maximize then 1. else -1. in
    let corner = Array.map (fun a -> sign *. sigma *. a /. norm) lin in
    { value = alpha0 +. (sign *. sigma *. norm); corner }
  end
