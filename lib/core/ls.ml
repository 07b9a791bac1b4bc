open Linalg

let fit ?method_ g f =
  if Mat.rows g < Mat.cols g then
    invalid_arg
      "Ls.fit: fewer samples than coefficients; least-squares fitting needs \
       an over-determined system (use Omp/Lars/Star for the underdetermined \
       case)";
  let alpha = Lstsq.solve ?method_ g f in
  Model.dense ~basis_size:(Mat.cols g) alpha

