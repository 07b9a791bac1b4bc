type t =
  | Invalid_input of string
  | Config of string
  | Simulation of string
  | Numerical of string
  | Io of string
  | Internal of string

let to_string = function
  | Invalid_input m -> "invalid input: " ^ m
  | Config m -> "config: " ^ m
  | Simulation m -> "simulation: " ^ m
  | Numerical m -> "numerical: " ^ m
  | Io m -> "i/o: " ^ m
  | Internal m -> "internal error (please report): " ^ m

let of_exn = function
  | Invalid_argument m | Failure m -> Invalid_input m
  | Sys_error m -> Io m
  | Linalg.Cholesky.Not_positive_definite i ->
      Numerical
        (Printf.sprintf "Gram matrix not positive definite (pivot %d)" i)
  | Linalg.Tri.Singular i ->
      Numerical (Printf.sprintf "singular triangular system (row %d)" i)
  | e -> Internal (Printexc.to_string e)

let guard f =
  match f () with
  | v -> Ok v
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e -> Error (of_exn e)
