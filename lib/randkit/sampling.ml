let fold_assignment g ~n ~folds =
  if folds < 2 then invalid_arg "Sampling.fold_assignment: need at least 2 folds";
  if folds > n then invalid_arg "Sampling.fold_assignment: more folds than points";
  (* Balanced ids 0,1,...,Q-1,0,1,... then a random permutation of slots. *)
  let ids = Array.init n (fun i -> i mod folds) in
  Prng.shuffle g ids;
  ids

let fold_split assignment q =
  let n = Array.length assignment in
  let held = ref [] and train = ref [] in
  for i = n - 1 downto 0 do
    if assignment.(i) = q then held := i :: !held else train := i :: !train
  done;
  (Array.of_list !train, Array.of_list !held)

let subsample g idx k =
  let n = Array.length idx in
  if k > n then invalid_arg "Sampling.subsample: sample larger than population";
  let a = Array.copy idx in
  (* Partial Fisher–Yates: after k swaps the prefix is a uniform sample. *)
  for i = 0 to k - 1 do
    let j = i + Prng.int g (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k
