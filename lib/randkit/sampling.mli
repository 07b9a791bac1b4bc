(** Sampling plans: fold assignment and subsets.

    These are the bookkeeping primitives under the paper's methodology:
    the Q-fold partition of Fig. 2. Assignments are index-based so the
    (possibly huge) design matrices are never copied per fold. *)

val fold_assignment : Prng.t -> n:int -> folds:int -> int array
(** [fold_assignment g ~n ~folds] assigns each of [0..n-1] a fold id in
    [0..folds-1], balanced to within one element, randomly permuted.
    @raise Invalid_argument if [folds < 2] or [folds > n]. *)

val fold_split : int array -> int -> int array * int array
(** [fold_split assignment q] is [(train_idx, held_out_idx)] for fold
    [q]: indices whose assignment differs from / equals [q]. *)

val subsample : Prng.t -> int array -> int -> int array
(** [subsample g idx k] draws [k] distinct elements of [idx] uniformly
    (partial Fisher–Yates).
    @raise Invalid_argument if [k > Array.length idx]. *)
