module Provider = Polybasis.Design.Provider

type sweep = Exact

let sweep_to_string Exact = "exact"

let gram_tr ?pool src r = Provider.gram_tr ?pool src r

let argmax_abs ?pool ~skip src r = Provider.argmax_abs ?pool ~skip src r

let gram_tr_multi ?pool src ~rows rs = Provider.gram_tr_multi ?pool src ~rows rs

let argmax_abs_multi ?pool ~skips src ~rows rs =
  Provider.argmax_abs_multi ?pool ~skips src ~rows rs
