module Provider = Polybasis.Design.Provider

type sweep = Exact

let sweep_to_string Exact = "exact"

let argmax_abs ?pool ~skip src r = Provider.argmax_abs ?pool ~skip src r

let gram_tr_multi ?pool src ~rows rs = Provider.gram_tr_multi ?pool src ~rows rs
