open Linalg

(* Transistor roles inside a 6-T cell. *)
let cell_transistors = 6
let t_access = 0 (* pass gate on the read bitline *)
let t_pulldown = 1 (* driver of the read side *)
(* transistors 2..5: the other pass gate / driver and the two PMOS loads;
   they matter for stability, not for read delay, so they carry variables
   that should end up with near-zero model coefficients. *)

(* Peripheral transistor blocks appended after the cell array. *)
let n_sense = 6
let n_replica_inv = 6
let n_wl_driver = 4
let n_out_buffer = 4
let n_peripheral = n_sense + n_replica_inv + n_wl_driver + n_out_buffer

let paper_cells = 1180

type t = { process : Process.t; cells : int }

let build ?(cells = paper_cells) () =
  if cells < 10 then invalid_arg "Sram.build: need at least 10 cells";
  let spec =
    {
      Process.default_spec with
      n_global = 10;
      global_corr = 0.5;
      n_devices = (cells * cell_transistors) + n_peripheral;
      mismatch_vars_per_device = 3;
      n_parasitics = 0;
      (* SRAM cells are minimum-size: mismatch dominates inter-die. *)
      vth_sigma_global = 0.010;
      vth_sigma_local = 0.018;
      beta_sigma_rel = 0.02;
    }
  in
  { process = Process.build spec; cells }

let dim s = Process.dim s.process

let process s = s.process

let accessed_cell = 0

(* Three replica cells: the developed bitline differential at sense time
   is trip/3 ≈ 133 mV — a few sigma above the sense-amp offset, as a
   real self-timed design would size it. *)
let replica_cells = Array.init 3 (fun i -> i + 1)

(* Device index helpers. *)
let cell_device s c t =
  if c < 0 || c >= s.cells then invalid_arg "Sram: cell out of range";
  (c * cell_transistors) + t

let peripheral_device s i = (s.cells * cell_transistors) + i

let sense_device s i = peripheral_device s i
let replica_inv_device s i = peripheral_device s (n_sense + i)
let wl_driver_device s i = peripheral_device s (n_sense + n_replica_inv + i)
let out_buffer_device s i =
  peripheral_device s (n_sense + n_replica_inv + n_wl_driver + i)

(* Electrical constants. *)
let vdd = 1.0
let c_bitline = 120e-15 (* F *)
let c_wordline = 200e-15
let c_out = 40e-15
let dv_sense_nom = 0.12 (* bitline differential needed at sense time, V *)
let cell_w = 1.0 (* minimum-size cells *)
let periph_w = 4.0

let shift s dy d ~area = Process.device_shift s.process dy ~device:d ~area_factor:area

(* Effective discharge current of one cell: access and pull-down in
   series, each square-law; combine through the series conductance of
   the two overdrives. *)
let cell_current s dy c =
  let sa = shift s dy (cell_device s c t_access) ~area:cell_w in
  let sp = shift s dy (cell_device s c t_pulldown) ~area:cell_w in
  let beta0 = 0.4e-3 in
  let vth0 = 0.38 in
  let i_of sh =
    let vov = vdd -. (vth0 +. sh.Process.dvth) in
    if vov <= 0.05 then 0.05 (* clip: cell barely conducts *)
    else
      0.5 *. beta0
      *. (1. +. sh.Process.dbeta_rel)
      *. (1. -. sh.Process.dlen_rel)
      *. vov *. vov
  in
  let ia = i_of sa and ip = i_of sp in
  ia *. ip /. (ia +. ip)

(* Aggregate bitline leakage of the unaccessed cells: each contributes a
   tiny exponential-ish V_TH-dependent term. Linearized per cell and
   weighted ~1e-5 so the sum perturbs the delay by ≲0.3% — the near-zero
   coefficient background of Fig. 6. *)
let bitline_leakage s dy =
  let acc = ref 0. in
  for c = 0 to s.cells - 1 do
    if c <> accessed_cell then begin
      let sh = shift s dy (cell_device s c t_access) ~area:cell_w in
      (* Sub-threshold slope ~ exp(−ΔVth/nVt); keep the linear term. *)
      acc := !acc +. (1. -. (sh.Process.dvth /. 0.04))
    end
  done;
  1e-9 *. !acc (* amperes of total leakage, ~1 nA/cell nominal *)

(* Inverter-chain style delay for peripheral blocks: C·V / I_drive with
   each stage's current from its own device shifts. *)
let stage_delay s dy d ~c_load ~beta0 ~vth0 ~area =
  let sh = shift s dy d ~area in
  let vov = vdd -. (vth0 +. sh.Process.dvth) in
  let vov = Float.max vov 0.1 in
  let i =
    0.5 *. beta0
    *. (1. +. sh.Process.dbeta_rel)
    *. (1. -. sh.Process.dlen_rel)
    *. vov *. vov
  in
  c_load *. vdd /. i

let wl_driver_delay s dy =
  let acc = ref 0. in
  for i = 0 to n_wl_driver - 1 do
    acc :=
      !acc
      +. stage_delay s dy (wl_driver_device s i)
           ~c_load:(c_wordline /. float_of_int n_wl_driver)
           ~beta0:4e-3 ~vth0:0.35 ~area:periph_w
  done;
  !acc

let out_buffer_delay s dy =
  let acc = ref 0. in
  for i = 0 to n_out_buffer - 1 do
    acc :=
      !acc
      +. stage_delay s dy (out_buffer_device s i)
           ~c_load:(c_out /. float_of_int n_out_buffer)
           ~beta0:4e-3 ~vth0:0.35 ~area:periph_w
  done;
  !acc

(* Replica timer: a column of replica cells discharging a replica
   bitline, buffered by an inverter chain. Averaging over the replica
   cells makes each individual replica variable weaker than the accessed
   cell's but collectively significant — the self-timing loop of
   Fig. 5. *)
let replica_delay s dy =
  let i_rep =
    Array.fold_left (fun acc c -> acc +. cell_current s dy c) 0. replica_cells
  in
  (* Replica bitline (same capacitance as the real one) pulled down in
     parallel by all replica cells until the 0.4 V trip point. *)
  let t_discharge = c_bitline *. 0.4 /. i_rep in
  let t_inv = ref 0. in
  for i = 0 to n_replica_inv - 1 do
    t_inv :=
      !t_inv
      +. stage_delay s dy (replica_inv_device s i) ~c_load:10e-15 ~beta0:2e-3
           ~vth0:0.35 ~area:periph_w
  done;
  t_discharge +. !t_inv

(* Sense-amp input offset from its input-pair and load mismatch. *)
let sense_offset s dy =
  let s0 = shift s dy (sense_device s 0) ~area:8.0 in
  let s1 = shift s dy (sense_device s 1) ~area:8.0 in
  let s2 = shift s dy (sense_device s 2) ~area:8.0 in
  let s3 = shift s dy (sense_device s 3) ~area:8.0 in
  (s0.Process.dvth -. s1.Process.dvth)
  +. (0.4 *. (s2.Process.dvth -. s3.Process.dvth))
  +. (0.06 *. (s0.Process.dbeta_rel -. s1.Process.dbeta_rel))

(* Sense-amp regeneration time constant from its cross-coupled pair. *)
let sense_tau s dy =
  let s4 = shift s dy (sense_device s 4) ~area:8.0 in
  let s5 = shift s dy (sense_device s 5) ~area:8.0 in
  let gm_rel =
    1. +. (0.5 *. (s4.Process.dbeta_rel +. s5.Process.dbeta_rel))
    -. ((s4.Process.dvth +. s5.Process.dvth) /. (2. *. 0.25))
  in
  25e-12 /. Float.max gm_rel 0.2

let read_delay_ps s dy =
  if Array.length dy <> dim s then
    invalid_arg "Sram.read_delay_ps: factor vector dimension mismatch";
  let t_wl = wl_driver_delay s dy in
  let t_rep = replica_delay s dy in
  (* Bitline differential developed while the replica timer runs. *)
  let i_cell = cell_current s dy accessed_cell -. bitline_leakage s dy in
  let i_cell = Float.max i_cell 1e-6 in
  (* Differential cannot exceed the bitline swing. *)
  let dv = Float.min (i_cell *. t_rep /. c_bitline) (0.45 *. vdd) in
  (* Sense amp resolves a differential reduced by its offset; the
     regeneration time grows logarithmically as the usable differential
     shrinks. *)
  let usable = Float.max (dv -. sense_offset s dy) (0.05 *. dv_sense_nom) in
  let t_sense = sense_tau s dy *. log (1. +. (vdd /. usable)) in
  let t_buf = out_buffer_delay s dy in
  (t_wl +. t_rep +. t_sense +. t_buf) *. 1e12

let nominal_delay_ps s = read_delay_ps s (Vec.create (dim s))

(* Table IV accounting: 29130 s / 1000 samples. *)
let seconds_per_sample = 29.13

let simulator s =
  Simulator.make ~name:"sram/read_delay" ~dim:(dim s) ~seconds_per_sample
    (fun dy -> read_delay_ps s dy)

let important_factors s =
  let p = s.process in
  let ids = ref [] in
  let add d =
    for w = 0 to 2 do
      ids := Process.mismatch_factor_index p ~device:d ~which:w :: !ids
    done
  in
  (* Globals. *)
  for gidx = 0 to Process.n_global_factors p - 1 do
    ids := gidx :: !ids
  done;
  (* Accessed cell read transistors. *)
  add (cell_device s accessed_cell t_access);
  add (cell_device s accessed_cell t_pulldown);
  (* Replica column: its cells set the self-timing window. *)
  Array.iter
    (fun c ->
      add (cell_device s c t_access);
      add (cell_device s c t_pulldown))
    replica_cells;
  for i = 0 to n_replica_inv - 1 do
    add (replica_inv_device s i)
  done;
  (* Sense amp. *)
  for i = 0 to n_sense - 1 do
    add (sense_device s i)
  done;
  (* Drivers and buffers. *)
  for i = 0 to n_wl_driver - 1 do
    add (wl_driver_device s i)
  done;
  for i = 0 to n_out_buffer - 1 do
    add (out_buffer_device s i)
  done;
  let arr = Array.of_list !ids in
  Array.sort compare arr;
  arr
