(* sta_sweep: full timing walks — nominal Sta.analyze_with, 4-corner
   Corner_sta.analyze and a small Corner_sta.monte_carlo — over the
   narrow-level ISCAS-style circuits and one wide 100k-gate layered
   circuit.  Item = one gate evaluated on one timing plane; op = one
   analysis call. *)

open Common
module Sta = Ssd_sta.Sta
module Corner_sta = Ssd_sta.Corner_sta
module Run_opts = Ssd_sta.Run_opts
module Windows = Ssd_sta.Windows
module Timing_sim = Ssd_sta.Timing_sim
module Corners = Ssd_cell.Corners
module Netlist = Ssd_circuit.Netlist
module Generator = Ssd_circuit.Generator
module Decompose = Ssd_circuit.Decompose
module Benchmarks = Ssd_circuit.Benchmarks
module DM = Ssd_core.Delay_model
module Types = Ssd_core.Types
module Interval = Ssd_util.Interval
module Rng = Ssd_util.Rng

let narrow_names = [ "c880s"; "c1355s"; "c1908s"; "c3540s"; "c7552s" ]
let wide_gates = 100_000
let corners = 4
let mc_samples = 4

(* Lanes of the timed analyses.  At 2 lanes the narrow circuits' cost
   moved between runs with the host (c7552s: 15 to 27 ms), reordering the
   op mix around its median; at 1 lane the three kinds of one circuit
   cost within 8 % of each other.  The 2-lane figures are per-layer
   metrics, and every run checks 2 lanes against 1 bit for bit. *)
let jobs = 1
let check_jobs = 2

type inputs = {
  library : Charlib.t;
  narrow : Netlist.t list;
  wide : Netlist.t;
  table : Corners.table;
}

let wide_params ~seed =
  {
    Generator.default_params with
    Generator.g_name = "layered100k";
    n_inputs = 256;
    n_outputs = 128;
    n_gates = wide_gates;
    locality = 1024;
    seed = Int64.of_int (1000 + seed);
    shape = Generator.Layered { layers = wide_gates / 400 };
  }

let build_wide ~seed () = Decompose.to_primitive (Generator.generate (wide_params ~seed))

let build ~seed () =
  let library = load_library () in
  let narrow =
    List.map
      (fun n -> Decompose.to_primitive (Option.get (Benchmarks.by_name n)))
      narrow_names
  in
  let wide = build_wide ~seed () in
  let table = Corners.build ~specs:(Corners.default_specs corners) library in
  { library; narrow; wide; table }

(* ---------------------------------------------------------------- *)
(* The op mix *)

type kind = Nominal | Corner | Mc

let kind_name = function Nominal -> "nominal" | Corner -> "corners" | Mc -> "mc"

let planes = function Nominal -> 1 | Corner -> corners | Mc -> mc_samples

let ops_of nl = [ (nl, Nominal); (nl, Corner); (nl, Mc) ]

(* Per round: every narrow circuit [narrow_reps] times through each
   kind, and the wide circuit once through each kind — 43 % and 57 % of
   a round.  With 153 ops a round, the median falls inside the c1908s
   block and the 99th percentile inside the wide Monte-Carlo calls. *)
let narrow_reps = 10

let round_ops inp =
  List.concat_map (fun nl -> List.concat (List.init narrow_reps (fun _ -> ops_of nl))) inp.narrow
  @ ops_of inp.wide

(* The last timed result of every (circuit, kind), kept for the checks. *)
type result = R_sta of Sta.t | R_corner of Corner_sta.t | R_mc of Corner_sta.mc_result

let exec ?tr ~jobs ~seed inp (nl, kind) =
  let o = Run_opts.(default |> with_jobs jobs |> with_obs (Layers.obs tr)) in
  match kind with
  | Nominal ->
    Layers.span tr "sta.analyze_with" (fun () ->
        R_sta (Sta.analyze_with o ~library:inp.library ~model:DM.proposed nl))
  | Corner ->
    Layers.span tr "corner_sta.analyze" (fun () ->
        R_corner
          (Corner_sta.analyze ~opts:(Run_opts.with_corners corners o) ~table:inp.table nl))
  | Mc ->
    Layers.span tr "corner_sta.monte_carlo" (fun () ->
        R_mc
          (Corner_sta.monte_carlo ~opts:o ~samples:mc_samples
             ~seed:(Int64.of_int seed) ~library:inp.library nl))

let round ?tr ~seed ~last inp tally =
  List.iter
    (fun ((nl, kind) as op) ->
      let r = timed_op tally (fun () -> exec ?tr ~jobs ~seed inp op) in
      Hashtbl.replace last (Netlist.name nl, kind) r;
      tally.attempted <- tally.attempted + 1;
      tally.items <- tally.items + (Netlist.gate_count nl * planes kind))
    (round_ops inp)

(* ---------------------------------------------------------------- *)
(* Output checks *)

let same_mc (a : Corner_sta.mc_result) (b : Corner_sta.mc_result) =
  Array.for_all2 (Array.for_all2 bits_equal) a.Corner_sta.mc_delays b.Corner_sta.mc_delays
  && Array.for_all2 bits_equal a.Corner_sta.mc_max b.Corner_sta.mc_max

(* Lanes must not change a bit: re-run every timed op at [check_jobs]. *)
let check_lanes ~seed ~last inp =
  List.iter
    (fun ((nl, kind) as op) ->
      let name = Netlist.name nl in
      let same =
        match (Hashtbl.find last (name, kind), exec ~jobs:check_jobs ~seed inp op) with
        | R_sta a, R_sta b -> Windows.plane_eq (Sta.windows a) ~plane:0 (Sta.windows b) ~plane:0
        | R_corner a, R_corner b ->
          List.for_all
            (fun c -> Windows.plane_eq (Corner_sta.windows a) ~plane:c (Corner_sta.windows b) ~plane:c)
            (List.init corners Fun.id)
        | R_mc a, R_mc b -> same_mc a b
        | _ -> false
      in
      check same (fun () ->
          Printf.sprintf "%s %s: %d lanes differ from %d" name (kind_name kind) check_jobs jobs))
    (List.concat_map ops_of (inp.narrow @ [ inp.wide ]))

(* Slack of the containment check, the repository's own calibration
   (test/test_engine.ml): the simulator merges events in another order
   than the STA folds window bounds, so an event may sit a few ulps of
   accumulated rounding outside its window. *)
let contains (w : Interval.t) v =
  let slack = 1e-13 +. (5e-3 *. (Interval.hi w -. Interval.lo w)) in
  Interval.lo w -. slack <= v && v <= Interval.hi w +. slack

let vectors_per_circuit = 6

(* Every event of a random-vector timing simulation lies inside its
   line's direction-specific STA window (default PI spec: arrival 0,
   transition 0.15–0.5 ns, which holds the simulator's 0.25 ns). *)
let check_tsim ~rng ~last inp =
  List.iter
    (fun nl ->
      let name = Netlist.name nl in
      match Hashtbl.find last (name, Nominal) with
      | R_sta sta ->
        let npi = Netlist.pi_count nl in
        for _ = 1 to vectors_per_circuit do
          let vec = Array.init npi (fun _ -> (Rng.bool rng, Rng.bool rng)) in
          let lines = Timing_sim.simulate ~library:inp.library ~model:DM.proposed nl vec in
          for i = 0 to Netlist.size nl - 1 do
            match Timing_sim.event lines i with
            | None -> ()
            | Some e ->
              let lt = Sta.timing sta i in
              let w = if Timing_sim.v1 lines i then lt.Sta.fall else lt.Sta.rise in
              check
                (contains w.Types.w_arr e.Types.e_arr && contains w.Types.w_tt e.Types.e_tt)
                (fun () ->
                  Printf.sprintf "%s line %s: event (%g, %g) outside its STA window" name
                    (Netlist.signal_name nl i) e.Types.e_arr e.Types.e_tt)
          done
        done
      | _ -> check false (fun () -> name ^ ": no nominal result"))
    inp.narrow

(* Monte-Carlo samples against a scalar analysis of the derated library,
   and every corner plane against a scalar analysis of its corner. *)
let check_scalar ~last inp =
  let scalar lib nl = Sta.analyze_with Run_opts.default ~library:lib ~model:DM.proposed nl in
  List.iter
    (fun nl ->
      let name = Netlist.name nl in
      (match Hashtbl.find last (name, Mc) with
      | R_mc r ->
        Array.iteri
          (fun s spec ->
            let sta = scalar (Corners.derate_library spec inp.library) nl in
            Array.iteri
              (fun k po ->
                let lt = Sta.timing sta po in
                let d =
                  Float.max (Interval.hi lt.Sta.rise.Types.w_arr)
                    (Interval.hi lt.Sta.fall.Types.w_arr)
                in
                check (bits_equal d r.Corner_sta.mc_delays.(k).(s)) (fun () ->
                    Printf.sprintf "%s mc sample %d PO %s: %g vs scalar %g" name s
                      (Netlist.signal_name nl po) r.Corner_sta.mc_delays.(k).(s) d))
              r.Corner_sta.mc_pos)
          r.Corner_sta.mc_specs
      | _ -> check false (fun () -> name ^ ": no mc result"));
      match Hashtbl.find last (name, Corner) with
      | R_corner ct ->
        for c = 0 to corners - 1 do
          check
            (Corner_sta.plane_matches ct ~corner:c (scalar (Corners.library inp.table c) nl))
            (fun () -> Printf.sprintf "%s corner %d differs from its scalar analysis" name c)
        done
      | _ -> check false (fun () -> name ^ ": no corner result"))
    inp.narrow

let run ~seed ~seconds ~tr =
  (* all repetitions up front: a 100k-gate rebuild between rounds would
     lift the heap top of the timed phase by half *)
  let setup, inp = setup ~reps:5 ~spread:false (build ~seed) in
  let last = Hashtbl.create 32 in
  let o =
    Layers.timed_phase ~seconds ~setup tr (fun tr _ t -> round ?tr ~seed ~last inp t)
  in
  check_lanes ~seed ~last inp;
  check_tsim ~rng:(Rng.create (Int64.of_int seed)) ~last inp;
  check_scalar ~last inp;
  o
