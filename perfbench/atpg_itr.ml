(* atpg_itr: the paper's application — ITR-guided crosstalk-delay-fault
   ATPG on c880s, one Atpg.generate call per site on one lane, then a
   fault simulation of the generated tests.  Item = op = one fault site
   targeted.  The site list and the search seed are fixed, so every
   round does the same work; the run's seed sets the order in which the
   sites are targeted. *)

open Common
module Sta = Ssd_sta.Sta
module Run_opts = Ssd_sta.Run_opts
module Timing_sim = Ssd_sta.Timing_sim
module Netlist = Ssd_circuit.Netlist
module Decompose = Ssd_circuit.Decompose
module Benchmarks = Ssd_circuit.Benchmarks
module DM = Ssd_core.Delay_model
module Fault = Ssd_atpg.Fault
module Atpg = Ssd_atpg.Atpg
module Fault_sim = Ssd_atpg.Fault_sim
module Value2f = Ssd_itr.Value2f

let circuit = "c880s"
let budget = 100
let search_seed = 1L
let align_window = 120e-12

type inputs = {
  library : Charlib.t;
  nl : Netlist.t;
  clock : float;
  sites : Fault.site array;
}

let build () =
  let library = load_library () in
  let nl = Decompose.to_primitive (Option.get (Benchmarks.by_name circuit)) in
  let sta = Sta.analyze_with Run_opts.default ~library ~model:DM.proposed nl in
  let screened =
    Fault.extract_screened ~count:14 ~align_window ~seed:99L ~library
      ~model:DM.proposed nl
  in
  let blind = Fault.extract ~count:10 ~align_window ~seed:7L nl in
  { library; nl; clock = Sta.max_delay sta; sites = Array.of_list (screened @ blind) }

let config inp =
  { (Atpg.default_config ~clock_period:inp.clock) with
    Atpg.use_itr = true; max_expansions = budget; seed = search_seed }

(* The sites in the order the run targets them. *)
let order ~seed inp =
  let a = Array.copy inp.sites in
  Ssd_util.Rng.shuffle (Ssd_util.Rng.create (Int64.of_int seed)) a;
  { inp with sites = a }

type round_result = {
  results : Atpg.fault_result array;
  vectors : (bool * bool) array list;
  sim : Fault_sim.result;
}

let fault_sim ?tr inp vectors =
  Layers.span tr "fault_sim.simulate_with" (fun () ->
      Fault_sim.simulate_with
        Run_opts.(default |> with_obs (Layers.obs tr))
        ~library:inp.library ~model:DM.proposed ~clock_period:inp.clock inp.nl
        (Array.to_list inp.sites) vectors)

let round ?tr ~cfg inp tally =
  let results =
    Array.map
      (fun site ->
        let r =
          timed_op tally (fun () ->
              Layers.span tr "atpg.generate" (fun () ->
                  Atpg.generate cfg ~library:inp.library ~model:DM.proposed inp.nl site))
        in
        tally.attempted <- tally.attempted + 1;
        tally.items <- tally.items + 1;
        r)
      inp.sites
  in
  let vectors =
    Array.fold_right
      (fun r acc -> match r.Atpg.outcome with Atpg.Detected v -> v :: acc | _ -> acc)
      results []
  in
  { results; vectors; sim = fault_sim ?tr inp vectors }

(* ---------------------------------------------------------------- *)
(* Output checks *)

(* The detection criterion of Atpg, re-derived from two event-driven
   simulations of the vector pair, without and with the victim's extra
   delay: both lines switch the required way within the alignment
   window, and some primary output that meets the clock fault-free is
   pushed out by at least 0.45·δ (the threshold Atpg applies). *)
let confirms inp (site : Fault.site) vector =
  let sim ?extra_delay () =
    Timing_sim.simulate ?extra_delay ~library:inp.library ~model:DM.proposed inp.nl vector
  in
  let ff = sim () in
  let faulty =
    sim ~extra_delay:(fun i -> if i = site.Fault.victim then site.Fault.delta else 0.) ()
  in
  let switches tr i =
    match (tr : Value2f.transition) with
    | Value2f.Rise -> Timing_sim.rising_at ff i
    | Value2f.Fall -> Timing_sim.falling_at ff i
  in
  let a = site.Fault.aggressor and v = site.Fault.victim in
  switches site.Fault.agg_tr a && switches site.Fault.vic_tr v
  && Float.abs (Timing_sim.event_arr ff a -. Timing_sim.event_arr ff v) <= site.Fault.align_window
  && List.exists
       (fun po ->
         Timing_sim.has_event ff po && Timing_sim.has_event faulty po
         && Timing_sim.event_arr ff po <= inp.clock
         && Timing_sim.event_arr faulty po -. Timing_sim.event_arr ff po
            >= 0.45 *. site.Fault.delta)
       (Netlist.outputs inp.nl)

let check_round inp r =
  let n = Array.length inp.sites in
  let d = ref 0 and u = ref 0 and a = ref 0 in
  Array.iteri
    (fun i res ->
      match res.Atpg.outcome with
      | Atpg.Detected vector ->
        incr d;
        check (confirms inp inp.sites.(i) vector) (fun () ->
            Printf.sprintf "site %d (%s): reported detection not confirmed by timing simulation"
              i (Fault.describe inp.nl inp.sites.(i)));
        check (List.exists (fun (f, _) -> f = i) r.sim.Fault_sim.detected) (fun () ->
            Printf.sprintf "site %d: detected by ATPG but missed by Fault_sim" i)
      | Atpg.Undetectable -> incr u
      | Atpg.Aborted -> incr a)
    r.results;
  check (!d + !u + !a = n) (fun () -> "outcomes do not add up to the sites targeted");
  check
    (List.length r.sim.Fault_sim.detected + List.length r.sim.Fault_sim.undetected = n)
    (fun () -> "fault simulation lost sites");
  Printf.printf "atpg_itr: %d sites: %d detected, %d undetectable, %d aborted\n" n !d !u !a

let run ~seed ~seconds ~tr =
  let setup, inp = setup ~reps:25 build in
  let inp = order ~seed inp in
  let cfg = config inp in
  let last = ref None in
  let o =
    Layers.timed_phase ~seconds ~setup tr (fun tr _ t -> last := Some (round ?tr ~cfg inp t))
  in
  check_round inp (Option.get !last);
  o
