(* Per-layer metrics of the traced run: direct timed calls into each
   layer's public function on fixed inputs (independent of the run's
   seed), each reported as a median over repeated calls.  The layers of
   lib/spice and lib/cell emit no spans of their own, so their figures
   come from here alone. *)

open Common
module Sta = Ssd_sta.Sta
module Corner_sta = Ssd_sta.Corner_sta
module Engine = Ssd_sta.Engine
module Run_opts = Ssd_sta.Run_opts
module Timing_sim = Ssd_sta.Timing_sim
module Corners = Ssd_cell.Corners
module Fit = Ssd_cell.Fit
module Netlist = Ssd_circuit.Netlist
module Decompose = Ssd_circuit.Decompose
module Benchmarks = Ssd_circuit.Benchmarks
module DM = Ssd_core.Delay_model
module Vshape = Ssd_core.Vshape
module Types = Ssd_core.Types
module Itr = Ssd_itr.Itr
module Value2f = Ssd_itr.Value2f
module Atpg = Ssd_atpg.Atpg
module Fault_sim = Ssd_atpg.Fault_sim
module Protocol = Ssd_serve.Protocol
module Server = Ssd_serve.Server
module Rng = Ssd_util.Rng

(* Every per-layer metric, in the order BENCHMARK.json lists them. *)
let names =
  [ ("spice.transient_ms", "ms"); ("spice.words_per_transient", "words") ]
  @ List.map (fun c -> ("charlib.cell_s." ^ cell_name c, "s")) spec
  @ [ ("fit.surface_us", "us");
      ("charlib.cache_load_ms", "ms");
      ("generator.build_s", "s");
      ("vshape.pair_delay_ns", "ns");
      ("corner_batch.node_ns_per_plane", "ns");
      ("corners.refit_us", "us");
      ("sta.analyze_ms.narrow.j1", "ms");
      ("sta.analyze_ms.narrow.j2", "ms");
      ("sta.analyze_ms.wide.j1", "ms");
      ("sta.analyze_ms.wide.j2", "ms");
      ("par.speedup.narrow", "ratio");
      ("par.speedup.wide", "ratio");
      ("par.barrier_wait_ms", "ms");
      ("corner_sta.analyze_ms", "ms");
      ("corner_sta.mc_ms_per_sample", "ms");
      ("engine.edit_us", "us");
      ("engine.cone_nodes_per_edit", "count");
      ("engine.cutoff_ratio", "ratio");
      ("engine.reanalyze_ms", "ms");
      ("session.open_ms", "ms");
      ("itr.assign_us", "us");
      ("itr.words_per_assign", "words");
      ("atpg.expansions_per_s", "1/s");
      ("atpg.words_per_expansion", "words");
      ("atpg.resolved_ratio", "ratio");
      ("timing_sim.simulate_us", "us");
      ("fault_sim.simulate_ms", "ms");
      ("fault_sim.resim_ratio", "ratio");
      ("protocol.parse_us", "us");
      ("protocol.render_us", "us");
      ("json.parse_us", "us") ]
  @ List.map (fun k -> ("server.dispatch_us." ^ Serve_eco.kind_name k, "us")) Serve_eco.all_kinds
  @ [ ("obs.disabled_span_ns", "ns"); ("obs.traced_overhead", "ratio") ]

(* ---------------------------------------------------------------- *)
(* Timing helpers *)

(* Median host seconds of [reps] calls. *)
let median_s ~reps f =
  median
    (Array.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         now () -. t0))

(* Median per-call seconds over [batches] batches of [n] calls, for
   calls too short to time one by one. *)
let per_call_s ?(batches = 11) ~n f =
  median_s ~reps:batches (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (f ()))
      done)
  /. float_of_int n

(* Minor words one call allocates (single domain, so exact). *)
let words_per_call ~n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let prim name = Decompose.to_primitive (Option.get (Benchmarks.by_name name))

(* ---------------------------------------------------------------- *)
(* The probes, one per layer *)

let spice () =
  let f () =
    Sweep.pair ~sim_h:profile.Charlib.sim_h tech Sweep.Nand ~n:4 ~fanout:1 ~pos_a:0 ~pos_b:1
      ~t_a:0.5e-9 ~t_b:0.8e-9 ~skew:0.1e-9
  in
  [ metric "spice.transient_ms" "ms" (1e3 *. median_s ~reps:21 f);
    metric "spice.words_per_transient" "words" (words_per_call ~n:3 f) ]

(* One cold characterization per cell into an empty directory, with the
   pass's output checks. *)
let cells () =
  let root = Filename.concat work_dir (Printf.sprintf "probe-%d" (Unix.getpid ())) in
  rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let t = tally () in
  let results = Cold_char.pass ~root spec t in
  Cold_char.check_pass ~rng:(Rng.create 1L) results;
  List.map2
    (fun c s -> metric ("charlib.cell_s." ^ cell_name c) "s" s)
    spec
    (Array.to_list (Samples.to_array t.ops))

let cell_library library =
  let nand2 = Charlib.find library Sweep.Nand 2 in
  let fit () =
    let pc = List.hd nand2.Charlib.pairs in
    let grid = profile.Charlib.pair_grid in
    let samples =
      List.concat_map
        (fun a -> List.map (fun b -> ((a, b), Fit.eval2 pc.Charlib.d0 a b)) grid)
        grid
    in
    let range = nand2.Charlib.t_range in
    per_call_s ~n:200 (fun () -> Fit.fit2_best ~range samples)
  in
  let vshape () =
    let a = { Types.pos = 0; arrival = 0.; t_tr = 0.4e-9 }
    and b = { Types.pos = 1; arrival = 30e-12; t_tr = 0.7e-9 } in
    per_call_s ~n:100_000 (fun () -> Vshape.pair_delay nand2 ~fanout:2 ~a ~b)
  in
  let refit () =
    let table = Corners.build ~specs:(Corners.default_specs 4) library in
    let specs = Array.of_list (Corners.sample_specs ~seed:11L 4) in
    per_call_s ~n:20 (fun () -> Corners.refit table specs)
  in
  [ metric "fit.surface_us" "us" (1e6 *. fit ());
    metric "charlib.cache_load_ms" "ms" (1e3 *. median_s ~reps:11 load_library);
    metric "vshape.pair_delay_ns" "ns" (1e9 *. vshape ());
    metric "corners.refit_us" "us" (1e6 *. refit ()) ]

(* Narrow = c7552s (tens of gates per level), wide = the 100k-gate
   layered circuit of sta_sweep (250 levels of about 400 gates). *)
let sta library =
  let narrow = prim "c7552s" in
  let wide = Sta_sweep.build_wide ~seed:1 () in
  let analyze ?(obs = Obs.disabled) jobs nl () =
    Sta.analyze_with Run_opts.(default |> with_jobs jobs |> with_obs obs)
      ~library ~model:DM.proposed nl
  in
  let n1 = median_s ~reps:11 (analyze 1 narrow) and n2 = median_s ~reps:11 (analyze 2 narrow) in
  let w1 = median_s ~reps:3 (analyze 1 wide) and w2 = median_s ~reps:3 (analyze 2 wide) in
  let obs = Obs.create () in
  ignore (analyze ~obs 2 wide ());
  let barrier =
    List.fold_left
      (fun acc (name, _, total, _) -> if name = "par.barrier_wait" then acc +. total else acc)
      0. (Obs.timers obs)
  in
  let table = Corners.build ~specs:(Corners.default_specs 4) library in
  let corner jobs () =
    Corner_sta.analyze
      ~opts:Run_opts.(default |> with_jobs jobs |> with_corners 4)
      ~table narrow
  in
  let mc_samples = 16 in
  let mc () =
    Corner_sta.monte_carlo ~opts:Run_opts.(default |> with_jobs 2)
      ~samples:mc_samples ~seed:3L ~library narrow
  in
  [ metric "generator.build_s" "s" (median_s ~reps:3 (Sta_sweep.build_wide ~seed:1));
    metric "corner_batch.node_ns_per_plane" "ns"
      (1e9 *. median_s ~reps:11 (corner 1) /. float_of_int (4 * Netlist.gate_count narrow));
    metric "sta.analyze_ms.narrow.j1" "ms" (1e3 *. n1);
    metric "sta.analyze_ms.narrow.j2" "ms" (1e3 *. n2);
    metric "sta.analyze_ms.wide.j1" "ms" (1e3 *. w1);
    metric "sta.analyze_ms.wide.j2" "ms" (1e3 *. w2);
    metric "par.speedup.narrow" "ratio" (n1 /. n2);
    metric "par.speedup.wide" "ratio" (w1 /. w2);
    metric "par.barrier_wait_ms" "ms" (1e3 *. barrier);
    metric "corner_sta.analyze_ms" "ms" (1e3 *. median_s ~reps:11 (corner 2));
    metric "corner_sta.mc_ms_per_sample" "ms"
      (1e3 *. median_s ~reps:5 mc /. float_of_int mc_samples) ]

(* 200 extra-delay edits on c7552s, each reverted, from one session. *)
let engine library =
  let nl = prim "c7552s" in
  Engine.with_engine ~library ~model:DM.proposed nl @@ fun eng ->
  let rng = Rng.create 42L in
  let n = 200 in
  let times =
    Array.init n (fun _ ->
        let line = Rng.int rng (Netlist.size nl) in
        let delta = Rng.float_range rng 20e-12 200e-12 in
        let cp = Engine.checkpoint eng in
        let t0 = now () in
        Engine.apply eng (Engine.Set_extra_delay { line; delta });
        let dt = now () -. t0 in
        Engine.revert eng cp;
        dt)
  in
  let st = Engine.stats eng in
  [ metric "engine.edit_us" "us" (1e6 *. median times);
    metric "engine.cone_nodes_per_edit" "count"
      (float_of_int st.Engine.nodes_recomputed /. float_of_int st.Engine.edits);
    metric "engine.cutoff_ratio" "ratio" (Engine.cutoff_ratio st);
    metric "engine.reanalyze_ms" "ms" (1e3 *. median_s ~reps:11 (fun () -> Engine.reanalyze eng)) ]

(* One PI assignment on c880s from the initial state: the k-th call
   gives PI k a rising transition (even k) or a steady one (odd k), on a
   fresh copy whose cost is measured apart and taken off. *)
let itr library =
  let nl = prim "c880s" in
  let st0 = Itr.create ~library ~model:DM.proposed nl in
  let pis = Array.of_list (Netlist.inputs nl) in
  let k = ref 0 in
  let assign () =
    incr k;
    let v = if !k mod 2 = 0 then Value2f.of_bools false true else Value2f.steady true in
    Itr.assign (Itr.copy st0) pis.(!k mod Array.length pis) v
  in
  let copy () = Itr.copy st0 in
  [ metric "itr.assign_us" "us" (1e6 *. (per_call_s ~n:50 assign -. per_call_s ~n:50 copy));
    metric "itr.words_per_assign" "words"
      (words_per_call ~n:50 assign -. words_per_call ~n:50 copy) ]

(* ATPG on the first 8 sites of atpg_itr's list, and a fault simulation
   of all its sites under 32 random vectors. *)
let atpg () =
  let inp = Atpg_itr.build () in
  let cfg = Atpg_itr.config inp in
  let sites = Array.sub inp.Atpg_itr.sites 0 8 in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let results =
    Array.map (fun s -> Atpg.generate cfg ~library:inp.Atpg_itr.library ~model:DM.proposed inp.Atpg_itr.nl s) sites
  in
  let dt = now () -. t0 and words = Gc.minor_words () -. w0 in
  let expansions = Array.fold_left (fun a r -> a + r.Atpg.expansions) 0 results in
  let resolved =
    Array.fold_left
      (fun a r -> match r.Atpg.outcome with Atpg.Aborted -> a | _ -> a + 1)
      0 results
  in
  let nl = inp.Atpg_itr.nl and library = inp.Atpg_itr.library in
  let vectors = Fault_sim.random_vectors ~seed:5L ~count:32 nl in
  let vec = List.hd vectors in
  let sim ?(obs = Obs.disabled) () =
    Fault_sim.simulate_with Run_opts.(default |> with_obs obs) ~library ~model:DM.proposed
      ~clock_period:inp.Atpg_itr.clock nl (Array.to_list inp.Atpg_itr.sites) vectors
  in
  let obs = Obs.create () in
  ignore (sim ~obs ());
  let count name = Option.value ~default:0 (List.assoc_opt name (Obs.counters obs)) in
  let resim = count "faultsim.resim" in
  let pairs = resim + count "faultsim.screened_out" + count "faultsim.dropped" in
  [ metric "atpg.expansions_per_s" "1/s" (float_of_int expansions /. dt);
    metric "atpg.words_per_expansion" "words" (words /. float_of_int expansions);
    metric "atpg.resolved_ratio" "ratio" (float_of_int resolved /. float_of_int (Array.length sites));
    metric "timing_sim.simulate_us" "us"
      (1e6 *. per_call_s ~n:20 (fun () -> Timing_sim.simulate ~library ~model:DM.proposed nl vec));
    metric "fault_sim.simulate_ms" "ms" (1e3 *. median_s ~reps:5 sim);
    metric "fault_sim.resim_ratio" "ratio" (float_of_int resim /. float_of_int (max 1 pairs)) ]

(* The wire codec on the frames and replies serve_eco exchanges, and
   dispatch per request kind over two rounds of its script. *)
let serve () =
  let frame =
    {|{"v":1,"id":17,"op":"edit","session":"c7552s","edits":[{"op":"extra","signal":"n1234","delta":1.2345678901234567e-10}]}|}
  in
  let reply =
    {|{"v":1,"id":17,"ok":{"po":[1.2345678901234567e-10,3.4567890123456789e-09],"min":1.2345678901234567e-10,"max":3.4567890123456789e-09}}|}
  in
  let reply_json = Result.get_ok (Json.parse reply) in
  let codec =
    [ metric "protocol.parse_us" "us"
        (1e6 *. per_call_s ~n:2000 (fun () -> Protocol.parse_request ~max_bytes:(1 lsl 20) frame));
      metric "protocol.render_us" "us" (1e6 *. per_call_s ~n:2000 (fun () -> Protocol.render reply_json));
      metric "json.parse_us" "us" (1e6 *. per_call_s ~n:2000 (fun () -> Json.parse reply)) ]
  in
  let open_s =
    let _, sv, _ = Serve_eco.open_server () in
    Fun.protect ~finally:(fun () -> Server.close sv) @@ fun () ->
    median_s ~reps:5 (fun () ->
        ignore (Server.dispatch sv {|{"v":1,"id":1,"op":"open","session":"p","circuit":"c7552s"}|});
        ignore (Server.dispatch sv {|{"v":1,"id":2,"op":"close","session":"p"}|}))
  in
  let ((_, sv, ss) as opened) = Serve_eco.open_server () in
  Fun.protect ~finally:(fun () -> Serve_eco.release opened) @@ fun () ->
  let c = Serve_eco.client sv 1 in
  let t = tally () in
  Serve_eco.round c ss t;
  Serve_eco.round c ss t;
  codec
  @ [ metric "session.open_ms" "ms" (1e3 *. open_s) ]
  @ List.map
      (fun (k, s) ->
        metric ("server.dispatch_us." ^ Serve_eco.kind_name k) "us"
          (1e6 *. median (Samples.to_array s)))
      c.Serve_eco.by_kind

let obs_disabled () =
  let tm = Obs.timer Obs.disabled "probe" in
  [ metric "obs.disabled_span_ns" "ns"
      (1e9 *. per_call_s ~n:1_000_000 (fun () -> Obs.span Obs.disabled tm Fun.id)) ]

(* Every per-layer metric in the order of [names]: [have] holds the one
   the workload's traced run measured itself (its tracing overhead). *)
let run ~have =
  let library = load_library () in
  let groups =
    [ spice; cells;
      (fun () -> cell_library library); (fun () -> sta library); (fun () -> engine library);
      (fun () -> itr library); atpg; serve; obs_disabled ]
  in
  let measured = have @ List.concat_map (fun g -> g ()) groups in
  List.map
    (fun (name, _) ->
      match List.find_opt (fun m -> m.name = name) measured with
      | Some m -> m
      | None -> failwith ("per-layer metric not measured: " ^ name))
    names
