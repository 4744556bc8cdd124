(* cold_char: the cold start — characterization from nothing through
   Charlib.load_or_characterize, each cell into its own empty private
   cache directory under .perfbench/ (never $HOME/.cache): the SPICE
   sweep, fit and save a user meets on a first run.  Item = op = one
   cell characterized.

   A round characterizes the cells that take under a second each: INV,
   NAND2 and NOR2, in an order drawn from the run's seed.  The three-
   and four-input cells take 3–10 s each, so a run could hold only one
   pass of the whole library and its op median would be the time of a
   single cell; every traced run makes that whole pass instead, for the
   per-cell figures (see Probes). *)

open Common
module Fit = Ssd_cell.Fit
module Vshape = Ssd_core.Vshape
module Types = Ssd_core.Types
module Rng = Ssd_util.Rng

let round_cells = [ (Sweep.Nand, 1); (Sweep.Nand, 2); (Sweep.Nor, 2) ]

let held_out_per_cell = 4

(* Tolerance of the V-shape model against a fresh transient at a
   held-out point: |model − spice| <= rel·spice + abs.  See README. *)
let held_out_rel = 0.30
let held_out_abs = 5e-12

(* A private cache directory per cell under [root]: a path that holds
   nothing yet, which Charlib.load_or_characterize creates when it saves
   the cell (inside the op, as on a user's first run). *)
let fresh_dirs root cells =
  List.map
    (fun c ->
      let d = Filename.concat root (cell_name c) in
      if Sys.file_exists d then invalid_arg ("Cold_char.fresh_dirs: " ^ d ^ " exists");
      d)
    cells

(* Characterize [cells], each into its own empty directory under [root]
   (chosen off the round's clock; [root] must not exist yet). *)
let pass ?tr ~root cells tally =
  let dirs = off_clock tally (fun () -> fresh_dirs root cells) in
  List.map2
    (fun c dir ->
      let lib =
        timed_op tally (fun () ->
            Layers.span tr "charlib.load_or_characterize" (fun () ->
                Charlib.load_or_characterize ~cache_dir:dir profile tech [ c ]))
      in
      tally.attempted <- tally.attempted + 1;
      tally.items <- tally.items + 1;
      (c, dir, lib))
    cells dirs

(* ---------------------------------------------------------------- *)
(* Output checks *)

let check_shape (cell : Charlib.cell) name =
  List.iter
    (fun (pc : Charlib.pair_char) ->
      List.iter
        (fun t ->
          let d0 = Fit.eval2 pc.Charlib.d0 t t in
          let da = Fit.eval1 cell.Charlib.to_ctl.(pc.Charlib.pos_a).Charlib.delay t in
          let db = Fit.eval1 cell.Charlib.to_ctl.(pc.Charlib.pos_b).Charlib.delay t in
          check (d0 <= da && d0 <= db) (fun () ->
              Printf.sprintf "%s pair (%d,%d) T=%g: D0R %g above a pin delay (%g, %g)"
                name pc.Charlib.pos_a pc.Charlib.pos_b t d0 da db);
          List.iter
            (fun t' ->
              let sr = Fit.eval2 pc.Charlib.sr t t' in
              let syr = Fit.eval2 pc.Charlib.syr t t' in
              check (sr > 0. && Float.abs syr > 0.) (fun () ->
                  Printf.sprintf "%s pair (%d,%d) (%g,%g): SR %g, |SYR| %g not positive"
                    name pc.Charlib.pos_a pc.Charlib.pos_b t t' sr syr))
            profile.Charlib.pair_grid)
        profile.Charlib.pair_grid)
    cell.Charlib.pairs

(* (relative, absolute) error of every held-out point checked so far *)
let errors = ref []

(* Held-out (T_a, T_b, skew) points, drawn from [rng] inside the range
   the pair surfaces were fitted on, compared against fresh Sweep.pair
   transients. *)
let check_held_out ?(points = held_out_per_cell) ~rng ((kind, n) as c) (cell : Charlib.cell) =
  let pairs = Array.of_list cell.Charlib.pairs in
  if Array.length pairs > 0 then
    for _ = 1 to points do
      let pc = Rng.pick rng pairs in
      let lo, hi = pc.Charlib.d0.Fit.range2 in
      let t_a = Rng.float_range rng lo hi and t_b = Rng.float_range rng lo hi in
      let skew = Rng.float_range rng (-1e-9) 1e-9 in
      let pos_a = pc.Charlib.pos_a and pos_b = pc.Charlib.pos_b in
      let sim =
        (Sweep.pair ~sim_h:profile.Charlib.sim_h tech kind ~n
           ~fanout:cell.Charlib.ref_fanout ~pos_a ~pos_b ~t_a ~t_b ~skew)
          .Sweep.m_delay
      in
      let model =
        Vshape.pair_delay cell ~fanout:cell.Charlib.ref_fanout
          ~a:{ Types.pos = pos_a; arrival = 0.; t_tr = t_a }
          ~b:{ Types.pos = pos_b; arrival = skew; t_tr = t_b }
      in
      let err = Float.abs (model -. sim) in
      errors := (err /. sim, err) :: !errors;
      check (err <= (held_out_rel *. sim) +. held_out_abs) (fun () ->
          Printf.sprintf
            "%s pair (%d,%d) T_a=%.3g T_b=%.3g skew=%.3g: model %.4g vs spice %.4g"
            (cell_name c) pos_a pos_b t_a t_b skew model sim)
    done

let check_pass ~rng results =
  List.iter
    (fun (c, dir, (lib : Charlib.t)) ->
      let name = cell_name c in
      match lib.Charlib.cells with
      | [ cell ] ->
        check_shape cell name;
        check_held_out ~rng c cell;
        (* the saved cache must load back coefficient for coefficient *)
        let t0 = now () in
        let back = Charlib.load_or_characterize ~cache_dir:dir profile tech [ c ] in
        check (now () -. t0 < 1.) (fun () -> name ^ ": cache was not reused");
        check (compare back lib = 0) (fun () -> name ^ ": cache loads back different")
      | cells ->
        check false (fun () ->
            Printf.sprintf "%s: %d cells characterized" name (List.length cells)))
    results;
  Printf.printf "cold_char: worst held-out V-shape error %.1f %% of SPICE\n"
    (100. *. List.fold_left (fun m (rel, _) -> Float.max m rel) 0. !errors)

(* The error distribution behind the held-out tolerance:
   bench.exe --held-out-errors N draws N fresh points per cell against
   the cached library, which a cold pass reproduces bit for bit. *)
let held_out_errors n =
  let lib = load_library () in
  let rng = Rng.create 1L in
  List.iter
    (fun c ->
      match c with
      | Sweep.Nand, 1 -> ()
      | (kind, n') -> check_held_out ~points:n ~rng c (Charlib.find lib kind n'))
    spec;
  let rel = Array.of_list (List.map fst !errors) and abs = Array.of_list (List.map snd !errors) in
  Printf.printf "%d points: relative error p50 %.1f %%, p90 %.1f %%, p99 %.1f %%, max %.1f %%; absolute max %.1f ps\n"
    (Array.length rel) (100. *. median rel) (100. *. quantile 0.9 rel)
    (100. *. quantile 0.99 rel) (100. *. quantile 1. rel)
    (1e12 *. quantile 1. abs);
  List.iter prerr_endline (List.rev !failures)

(* ---------------------------------------------------------------- *)
(* The workload *)

let run ~seed ~seconds ~tr =
  let root = Filename.concat work_dir (Printf.sprintf "cold-%d" (Unix.getpid ())) in
  (* Set-up: choosing the private cache directories of a cold start.
     Every one is a fresh path, created by the program inside the op,
     and nothing is removed before the run ends: on this file system
     removing a tree and creating it anew took 190–370 µs, and the
     times of creations made between removals crept up from run to run
     (0.2–0.7 ms a tree over five runs).  The repetitions are spread over
     the run, in batches of 1000.  They allocate next to nothing, so
     they need no collection first, and a collection before each of them
     moved the rounds' heap top: 9–18 MB over runs of one seed with it,
     3.5–3.8 MB over 20 seeds without. *)
  rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let fresh = ref 0 in
  let setup, _ =
    setup ~reps:30 ~batch:1000 ~collect:false (fun () ->
        incr fresh;
        fresh_dirs (Filename.concat root (Printf.sprintf "setup-%d" !fresh)) round_cells)
  in
  let cells = Array.of_list round_cells in
  Rng.shuffle (Rng.create (Int64.of_int seed)) cells;
  let cells = Array.to_list cells in
  let first = ref [] and last = ref [] in
  let o =
    Layers.timed_phase ~seconds ~setup tr (fun tr i t ->
        (* a cold start is a fresh process: every round starts from a
           collected heap *)
        off_clock t Gc.full_major;
        last := pass ?tr ~root:(Filename.concat root (Printf.sprintf "round-%d" i)) cells t;
        if !first = [] then first := List.map (fun (_, _, lib) -> lib) !last)
  in
  check_pass ~rng:(Rng.create (Int64.of_int seed)) !last;
  List.iter2
    (fun (c, _, lib) lib0 ->
      check (compare lib lib0 = 0) (fun () ->
          cell_name c ^ ": the last round characterized a different cell than the first"))
    !last !first;
  o
