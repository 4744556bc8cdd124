(* Benchmark entry point: bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints human-readable progress, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}.  --selftest checks the
   order statistics and the metric names against BENCHMARK.json. *)

open Common

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 | --selftest"

let run_workload name ~seed ~seconds ~tr =
  match name with
  | "cold_char" -> Cold_char.run ~seed ~seconds ~tr
  | "sta_sweep" -> Sta_sweep.run ~seed ~seconds ~tr
  | "atpg_itr" -> Atpg_itr.run ~seed ~seconds ~tr
  | "serve_eco" -> Serve_eco.run ~seed ~seconds ~tr
  | w -> failwith ("unknown workload " ^ w)

let result_json ~correct (o : outcome) =
  Json.Obj
    [ ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] ))
             o.metrics) ) ]

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let selftest = ref false and held_out = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--selftest", Arg.Set selftest, " check statistics and metric names");
      ("--held-out-errors", Arg.Set_int held_out, "N V-shape error over N held-out points per cell") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !selftest then exit (Selftest.run ())
  else if !held_out > 0 then Cold_char.held_out_errors !held_out
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline usage;
      exit 2
    end;
    ensure_library ();
    let tr = if !trace = 1 then Some (Layers.create ()) else None in
    let o = run_workload !workload ~seed:!seed ~seconds:!seconds ~tr in
    (* a traced run reports every per-layer metric: the workload gives
       its tracing overhead, direct calls give the rest *)
    let o = if tr = None then o else { o with metrics = Probes.run ~have:o.metrics } in
    List.iter (fun m -> Printf.printf "  %-40s %14.6g %s\n" m.name m.value m.unit_) o.metrics;
    Printf.printf "%d checks, %d failed; %d ops attempted, %d failed\n" !checks
      (List.length !failures) o.attempted o.failed;
    List.iter (fun f -> prerr_endline ("CHECK FAILED: " ^ f)) (List.rev !failures);
    print_endline (Json.to_string (result_json ~correct:(!failures = []) o))
  end

let () = main ()
