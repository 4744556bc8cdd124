(* Self-test: the order statistics the benchmark reports with
   (Ssd_util.Stats.quantile) on known inputs, values cross-checked
   against numpy.percentile, and the metric names the benchmark prints
   against BENCHMARK.json. *)

let fails = ref 0

let expect name got want =
  if Float.abs (got -. want) > 1e-12 *. Float.max 1. (Float.abs want) then begin
    incr fails;
    Printf.printf "FAIL %s: got %.17g, want %.17g\n" name got want
  end

let stats () =
  let open Common in
  let a = [| 7.; 1.; 3.; 5. |] in
  expect "median even" (median a) 4.;
  expect "median odd" (median [| 9.; 2.; 4. |]) 4.;
  expect "median single" (median [| 2.5 |]) 2.5;
  (* numpy.percentile([1, 3, 5, 7], 99) = 6.94 *)
  expect "p99 four" (quantile 0.99 a) 6.94;
  expect "p0" (quantile 0. a) 1.;
  expect "p100" (quantile 1. a) 7.;
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  (* numpy.percentile(range(1, 101), 99) = 99.01 *)
  expect "p99 hundred" (quantile 0.99 hundred) 99.01;
  expect "p50 hundred" (median hundred) 50.5;
  let raises name f =
    match f () with
    | _ ->
      incr fails;
      Printf.printf "FAIL %s did not raise\n" name
    | exception Invalid_argument _ -> ()
  in
  raises "median of no samples" (fun () -> median [||]);
  raises "quantile 1.5" (fun () -> quantile 1.5 a)

(* The names and units the benchmark prints against BENCHMARK.json (read
   from the directory the benchmark runs in, the repository root). *)
let names () =
  let module Json = Ssd_util.Json in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  match Json.parse (read "BENCHMARK.json") with
  | Error e ->
    incr fails;
    Printf.printf "FAIL BENCHMARK.json does not parse: %s\n" e
  | Ok j ->
    let listed key f =
      List.map f (Json.to_list (Option.value ~default:(Json.List []) (Json.member key j)))
    in
    let str k o = Option.value ~default:"" (Json.member_string k o) in
    let same what listed printed =
      if listed <> printed then begin
        incr fails;
        Printf.printf "FAIL %s: BENCHMARK.json lists [%s], the benchmark prints [%s]\n" what
          (String.concat "; " listed) (String.concat "; " printed)
      end
    in
    let metric_keys = List.map (fun (m : Common.metric) -> m.Common.name ^ " " ^ m.Common.unit_) in
    let t = Common.tally () in
    Common.Samples.add t.Common.ops 1.;
    same "workloads" (listed "workloads" (str "name")) Common.workloads;
    same "end_to_end"
      (listed "end_to_end" (fun o -> str "name" o ^ " " ^ str "unit" o))
      (metric_keys (Common.end_to_end ~setup_s:1. t));
    same "per_layer"
      (listed "per_layer" (fun o -> str "name" o ^ " " ^ str "unit" o))
      (List.map (fun (n, u) -> n ^ " " ^ u) Probes.names)

let run () =
  stats ();
  names ();
  if !fails = 0 then (print_endline "selftest: ok"; 0)
  else (Printf.printf "selftest: %d failures\n" !fails; 1)
