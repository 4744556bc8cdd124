(* The traced run's view of the layers: one Obs sink that the program's
   own instrumentation reports into (through Run_opts.obs or the
   server's sink), benchmark spans around each call into a layer's
   public function, and a table of calls, total time, self time and
   self-allocated words per layer read back through Obs.snapshot. *)

open Common

type t = { obs : Obs.t; timers : (string, Obs.timer) Hashtbl.t }

let create () = { obs = Obs.create ~trace:true (); timers = Hashtbl.create 16 }

(* The sink a round reports into: the disabled one when untraced. *)
let obs = function None -> Obs.disabled | Some t -> t.obs

let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let tm =
      match Hashtbl.find_opt t.timers name with
      | Some tm -> tm
      | None ->
        let tm = Obs.timer t.obs name in
        Hashtbl.add t.timers name tm;
        tm
    in
    Obs.span t.obs tm f

(* Fold per-instance names (sta.level.17, par.lane1.busy_ns, the
   pool's per-level job spans L17) into one layer row by replacing every
   run of digits with '*'. *)
let layer_of name =
  let b = Buffer.create (String.length name) in
  String.iteri
    (fun i ch ->
      match ch with
      | '0' .. '9' ->
        if i = 0 || not (match name.[i - 1] with '0' .. '9' -> true | _ -> false) then
          Buffer.add_char b '*'
      | ch -> Buffer.add_char b ch)
    name;
  Buffer.contents b

type row = {
  mutable calls : int;
  mutable total : float;
  mutable self : float;
  mutable words : float;
}

let table snapshots =
  let rows = Hashtbl.create 32 in
  let row name =
    let k = layer_of name in
    match Hashtbl.find_opt rows k with
    | Some r -> r
    | None ->
      let r = { calls = 0; total = 0.; self = 0.; words = 0. } in
      Hashtbl.add rows k r;
      r
  in
  List.iter
    (fun (sn : Obs.snapshot) ->
      List.iter
        (fun (name, (st : Obs.timer_stat)) ->
          let r = row name in
          r.calls <- r.calls + st.Obs.st_calls;
          r.total <- r.total +. st.Obs.st_total_s;
          r.self <- r.self +. st.Obs.st_self_s)
        sn.Obs.sn_timers;
      let rec walk (n : Obs.span_node) =
        let r = row n.Obs.sp_name in
        r.words <- r.words +. n.Obs.sp_self_minor_words;
        List.iter walk n.Obs.sp_children
      in
      List.iter walk sn.Obs.sn_spans)
    snapshots;
  Hashtbl.fold (fun k r acc -> (k, r) :: acc) rows []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b.self a.self)

let print_table ?(extra = []) t =
  let rows = table (Obs.snapshot t.obs :: extra) in
  Printf.printf "  %-34s %9s %11s %11s %14s\n" "layer (traced rounds)" "calls" "total s"
    "self s" "self words";
  List.iter
    (fun (k, r) ->
      Printf.printf "  %-34s %9d %11.4f %11.4f %14.4g\n" k r.calls r.total r.self r.words)
    rows

(* The timed phase of a run.  Untraced: rounds until [seconds] have
   passed.  Traced: untraced and traced rounds alternate, so both see
   the same host; the outcome carries the tracing overhead (untraced over
   traced items per second, minus one) and the layer table is printed.
   [round tr i tally] runs round [i] reporting into [tr]; the set-up is
   rebuilt between rounds (see [Common.setup]). *)
let timed_phase ~seconds ~setup ?(extra = fun () -> []) tr round =
  let between progress = rebuild setup ~progress in
  match tr with
  | None ->
    let t = tally () in
    run_rounds ~seconds ~between ~pick:(fun _ -> t) (round None);
    outcome_of ~setup_s:(setup_s setup) t
  | Some l ->
    let plain = tally () and traced = tally () in
    run_rounds ~seconds ~min_rounds:2 ~between
      ~pick:(fun i -> if i mod 2 = 0 then plain else traced)
      (fun i t -> round (if i mod 2 = 1 then tr else None) i t);
    print_table ~extra:(extra ()) l;
    let overhead = (items_per_s plain /. items_per_s traced) -. 1. in
    { attempted = plain.attempted + traced.attempted;
      failed = plain.failed + traced.failed;
      metrics = [ metric "obs.traced_overhead" "ratio" overhead ] }
