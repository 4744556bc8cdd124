(* serve_eco: one client in a closed loop (one request in flight) drives
   Server.dispatch against resident c3540s and c7552s sessions.  Item =
   op = one request.

   A round is a fixed script of episodes; each episode checkpoints a
   session, applies edits with timing and PO-window queries, asks for
   the critical path and reverts to the checkpoint; then, off the
   round's clock, it sends one hostile edit (which must be refused) and
   reverts again.  Each round ends with one corners and one mc request. *)

open Common
module Sta = Ssd_sta.Sta
module Engine = Ssd_sta.Engine
module Run_opts = Ssd_sta.Run_opts
module Netlist = Ssd_circuit.Netlist
module Decompose = Ssd_circuit.Decompose
module Benchmarks = Ssd_circuit.Benchmarks
module DM = Ssd_core.Delay_model
module Interval = Ssd_util.Interval
module Rng = Ssd_util.Rng
module Server = Ssd_serve.Server

let sessions = [ "c3540s"; "c7552s" ]
let episodes_per_session = 4
let edits_per_episode = 12
let paths_per_episode = 2
let mc_samples = 8
let sampled_edit_checks = 16

(* ---------------------------------------------------------------- *)
(* Set-up: a server with both sessions open *)

type session = {
  name : string;
  nl : Netlist.t;  (** the primitive netlist the session times *)
  gates : int array;
  pis : int array;
  baseline : float * float;  (** PO window right after open *)
}

let num = function Json.Num x -> x | _ -> nan

let iv_of j =
  match j with
  | Some (Json.List [ lo; hi ]) -> (num lo, num hi)
  | _ -> (nan, nan)

let open_server ?(obs = Obs.disabled) () =
  let library = load_library () in
  let sv = Server.create { (Server.default_config ~library) with Server.sv_obs = obs } in
  let ss =
    List.map
      (fun name ->
        let reply =
          Server.dispatch sv
            (Printf.sprintf {|{"v":1,"id":0,"op":"open","session":"%s","circuit":"%s"}|}
               name name)
        in
        let ok = Result.get_ok (Json.parse reply) |> Json.member "ok" |> Option.get in
        let nl = Decompose.to_primitive (Option.get (Benchmarks.by_name name)) in
        let all = Array.init (Netlist.size nl) Fun.id in
        { name; nl;
          gates = List.filter (fun i -> not (Netlist.is_pi nl i)) (Array.to_list all) |> Array.of_list;
          pis = Array.of_list (Netlist.inputs nl);
          baseline = iv_of (Json.member "po" ok) })
      sessions
  in
  (library, sv, ss)

(* ---------------------------------------------------------------- *)
(* The request script *)

type kind =
  | Checkpoint
  | Edit
  | Hostile
  | Revert
  | Restore
  | Po_window
  | Timing
  | Path
  | Corners
  | Mc

let kind_name = function
  | Checkpoint -> "checkpoint"
  | Edit | Hostile -> "edit"
  | Revert | Restore -> "revert"
  | Po_window -> "query.po_window"
  | Timing -> "query.timing"
  | Path -> "query.path"
  | Corners -> "corners"
  | Mc -> "mc"

let all_kinds = [ Po_window; Timing; Path; Edit; Revert; Checkpoint; Corners; Mc ]

(* What the client knows about the live edits of an episode, enough to
   recompute the session's windows from scratch. *)
type live = {
  mutable extra : (int * float) list;
  mutable pi : (int * Run_opts.pi_spec) list;
}

type sample = {
  s_sess : session;
  s_extra : (int * float) list;
  s_pi : (int * Run_opts.pi_spec) list;
  s_po : float * float;  (** the PO window the server replied *)
}

type client = {
  sv : Server.t;
  rng : Rng.t;
  mutable next_id : int;
  by_kind : (kind * Samples.t) list;
  mutable samples : sample list;  (** edit states kept for the checks *)
}

let frame c ~op ~session fields =
  let id = c.next_id in
  c.next_id <- id + 1;
  ( id,
    Json.to_string
      (Json.Obj
         ([ ("v", Json.Num 1.); ("id", Json.Num (float_of_int id)); ("op", Json.Str op);
            ("session", Json.Str session) ]
         @ fields)) )

(* Send one request, time it, and check the envelope: the reply parses
   and echoes the id.  Returns the "ok" payload, or the error code. *)
let send ?tr c (tally : tally) kind (id, req) =
  let t0 = now () in
  let reply = Layers.span tr "server.dispatch" (fun () -> Server.dispatch c.sv req) in
  let dt = now () -. t0 in
  tally.attempted <- tally.attempted + 1;
  match Layers.span tr "json.parse" (fun () -> Json.parse reply) with
  | Error e ->
    check false (fun () -> Printf.sprintf "request %d: reply does not parse (%s): %s" id e reply);
    Error "unparsable"
  | Ok j ->
    check (Json.member "id" j = Some (Json.Num (float_of_int id))) (fun () ->
        Printf.sprintf "request %d: reply does not echo its id: %s" id reply);
    let result =
      match (Json.member "ok" j, Json.member "error" j) with
      | Some ok, None -> Ok ok
      | None, Some e -> Error (Option.value ~default:"?" (Json.member_string "code" e))
      | _ -> Error "malformed"
    in
    (* the known-fault requests are never items: they only count as
       attempted, and the hostile edit as failed while it is accepted *)
    (match (kind, result) with
    | Hostile, _ | Restore, Ok _ -> ()
    | _, Ok _ ->
      Samples.add tally.ops dt;
      Samples.add (List.assoc kind c.by_kind) dt;
      tally.items <- tally.items + 1
    | _, Error code ->
      check false (fun () -> Printf.sprintf "request %d (%s) refused: %s" id req code));
    result

let expect_ok = function Ok j -> j | Error _ -> Json.Obj []

let po_of j = iv_of (Json.member "po" j)

let same_iv (a, b) (c, d) = bits_equal a c && bits_equal b d

let edit c s live =
  if Rng.int c.rng 4 = 0 then begin
    let pi = Rng.pick c.rng s.pis in
    let a = Rng.float_range c.rng 0. 100e-12 in
    let t_lo = Rng.float_range c.rng 0.1e-9 0.2e-9 in
    let t_hi = t_lo +. Rng.float_range c.rng 0.1e-9 0.4e-9 in
    let spec = { Run_opts.pi_arrival = Interval.make 0. a; pi_tt = Interval.make t_lo t_hi } in
    live.pi <- (pi, spec) :: List.remove_assoc pi live.pi;
    (pi, Engine.edit_to_json s.nl (Engine.Set_pi_spec { pi; spec }))
  end
  else begin
    let line = Rng.pick c.rng s.gates in
    let delta = Rng.float_range c.rng 20e-12 200e-12 in
    live.extra <- (line, delta) :: List.remove_assoc line live.extra;
    (line, Engine.edit_to_json s.nl (Engine.Set_extra_delay { line; delta }))
  end

(* Edits the protocol must refuse with bad-edit: a finite but absurd
   extra delay and a negative PI transition time.  Fixed inputs. *)
let hostile_edit s k =
  if k mod 2 = 0 then
    Engine.edit_to_json s.nl (Engine.Set_extra_delay { line = s.gates.(0); delta = 1e308 })
  else
    Engine.edit_to_json s.nl
      (Engine.Set_pi_spec
         { pi = s.pis.(0);
           spec = { Run_opts.pi_arrival = Interval.point 0.; pi_tt = Interval.make (-1e-10) 0.3e-9 } })

let episode ?tr c (tally : tally) s k =
  let session = s.name in
  let req kind ~op fields = send ?tr c tally kind (frame c ~op ~session fields) in
  let query what fields = req what ~op:"query" fields |> expect_ok in
  let po_window () = query Po_window [ ("what", Json.Str "po_window") ] in
  let cp =
    match req Checkpoint ~op:"checkpoint" [] with
    | Ok j -> Option.value ~default:(-1) (Json.member_int "checkpoint" j)
    | Error _ -> -1
  in
  let live = { extra = []; pi = [] } in
  let last_po = ref s.baseline and last_max = ref nan in
  for e = 1 to edits_per_episode do
    let line, ed = edit c s live in
    last_po := po_of (expect_ok (req Edit ~op:"edit" [ ("edits", Json.List [ ed ]) ]));
    if e = edits_per_episode && List.length c.samples < sampled_edit_checks then
      c.samples <-
        { s_sess = s; s_extra = live.extra; s_pi = live.pi; s_po = !last_po } :: c.samples;
    (* the client reads the window of the line it edited and of one
       other signal, then the PO window *)
    List.iter
      (fun i ->
        let signal = Netlist.signal_name s.nl i in
        ignore (query Timing [ ("what", Json.Str "timing"); ("signal", Json.Str signal) ]))
      [ line; Rng.int c.rng (Netlist.size s.nl) ];
    let q = po_window () in
    check (same_iv (po_of q) !last_po) (fun () ->
        session ^ ": po_window query disagrees with the edit reply");
    last_max := num (Option.value ~default:Json.Null (Json.member "max" q))
  done;
  for _ = 1 to paths_per_episode do
    let delay =
      match Json.member "paths" (query Path [ ("what", Json.Str "path") ]) with
      | Some (Json.List (p :: _)) -> num (Option.value ~default:Json.Null (Json.member "delay" p))
      | _ -> nan
    in
    check (bits_equal delay !last_max) (fun () ->
        Printf.sprintf "%s: path endpoint delay %g differs from the PO window max %g" session
          delay !last_max)
  done;
  let revert kind =
    let r = expect_ok (req kind ~op:"revert" [ ("checkpoint", Json.Num (float_of_int cp)) ]) in
    check (same_iv (po_of r) s.baseline) (fun () ->
        session ^ ": revert did not restore the baseline PO window")
  in
  revert Revert;
  check (same_iv (po_of (po_window ())) s.baseline) (fun () ->
      session ^ ": PO window after revert is not the baseline");
  (* The known fault, off the round's clock: a hostile edit, then a
     revert to the same checkpoint, which undoes the edit if it was
     accepted and nothing if it was refused. *)
  off_clock tally (fun () ->
      (match req Hostile ~op:"edit" [ ("edits", Json.List [ hostile_edit s k ]) ] with
      | Error "bad-edit" -> ()
      | _ -> tally.failed <- tally.failed + 1);
      revert Restore)

let round ?tr c ss tally =
  for k = 0 to episodes_per_session - 1 do
    List.iter (fun s -> episode ?tr c tally s k) ss
  done;
  let small = List.hd ss in
  let req kind ~op fields = ignore (send ?tr c tally kind (frame c ~op ~session:small.name fields)) in
  req Corners ~op:"corners" [ ("corners", Json.Num 4.) ];
  req Mc ~op:"mc" [ ("samples", Json.Num (float_of_int mc_samples)); ("seed", Json.Num 7.) ]

(* Sampled edits against a fresh analysis of the same edit state. *)
let check_samples library c =
  List.iter
    (fun smp ->
      let sta =
        Sta.analyze_with
          ~extra_delay:(fun i -> Option.value ~default:0. (List.assoc_opt i smp.s_extra))
          ~pi_override:(fun i -> List.assoc_opt i smp.s_pi)
          Run_opts.default ~library ~model:DM.proposed smp.s_sess.nl
      in
      let w = Sta.po_window sta in
      check (same_iv (Interval.lo w, Interval.hi w) smp.s_po) (fun () ->
          Printf.sprintf "%s: edited PO window differs from a fresh analysis" smp.s_sess.name))
    c.samples

let release (_, sv, _) = Server.close sv

let client sv seed =
  { sv; rng = Rng.create (Int64.of_int seed); next_id = 1;
    by_kind = List.map (fun k -> (k, Samples.create ())) all_kinds;
    samples = [] }

(* The sinks of the traced server's sessions, for the layer table. *)
let session_snapshots sv =
  let m = Server.sessions sv in
  List.filter_map
    (fun name -> Result.to_option (Ssd_sta.Session.find m name))
    (Ssd_sta.Session.names m)
  |> List.map (fun s -> Obs.snapshot (Ssd_sta.Session.obs s))

let run ~seed ~seconds ~tr =
  let setup, ((library, sv, ss) as plain) = setup ~reps:25 ~release open_server in
  (* a traced run drives a second server whose sink is the traced one *)
  let traced =
    Option.map (fun (l : Layers.t) -> open_server ~obs:l.Layers.obs ()) tr
  in
  Fun.protect ~finally:(fun () -> release plain; Option.iter release traced)
  @@ fun () ->
  let c = client sv seed in
  let ct = Option.map (fun (_, sv', ss') -> (client sv' seed, ss')) traced in
  (* one untimed round warms the sessions (cone caches, lazy set-up) *)
  round c ss (tally ());
  Option.iter (fun (c', ss') -> round c' ss' (tally ())) ct;
  let o =
    Layers.timed_phase ~seconds ~setup
      ~extra:(fun () -> match traced with Some (_, sv', _) -> session_snapshots sv' | None -> [])
      tr
      (fun tr _ t ->
        match (tr, ct) with
        | Some _, Some (c', ss') -> round ?tr c' ss' t
        | _ -> round c ss t)
  in
  check_samples library c;
  Option.iter (fun (c', _) -> check_samples library c') ct;
  List.iter
    (fun (k, s) ->
      if Samples.length s > 0 then
        Printf.printf "  %-18s n=%-6d p50 %.1f us  p99 %.1f us\n" (kind_name k) (Samples.length s)
          (1e6 *. median (Samples.to_array s))
          (1e6 *. quantile 0.99 (Samples.to_array s)))
    c.by_kind;
  o
