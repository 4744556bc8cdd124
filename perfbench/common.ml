(* Shared plumbing: clocks, allocation counters, the private working
   directory, the characterized library, set-up timing, the round loop
   and the output checks. *)

module Obs = Ssd_obs.Obs
module Json = Ssd_util.Json
module Charlib = Ssd_cell.Charlib
module Sweep = Ssd_cell.Sweep
module Stats = Ssd_util.Stats

let now = Obs.now

let workloads = [ "cold_char"; "sta_sweep"; "atpg_itr"; "serve_eco" ]

(* Order statistics of a sample array: the program's own type-7
   (linear interpolation) estimator, q in [0, 1]. *)
let quantile q a = Stats.quantile q (Array.to_list a)
let median a = quantile 0.5 a

(* Minor-heap words allocated so far, summed over every domain (worker
   domains fold their counts in when they terminate; every pool the
   benchmark drives is joined before a reading is taken). *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* ------------------------------------------------------------------ *)
(* Working directory: everything the benchmark writes lives under the
   directory it is started from. *)

let work_dir = Filename.concat (Sys.getcwd ()) ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The persistent library cache of the warm workloads.  Also exported as
   SSD_CACHE_DIR so no code path can fall back to $HOME/.cache. *)
let lib_cache_dir = Filename.concat work_dir "charlib"

let () = Unix.putenv "SSD_CACHE_DIR" lib_cache_dir

let profile = Charlib.coarse
let tech = Ssd_spice.Tech.default
let spec = Charlib.default_spec

let cell_name (kind, n) =
  match (kind : Sweep.gate_kind) with
  | Sweep.Nand when n = 1 -> "inv"
  | Sweep.Nand -> Printf.sprintf "nand%d" n
  | Sweep.Nor -> Printf.sprintf "nor%d" n

(* Loading the cached library is part of every warm set-up; the first
   run in a fresh checkout characterizes it once, untimed. *)
let load_library () =
  Charlib.load_or_characterize ~cache_dir:lib_cache_dir profile tech spec

let ensure_library () = ignore (load_library ())

(* ------------------------------------------------------------------ *)
(* Growable sample buffer *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let length t = t.n
end

(* ------------------------------------------------------------------ *)
(* Set-up timing.  A set-up that takes milliseconds, timed back to back,
   reads whatever spell of host speed it happens to fall in.  So the
   set-up is built once before the timed phase and rebuilt (timed, then
   dropped) [reps - 1] more times spread over it, between rounds and
   outside their time and allocation; [setup_s] is the median.  With
   [collect] (the default) each repetition starts from a collected heap,
   as the first one in a fresh process does, so it does not pay for the
   garbage of the rounds before it. *)

type 'a setup = {
  build : unit -> 'a;
  release : 'a -> unit;
  reps : int;
  batch : int;
  collect : bool;
  times : Samples.t;
}

(* One repetition: [batch] builds back to back (a set-up of microseconds
   is timed in batches), timed per build.  The last build is kept; the
   others are dropped unreleased, so [batch] > 1 suits set-ups that hold
   nothing to release. *)
let time_build s =
  if s.collect then Gc.full_major ();
  let t0 = now () in
  let v = ref (s.build ()) in
  for _ = 2 to s.batch do
    v := s.build ()
  done;
  Samples.add s.times ((now () -. t0) /. float_of_int s.batch);
  !v

(* [~spread:false] makes every repetition up front, the kept one last. *)
let setup ?(reps = 9) ?(batch = 1) ?(collect = true) ?(spread = true) ?(release = ignore)
    build =
  let s = { build; release; reps; batch; collect; times = Samples.create () } in
  if not spread then
    for _ = 2 to reps do
      release (time_build s)
    done;
  (s, time_build s)

(* Rebuild while the count lags [progress] (0 to 1) of the timed phase. *)
let rebuild s ~progress =
  while Samples.length s.times < min s.reps (1 + truncate (progress *. float_of_int s.reps)) do
    s.release (time_build s)
  done

let setup_s s =
  rebuild s ~progress:1.;
  median (Samples.to_array s.times)

(* ------------------------------------------------------------------ *)
(* Tally of a timed phase *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable items : int;  (** items completed (failed ops excluded) *)
  mutable busy_s : float;  (** host time spent in rounds *)
  mutable words : float;  (** minor words allocated in rounds *)
  ops : Samples.t;  (** per-op host time of the ops that did not fail, s *)
}

let tally () =
  { attempted = 0; failed = 0; items = 0; busy_s = 0.;
    words = 0.; ops = Samples.create () }

(* Time one op into the tally. *)
let timed_op tally f =
  let t0 = now () in
  let v = f () in
  Samples.add tally.ops (now () -. t0);
  v

(* Run whole rounds until [seconds] of host time have passed (at least
   [min_rounds]; a round in progress is never cut).  [round i tally]
   performs round [i] into the tally [pick i] chooses; [between
   progress] runs after each round, outside its time and allocation. *)
let run_rounds ~seconds ?(min_rounds = 1) ?(between = ignore) ~pick round =
  let t_start = now () in
  let i = ref 0 in
  while !i < min_rounds || now () -. t_start < seconds do
    let t = pick !i in
    let w0 = minor_words () in
    let t0 = now () in
    round !i t;
    t.busy_s <- t.busy_s +. (now () -. t0);
    t.words <- t.words +. (minor_words () -. w0);
    between (if seconds > 0. then (now () -. t_start) /. seconds else 1.);
    incr i
  done

(* Run [f] inside a round but off its clock: its time and allocation are
   taken back out of the round's (run_rounds adds the whole round's
   after it ends). *)
let off_clock t f =
  let w0 = minor_words () in
  let t0 = now () in
  let v = f () in
  t.busy_s <- t.busy_s -. (now () -. t0);
  t.words <- t.words -. (minor_words () -. w0);
  v

let items_per_s t = float_of_int t.items /. t.busy_s

(* ------------------------------------------------------------------ *)
(* Output checks: failures are collected, reported on stderr and turn
   the run's [correct] flag false. *)

let failures : string list ref = ref []
let checks = ref 0

let check cond msg =
  incr checks;
  if not cond then failures := msg () :: !failures

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* The end-to-end set, identical in name and unit on every workload. *)
let end_to_end ~setup_s (t : tally) =
  let ops = Samples.to_array t.ops in
  [ metric "setup_s" "s" setup_s;
    metric "items_per_s" "1/s" (items_per_s t);
    metric "op_p50_ms" "ms" (1e3 *. median ops);
    metric "op_p99_ms" "ms" (1e3 *. quantile 0.99 ops);
    metric "alloc_words_per_item" "words" (t.words /. float_of_int t.items);
    metric "peak_heap_mb" "MB" (peak_heap_mb ()) ]

let outcome_of ~setup_s (t : tally) =
  { attempted = t.attempted; failed = t.failed;
    metrics = end_to_end ~setup_s t }
