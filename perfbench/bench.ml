(* The repository's benchmark: both Achilles pipelines, end to end and per
   layer. run.py builds this executable and bin/achilles_cli.exe, then runs

     bench.exe --workload fsp-seq|fsp-par|serve-mix --seed N --seconds S
               --trace 0|1 --achilles _build/default/bin/achilles_cli.exe
               [--workdir .perfbench]

   and the last line it prints on stdout is one JSON object: [correct],
   [attempted], [failed] and [metrics] — the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. README.md in this
   directory says why each workload exists and which end-to-end metric each
   layer metric should move.

   Every layer is timed from outside, around calls into its public
   functions; beyond that the benchmark reads only what the program already
   exposes (Obs snapshots and events, solver and bitblast statistics, the
   search report, the daemon's STATS reply). *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets
open Achilles_filter
module Obs = Achilles_obs.Obs

(* Report digest of the FSP analysis in the paper's §6.2 configuration; the
   same at every domain count. *)
let golden_digest = "38217a5251d7652b72cb253969110132"

(* Seconds on the monotonic clock, at nanosecond resolution: round trips
   last microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- arguments -------------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let traced = ref false
let achilles = ref ""
let workdir = ref ".perfbench"

let parse_args () =
  let usage () =
    prerr_endline
      "usage: bench.exe --workload fsp-seq|fsp-par|serve-mix --seed N \
       --seconds S --trace 0|1 --achilles CLI [--workdir DIR]";
    exit 2
  in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        traced := t = "1";
        go rest
    | "--achilles" :: p :: rest ->
        achilles := p;
        go rest
    | "--workdir" :: d :: rest ->
        workdir := d;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if
    (not (List.mem !workload [ "fsp-seq"; "fsp-par"; "serve-mix" ]))
    || !achilles = ""
  then usage ()

(* --- statistics and accounting ------------------------------------------------ *)

let median_sorted a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  median_sorted a

(* Run [f k] for k = 0, 1, ... for about [budget] seconds, at least [min]
   times. *)
let repeat ~min ~budget f =
  let t0 = now () in
  let rec go acc k =
    if k >= min && now () -. t0 >= budget then List.rev acc
    else go (f k :: acc) (k + 1)
  in
  go [] 0

let note fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* Every checked operation counts as attempted; one that fails its check
   counts as failed and is never skipped. *)
let attempted = ref 0
let failed = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun what ->
      incr attempted;
      if not ok then begin
        incr failed;
        note "FAILED: %s" what
      end)
    fmt

let peak_rss_mb proc =
  let file = Printf.sprintf "/proc/%s/status" proc in
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ file)
      in
      scan ())

(* --- the FSP analysis (paper §6.2, E1's configuration) -------------------------- *)

let search_config domains =
  {
    Search.default_config with
    Search.mask = Some Fsp_model.analysis_mask;
    Search.witnesses_per_path = 16;
    Search.distinct_by = Some Fsp_model.block_class;
    Search.domains;
  }

(* Each analysis starts from the solver, term and telemetry state of a fresh
   process. Without the fresh-counter reset the k-th analysis in a process
   allocates different variable ids and so digests differently. *)
let fresh_state () =
  Term.reset_fresh_counter ();
  Solver.reset_all_for_tests ();
  Obs.reset_all ();
  Gc.compact ()

(* --- the host's speed ------------------------------------------------------------ *)

(* The reference host is a shared VM whose speed drifts by tens of percent in
   phases of seconds to minutes, in CPU time as in wall time: its other
   tenants. So every analysis is bracketed by a calibration loop of the
   benchmark's own (stdlib hashing, allocation and sorting; none of the
   program's code), and analysis timings are reported at the reference
   speed: divided by the host's slowdown over the analysis, the loop's time
   around it over [reference_s], the loop's time on the quiet reference
   host. A slower program moves these numbers as it moves wall time; a busy
   neighbour slows the loop as much as the analysis and cancels out. *)
let reference_s ~domains =
  (* two domains share the major heap and its collections: 1.25x *)
  if domains <= 1 then 0.1 else 0.125

let calibration_loop () =
  let t = now () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 199_999 do
    Hashtbl.replace h (i * 7919 mod 100_003) (Array.make 4 i)
  done;
  let l = List.sort compare (List.init 200_000 (fun i -> i * 48271 mod 65521)) in
  ignore (Sys.opaque_identity (h, l));
  now () -. t

(* The loop's mean time, run on [domains] domains at once: work spread over
   two CPUs is slowed by a neighbour on either. The program's state (solver
   caches and incremental contexts, interning, telemetry) is cleared first,
   so the loop runs beside the same heap whatever the last call left. *)
let calibration ~domains =
  Solver.reset_all_for_tests ();
  Gc.compact ();
  let others = List.init (domains - 1) (fun _ -> Domain.spawn calibration_loop) in
  let mine = calibration_loop () in
  List.fold_left (fun acc d -> acc +. Domain.join d) mine others /. float domains

(* [repeat] with the calibration loop before the first call and after each:
   every result comes with the host's slowdown over its call (1 = the
   reference speed). *)
let calibrated ?(domains = 1) ~min ~budget f =
  let before = ref (calibration ~domains) in
  repeat ~min ~budget (fun k ->
      let x = f k in
      let after = calibration ~domains in
      let slowdown = (!before +. after) /. (2. *. reference_s ~domains) in
      before := after;
      (x, slowdown))

(* The median over calibrated results of a timing, at the reference speed. *)
let at_reference f runs =
  median (List.map (fun (x, slowdown) -> f x /. slowdown) runs)

type analysis = {
  t0 : float;
  analyze_s : float;
  setup_s : float; (* client extraction + preprocessing: start of the search *)
  first_trojan_s : float;
  queries : int; (* solver queries, all domains *)
  minor_gcs : int;
  major_gcs : int;
}

(* [setup_s] and [first_trojan_s] from the outside clock and the search's own
   wall time and [found_at] stamps (relative to the search start). With
   several domains the merge re-monotonizes [found_at], so there it is the
   stamp the merged report gives its first Trojan. *)
let measured ~t0 ~t1 ~queries ~gc0 ~gc1 (report : Search.report) =
  let search_start = t1 -. report.search_stats.wall_time in
  let first =
    List.fold_left
      (fun m (t : Search.trojan) -> Float.min m t.found_at)
      infinity report.trojans
  in
  {
    t0;
    analyze_s = t1 -. t0;
    setup_s = search_start -. t0;
    first_trojan_s =
      (if Float.is_finite first then search_start -. t0 +. first else 0.);
    queries;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* The correctness of one analysis, by the concrete classifier (independent
   of the solver) and the golden digest. *)
let check_report what (r : Search.report) =
  let verdicts =
    List.map (fun (t : Search.trojan) -> Fsp_model.classify t.witness) r.trojans
  in
  let classes =
    List.sort_uniq compare
      (List.filter_map
         (function Fsp_model.Trojan c -> Some c | _ -> None)
         verdicts)
  in
  let false_positives =
    List.length
      (List.filter (function Fsp_model.Trojan _ -> false | _ -> true) verdicts)
  in
  let c = r.coverage in
  let complete =
    Search.coverage_complete c && c.unknown_alive = 0 && c.unknown_prune = 0
    && c.unknown_witness = 0
    && List.for_all (fun (t : Search.trojan) -> t.confirmed) r.trojans
  in
  let digest = Report.report_digest r in
  let problems =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [
        ( classes = List.sort_uniq compare Fsp_model.all_trojan_classes,
          Printf.sprintf "%d/80 Trojan types" (List.length classes) );
        (false_positives = 0, Printf.sprintf "%d false positives" false_positives);
        (complete, "coverage incomplete");
        (digest = golden_digest, "digest " ^ digest);
      ]
  in
  check (problems = []) "%s: %s" what (String.concat ", " problems)

(* One analysis through the user's entry point, untraced: its report and
   timings. The caller checks the report. *)
let run_analysis ~what domains =
  fresh_state ();
  let clients = Fsp_model.clients () in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let a =
    Achilles.analyze ~search_config:(search_config domains)
      ~layout:Fsp_model.layout ~clients ~server:Fsp_model.server ()
  in
  let t1 = now () in
  let gc1 = Gc.quick_stat () in
  note "%s: %.3f s" what (t1 -. t0);
  ( a.Achilles.report,
    measured ~t0 ~t1 ~gc0 ~gc1
      ~queries:(Solver.aggregate_stats ()).Solver.queries a.Achilles.report )

let analyze ~what domains =
  let report, a = run_analysis ~what domains in
  check_report what report;
  (report, a)

(* --- tracing: Obs events kept in memory, the benchmark's own spans -------------- *)

let events : Obs.event list ref = ref []

let trace_on () =
  events := [];
  Obs.set_sink (Some (fun ev -> events := ev :: !events))

let trace_off () =
  Obs.set_sink None;
  let evs = List.rev !events in
  events := [];
  evs

(* A span of the benchmark's own around a call into a layer; free when no
   sink is attached. *)
let bspan name f =
  if not (Obs.live ()) then f ()
  else begin
    Obs.emit ~kind:"span_begin" ~name ();
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        Obs.emit ~args:[ ("dur", Obs.F (now () -. t0)) ] ~kind:"span_end" ~name ())
      f
  end

let is_bench_span (ev : Obs.event) = String.starts_with ~prefix:"bench." ev.ev_name

(* Summarise events as [achilles trace summarize] does: each one rendered
   as its JSONL trace line, parsed back, and fed to [Obs.Summary]. *)
let summarize ?(keep = fun _ -> true) evs =
  Obs.Summary.of_events
    (List.filter_map
       (fun ev ->
         if not (keep ev) then None
         else Result.to_option (Obs.Json.parse_line (Obs.json_of_event ev)))
       evs)

let find_row (s : Obs.Summary.t) name =
  List.find_opt (fun (r : Obs.Summary.row) -> r.row_phase = name) s.rows

let self_s s name =
  match find_row s name with Some r -> r.self_seconds | None -> 0.

let total_s s name =
  match find_row s name with Some r -> r.total_seconds | None -> 0.

let span_count s name =
  match find_row s name with Some r -> float r.row_spans | None -> 0.

let ratio a b = if b = 0 then 0. else float a /. float b

(* The search at [domains > 1], shard by shard through [Search.Shards] on a
   pool, as [Search.run] does, but with each shard timed and
   its solver queries counted (a pool domain runs one shard at a time, so
   the per-domain query counter brackets one shard). *)
let sharded_search ~config ~different_from ~client ~server =
  (* the main-domain span [Search.run] opens around sharding, pool and merge *)
  Obs.span Obs.Server_se @@ fun () ->
  (* the search stamps [found_at] and its wall time on this clock *)
  let started = Unix.gettimeofday () in
  let bits = Search.Shards.split_bits config in
  let total = 1 lsl bits in
  let base = Term.fresh_counter_value () in
  let per_shard = Array.make total (0., 0) in
  let outs =
    Pool.with_pool ~domains:config.Search.domains (fun pool ->
        Pool.parallel_map pool
          (fun idx ->
            let q0 = (Solver.stats ()).Solver.queries in
            let t = now () in
            let out, _ =
              bspan "bench.shard" (fun () ->
                  Search.Shards.explore ~config ~different_from ~client ~server
                    ~bits ~base ~started idx)
            in
            per_shard.(idx) <- (now () -. t, (Solver.stats ()).Solver.queries - q0);
            match out with
            | Some out -> (out, false)
            | None -> failwith "shard cancelled")
          (Array.init total Fun.id))
  in
  let report =
    Search.Shards.merge ~total ~base ~started ~outs_resumed:(Array.to_list outs)
      ~failed_shards:[] ~retry_attempts:0 ~interrupted:false ~abandoned:0
  in
  (report, Array.to_list per_shard)

(* One analysis with every layer under a span: the steps of
   [Achilles.analyze], called one by one. The digest check proves they
   still add up to the same analysis. Returns the report, the timings and
   the layer metrics. *)
let traced_analysis ~what domains =
  fresh_state ();
  let config = search_config domains in
  let layout = Fsp_model.layout and server = Fsp_model.server in
  let clients = Fsp_model.clients () in
  let gc0 = Gc.quick_stat () in
  trace_on ();
  let t0 = now () in
  let client, cstats =
    bspan "bench.client_extract" (fun () ->
        let config =
          if config.use_slice then
            {
              Interp.default_config with
              Interp.oracle = Some (Achilles_slice.Slice.make_oracle ());
            }
          else Interp.default_config
        in
        Client_extract.extract ~config ~layout clients)
  in
  let df =
    if not config.use_different_from then None
    else
      Some
        (bspan "bench.different_from" (fun () ->
             let server_slice =
               if config.use_slice then
                 Some (Achilles_slice.Slice.analyze ~layout server)
               else None
             in
             Different_from.compute ?mask:config.mask ~use_slice:config.use_slice
               ?server_slice client))
  in
  let different_from = Option.map fst df in
  let q0 = (Solver.aggregate_stats ()).Solver.queries in
  let report, shards =
    bspan "bench.search" (fun () ->
        if domains <= 1 then begin
          let t = now () in
          let r = Search.run ~config ?different_from ~client ~server () in
          (r, [ (now () -. t, (Solver.aggregate_stats ()).Solver.queries - q0) ])
        end
        else sharded_search ~config ~different_from ~client ~server)
  in
  let t1 = now () in
  ignore (bspan "bench.report" (fun () -> Report.report_digest report));
  let evs = trace_off () in
  let gc1 = Gc.quick_stat () in
  check_report what report;
  let agg = Solver.aggregate_stats () in
  let a = measured ~t0 ~t1 ~queries:agg.queries ~gc0 ~gc1 report in
  note "%s: %.3f s" what a.analyze_s;
  let s = summarize evs in
  let program = summarize ~keep:(fun ev -> not (is_bench_span ev)) evs in
  let hits, misses = Bitblast.aggregate_memo_stats () in
  let counters = (Obs.aggregate ()).Obs.counters in
  let counter k = float (Option.value ~default:0 (List.assoc_opt k counters)) in
  let st = report.search_stats in
  let dstat f = match df with Some (_, d) -> float (f d) | None -> 0. in
  let layers =
    [
      ("bitblast.self_s", self_s s "bitblast");
      ("bitblast.spans", span_count s "bitblast");
      ("bitblast.memo_hit_ratio", ratio hits (hits + misses));
      ("solver_query.self_s", self_s s "solver_query");
      ("solver.solve_s", agg.solve_time);
      ("solver.queries", float agg.queries);
      ("solver.sat", float agg.sat_results);
      ("solver.unsat", float agg.unsat_results);
      ("solver.unknown", float agg.unknown_results);
      ("solver.cache_hit_ratio", ratio agg.cache_hits agg.queries);
      ("solver.interval_prunes", float agg.interval_prunes);
      ("solver.incremental_checks", float agg.incremental_checks);
      ("solver.learnts_retained", float agg.learnts_retained);
      ("shards.count", float (List.length shards));
      ("shard.s.max", List.fold_left (fun m (t, _) -> Float.max m t) 0. shards);
      ("shard.s.sum", List.fold_left (fun m (t, _) -> m +. t) 0. shards);
      ("shard.queries.sum", float (List.fold_left (fun m (_, q) -> m + q) 0 shards));
      ("gc.minor_collections", float a.minor_gcs);
      ("gc.major_collections", float a.major_gcs);
      ("client_extract.s", total_s s "bench.client_extract");
      ("client_extract.paths", float cstats.Client_extract.paths_explored);
      ("different_from.s", total_s s "bench.different_from");
      ("different_from.pairs_checked", dstat (fun d -> d.Different_from.pairs_checked));
      ("different_from.pairs_static", dstat (fun d -> d.Different_from.pairs_static));
      ("search.s", total_s s "bench.search");
      ("search.forks", float st.forks);
      ("search.alive_checks", float st.alive_checks);
      ("search.transitive_drops", float st.transitive_drops);
      ("search.pruned_states", float st.pruned_states);
      ("server_se.self_s", self_s s "server_se");
      ("interp.feasibility_queries", counter "interp.feasibility_queries");
      ("negate.self_s", self_s s "negate");
      ("slice.self_s", self_s s "slice");
      ("slice.branch_skipped", counter "slice.branch_skipped");
      ("slice.memo_hits", counter "slice.memo_hits");
      ("slice.cone_queries", counter "slice.cone_queries");
      ("report.s", total_s s "bench.report");
      ("trace.attributed_pct", 100. *. program.attributed);
    ]
  in
  (report, a, layers)

(* --- serving: the real daemon process over a Unix socket -------------------------- *)

let size = Fsp_model.message_size
let frame_len = 4 + size

(* Pool of distinct messages the load cycles through. *)
let traffic_size = 3 * 16384

let confirmed_witnesses (r : Search.report) =
  List.filter_map
    (fun (t : Search.trojan) ->
      if t.confirmed then Some (Array.map Bv.to_int t.witness) else None)
    r.trojans
  |> Array.of_list

(* E17's traffic mix, seeded by the benchmark's seed: 1/3 search witnesses,
   1/3 witnesses with 1-3 random bytes changed, 1/3 uniform noise. *)
let gen_traffic ~witnesses n =
  let rng = Random.State.make [| 0x5e17; !seed |] in
  Array.init n (fun i ->
      let pick () =
        Array.copy witnesses.(Random.State.int rng (Array.length witnesses))
      in
      match i mod 3 with
      | 0 -> pick ()
      | 1 ->
          let m = pick () in
          for _ = 1 to 1 + Random.State.int rng 3 do
            m.(Random.State.int rng size) <- Random.State.int rng 256
          done;
          m
      | _ -> Array.init size (fun _ -> Random.State.int rng 256))

(* The daemon's 5-byte reply for a verdict: 'A'/'T'/'U' and a big-endian
   state id, 0xFFFFFFFF when there is none. *)
let encode_reply buf off verdict =
  let c, id =
    match verdict with
    | Filter.Accept -> ('A', 0xFFFFFFFF)
    | Filter.Trojan_suspect id -> ('T', id)
    | Filter.Unknown_state -> ('U', 0xFFFFFFFF)
  in
  Bytes.set buf off c;
  Bytes.set_int32_be buf (off + 1) (Int32.of_int id)

type traffic = {
  n : int;
  messages : int array array;
  payloads : Bytes.t array;
  frames : Bytes.t; (* the n request frames back to back *)
  replies : Bytes.t; (* the n replies the in-process evaluator predicts *)
  verdicts : Filter.verdict array;
}

let make_traffic filter ~witnesses =
  let messages = gen_traffic ~witnesses traffic_size in
  let n = Array.length messages in
  let payloads =
    Array.map (fun m -> Bytes.init size (fun j -> Char.chr m.(j))) messages
  in
  let ev = Filter.evaluator filter in
  let verdicts = Array.map (fun b -> Filter.verdict_bytes ev b) payloads in
  let frames = Bytes.create (n * frame_len) in
  let replies = Bytes.create (n * 5) in
  Array.iteri
    (fun i b ->
      Bytes.set_int32_be frames (i * frame_len) (Int32.of_int size);
      Bytes.blit b 0 frames ((i * frame_len) + 4) size;
      encode_reply replies (i * 5) verdicts.(i))
    payloads;
  { n; messages; payloads; frames; replies; verdicts }

(* E17's reference for one message: the concrete server, then the solver on
   the Trojan queries of the accepting states the message can reach. *)
let reference_verdict queries m =
  let outcome =
    Concrete.run
      ~incoming:[ Array.map (fun b -> Bv.of_int ~width:8 b) m ]
      Fsp_model.server
  in
  if not (Concrete.accepted outcome) then Filter.Accept
  else
    let rec scan = function
      | [] -> Filter.Accept
      | (_, None) :: rest -> scan rest
      | ((sp : Predicate.server_path), Some terms) :: rest -> (
          let byte_of = Hashtbl.create 32 in
          Array.iteri
            (fun i (v : Term.var) -> Hashtbl.replace byte_of v.id i)
            sp.msg_vars;
          let model =
            Model.of_list
              (Array.to_list
                 (Array.mapi
                    (fun i v -> (v, Model.Vbv (Bv.of_int ~width:8 m.(i))))
                    sp.msg_vars))
          in
          let pure, auxed =
            List.partition
              (fun t -> List.for_all (Hashtbl.mem byte_of) (Term.var_ids t))
              terms
          in
          if not (List.for_all (Model.eval_bool model) pure) then scan rest
          else if auxed = [] then Filter.Trojan_suspect sp.sp_state_id
          else
            let bind (v : Term.var) =
              Option.map
                (fun i -> Term.const (Bv.of_int ~width:8 m.(i)))
                (Hashtbl.find_opt byte_of v.id)
            in
            match Solver.check (List.map (Term.subst bind) auxed) with
            | Solver.Sat _ -> Filter.Trojan_suspect sp.sp_state_id
            | Solver.Unsat -> scan rest
            | Solver.Unknown -> Filter.Unknown_state)
    in
    scan queries

let rec write_all fd buf off len =
  if len > 0 then
    let k = Unix.write fd buf off len in
    write_all fd buf (off + k) (len - k)

let rec read_exactly fd buf off len =
  if len > 0 then
    match Unix.read fd buf off len with
    | 0 -> failwith "daemon closed the connection"
    | k -> read_exactly fd buf (off + k) (len - k)

type daemon = { pid : int; out : Unix.file_descr; conn : Unix.file_descr }

let live_daemons : int list ref = ref []

let kill_live_daemons () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_daemons;
  live_daemons := []

(* While serving, the daemon and this process (the client) share CPU 0: a
   round trip is then two context switches on one core, not two cross-CPU
   wakeups, whose cost on a VM swings with the host's scheduling and is not
   slowed by the neighbours the way the calibration loop is. Unpinned
   serving is another regime whose numbers cannot be compared with these,
   so a run that cannot pin (no taskset) fails rather than serve unpinned. *)
let taskset args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      match
        Unix.create_process "taskset" (Array.of_list ("taskset" :: args)) null null null
      with
      | pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0
      | exception Unix.Unix_error _ -> false)

let pin_client () =
  if not (taskset [ "-a"; "-p"; "-c"; "0"; string_of_int (Unix.getpid ()) ]) then
    failwith "taskset could not pin the client to CPU 0"

(* One socket per daemon: a daemon unlinks its socket when it stops. *)
let daemons_started = ref 0

let socket_path k =
  Filename.concat !workdir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) k)

let filter_path () = Filename.concat !workdir (Printf.sprintf "fsp%d.achfilter" (Unix.getpid ()))

(* Start [achilles serve] on the saved filter, wait for its readiness line,
   and connect (the socket is bound just after that line is printed). *)
let start_daemon () =
  incr daemons_started;
  let sock = socket_path !daemons_started in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let serve = [ !achilles; "serve"; filter_path (); "--socket"; sock ] in
  let argv = "taskset" :: "-c" :: "0" :: serve in
  let pid =
    Unix.create_process (List.hd argv) (Array.of_list argv) null out_w Unix.stderr
  in
  live_daemons := pid :: !live_daemons;
  Unix.close null;
  Unix.close out_w;
  let deadline = now () +. 60. in
  let seen = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec wait_ready () =
    let contents = Buffer.contents seen in
    if
      not
        (List.mem "ready" (String.split_on_char '\n' contents))
    then begin
      if now () > deadline then failwith "daemon never became ready";
      match Unix.select [ out_r ] [] [] 1.0 with
      | [], _, _ -> wait_ready ()
      | _ -> (
          match Unix.read out_r chunk 0 (Bytes.length chunk) with
          | 0 -> failwith "daemon exited before becoming ready"
          | k ->
              Buffer.add_subbytes seen chunk 0 k;
              wait_ready ())
    end
  in
  wait_ready ();
  let rec connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.001;
        connect ()
  in
  { pid; out = out_r; conn = connect () }

(* SIGTERM, let the daemon drain and print its stats, reap it. Returns its
   peak resident memory, read just before it was asked to stop. *)
let stop_daemon d =
  let rss = peak_rss_mb (string_of_int d.pid) in
  Unix.close d.conn;
  Unix.kill d.pid Sys.sigterm;
  let buf = Bytes.create 4096 in
  while Unix.read d.out buf 0 4096 > 0 do
    ()
  done;
  Unix.close d.out;
  let _, status = Unix.waitpid [] d.pid in
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  check (status = Unix.WEXITED 0) "daemon exits cleanly on SIGTERM";
  rss

(* The daemon's STATS reply (length word 0xFFFFFFFF), as key -> value. *)
let daemon_stats fd =
  let req = Bytes.create 4 in
  Bytes.set_int32_be req 0 0xFFFFFFFFl;
  write_all fd req 0 4;
  let hdr = Bytes.create 4 in
  read_exactly fd hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) land 0xFFFFFFFF in
  let body = Bytes.create len in
  read_exactly fd body 0 len;
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ k; v ] -> Option.map (fun v -> (k, v)) (float_of_string_opt v)
      | _ -> None)
    (String.split_on_char '\n' (Bytes.to_string body))

let stat stats k =
  match List.assoc_opt k stats with
  | Some v -> v
  | None ->
      check false "STATS reply has %s" k;
      0.

type client = {
  fd : Unix.file_descr;
  tr : traffic;
  mutable cursor : int; (* next message index, cycling through the pool *)
  mutable mismatches : int;
  mutable read_wait : float; (* seconds blocked in read *)
  mutable write_s : float; (* seconds in write *)
  rbuf : Bytes.t;
}

(* Write frames [first, first + k) of the pool, cyclically. *)
let send_frames c first k =
  let t = now () in
  let i = first mod c.tr.n in
  let head = min k (c.tr.n - i) in
  write_all c.fd c.tr.frames (i * frame_len) (head * frame_len);
  if head < k then write_all c.fd c.tr.frames 0 ((k - head) * frame_len);
  c.write_s <- c.write_s +. (now () -. t)

let timed_read c off =
  let t = now () in
  let k = Unix.read c.fd c.rbuf off (Bytes.length c.rbuf - off) in
  c.read_wait <- c.read_wait +. (now () -. t);
  if k = 0 then failwith "daemon closed the connection";
  k

(* Compare the reply at offset [at] of the read buffer with the prediction
   for message [idx]. *)
let check_reply c ~at ~idx =
  let i = idx mod c.tr.n * 5 in
  let same = ref true in
  for b = 0 to 4 do
    if Bytes.get c.rbuf (at + b) <> Bytes.get c.tr.replies (i + b) then same := false
  done;
  if not !same then begin
    if c.mismatches < 5 then
      note "daemon verdict %C differs from the in-process verdict %C (message %d)"
        (Bytes.get c.rbuf at) (Bytes.get c.tr.replies i) (idx mod c.tr.n);
    c.mismatches <- c.mismatches + 1
  end

(* Serving is measured in chunks of [chunk_s] seconds with the calibration
   loop between them (no frame in flight then), and reported at the
   reference speed like the analyses: client and daemon share one CPU, so a
   busy neighbour slows a chunk as much as the loop around it. *)
let chunk_s = 0.5

(* One chunk of the closed loop with [window] frames in flight: after each
   read, as many new frames as replies came back; all replies are in at the
   end. Returns the frames sent and the seconds taken. *)
let pipelined_chunk c ~window =
  let sent = ref 0 and got = ref 0 and have = ref 0 in
  let start = c.cursor in
  let t_start = now () in
  let deadline = t_start +. chunk_s in
  let sending = ref true in
  while !sending || !got < !sent do
    if !sending then begin
      let k = window - (!sent - !got) in
      if k > 0 then begin
        send_frames c (start + !sent) k;
        sent := !sent + k
      end
    end;
    let avail = !have + timed_read c !have in
    let complete = avail / 5 in
    for j = 0 to complete - 1 do
      check_reply c ~at:(j * 5) ~idx:(start + !got + j)
    done;
    got := !got + complete;
    have := avail - (complete * 5);
    if !have > 0 then Bytes.blit c.rbuf (complete * 5) c.rbuf 0 !have;
    if now () > deadline then sending := false
  done;
  c.cursor <- start + !sent;
  (!sent, now () -. t_start)

(* One chunk of the synchronous caller: one frame, wait for its verdict,
   the next frame. Returns the round trips made and their median (seconds). *)
let round_trip_chunk c =
  let samples = Array.make 65536 0. in
  let k = ref 0 in
  let deadline = now () +. chunk_s in
  while !k = 0 || (now () < deadline && !k < Array.length samples) do
    let idx = c.cursor in
    let t0 = now () in
    bspan "bench.round_trip" (fun () ->
        send_frames c idx 1;
        let have = ref 0 in
        while !have < 5 do
          have := !have + timed_read c !have
        done);
    samples.(!k) <- now () -. t0;
    check_reply c ~at:0 ~idx;
    c.cursor <- idx + 1;
    incr k
  done;
  let chunk = Array.sub samples 0 !k in
  Array.sort Float.compare chunk;
  (!k, median_sorted chunk)

(* In-process [Filter.verdict_bytes] over the same traffic: ns per message,
   the median over passes through the pool. *)
let eval_ns filter tr ~duration =
  let ev = Filter.evaluator filter in
  let deadline = now () +. duration in
  let passes = ref [] in
  while !passes = [] || now () < deadline do
    let t = now () in
    bspan "bench.filter_eval" (fun () ->
        Array.iter (fun b -> ignore (Filter.verdict_bytes ev b)) tr.payloads);
    passes := ((now () -. t) /. float tr.n *. 1e9) :: !passes
  done;
  median !passes

let compile_filter report =
  let filter =
    bspan "bench.filter_compile" (fun () ->
        Filter.compile ~target:"fsp" ~layout:Fsp_model.layout ~report ())
  in
  (match Filter.save filter ~file:(filter_path ()) with
  | Ok () -> ()
  | Error e -> failwith ("cannot save the filter: " ^ e));
  filter

type serve_result = {
  msgs_per_s : float;
  rtt_us : float;
  daemon_rss_mb : float;
  serve_layers : (string * float) list;
}

(* A serving session on a daemon already started from [filter]: the
   pipelined phase, then the window-1 phase, then the checks. *)
let serve ~filter ~(report : Search.report) d ~pipelined_s ~rtt_s =
  let witnesses = confirmed_witnesses report in
  let tr = make_traffic filter ~witnesses in
  let c =
    {
      fd = d.conn;
      tr;
      cursor = 0;
      mismatches = 0;
      read_wait = 0.;
      write_s = 0.;
      rbuf = Bytes.create 65536;
    }
  in
  pin_client ();
  let s0 = daemon_stats c.fd in
  let pipe =
    calibrated ~min:1 ~budget:pipelined_s (fun _ -> pipelined_chunk c ~window:128)
  in
  let s1 = daemon_stats c.fd in
  let rtts = calibrated ~min:1 ~budget:rtt_s (fun _ -> round_trip_chunk c) in
  let s2 = daemon_stats c.fd in
  let sum f = List.fold_left (fun acc (x, _) -> acc + f x) 0 in
  let sent_p = sum fst pipe and sent = sum fst pipe + sum fst rtts in
  let elapsed_p = List.fold_left (fun acc ((_, dt), _) -> acc +. dt) 0. pipe in
  attempted := !attempted + sent;
  failed := !failed + c.mismatches;
  if c.mismatches > 0 then
    note "FAILED: %d of %d daemon verdicts differ from the in-process ones"
      c.mismatches sent;
  check
    (stat s2 "messages" -. stat s0 "messages" = float sent)
    "STATS counts %d messages sent" sent;
  check (stat s2 "dropped_frames" = 0.) "STATS reports no dropped frames";
  check (Filter.unknown_leaves filter = 0) "the filter compiled without unknown leaves";
  let ev = Filter.evaluator filter in
  Array.iter
    (fun w ->
      let b = Bytes.init size (fun j -> Char.chr w.(j)) in
      check
        (match Filter.verdict_bytes ev b with
        | Filter.Trojan_suspect _ -> true
        | _ -> false)
        "confirmed witness gets a Trojan verdict")
    witnesses;
  let queries = Search.trojan_queries report in
  let rng = Random.State.make [| 0xe17; !seed |] in
  for _ = 1 to 200 do
    let i = Random.State.int rng tr.n in
    check
      (reference_verdict queries tr.messages.(i) = tr.verdicts.(i))
      "message %d: filter verdict equals the concrete + solver reference" i
  done;
  (* a rate is the inverse of a time: at the reference speed it is
     multiplied by the slowdown *)
  let msgs_per_s =
    median (List.map (fun ((n, dt), slowdown) -> float n /. dt *. slowdown) pipe)
  in
  let rtt_us = at_reference snd rtts *. 1e6 in
  note "serving: %.0f msgs/s, round trip %.2f us at the reference speed; \
        %.0f msgs/s, %.2f us measured"
    msgs_per_s rtt_us (float sent_p /. elapsed_p)
    (median (List.map (fun ((_, m), _) -> m) rtts) *. 1e6);
  let eval_mean =
    (stat s1 "latency_sum_seconds" -. stat s0 "latency_sum_seconds")
    /. Float.max 1. (stat s1 "latency_count" -. stat s0 "latency_count")
  in
  let layers =
    [
      ("daemon.eval_p50_us", stat s2 "latency_p50_us");
      ("daemon.eval_p99_us", stat s2 "latency_p99_us");
      ("daemon.messages", stat s2 "messages");
      ("daemon.dropped_frames", stat s2 "dropped_frames");
      ("client.read_wait_s", c.read_wait);
      ("client.write_s", c.write_s);
      ("serve.socket_share", 1. -. (eval_mean *. float sent_p /. elapsed_p));
      ("filter.ops", float (Filter.op_count filter));
      ("filter.states", float (Filter.state_count filter));
      ("filter.unknown_leaves", float (Filter.unknown_leaves filter));
    ]
  in
  let layers =
    if !traced then ("filter.eval_ns", eval_ns filter tr ~duration:(Float.min 1. rtt_s)) :: layers
    else layers
  in
  let daemon_rss_mb = stop_daemon d in
  {
    msgs_per_s;
    rtt_us;
    daemon_rss_mb;
    serve_layers = layers;
  }

(* --- workloads --------------------------------------------------------------------- *)

let median_layers (reps : (string * float) list list) =
  match reps with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (k, _) -> (k, median (List.map (fun l -> List.assoc k l) reps)))
        first

let unit_of name =
  let has_suffix suffix = String.ends_with ~suffix name in
  if has_suffix "_pct" then "%"
  else if has_suffix "_ratio" || has_suffix "_share" then "ratio"
  else if has_suffix "_us" then "us"
  else if has_suffix "_ns" then "ns"
  else if
    has_suffix "_s" || has_suffix ".s" || String.starts_with ~prefix:"shard.s." name
  then "s"
  else "count"

let layer_metrics layers = List.map (fun (k, v) -> (k, v, unit_of k)) layers

(* Tracing overhead on the analysis, in percent of the untraced time. *)
let overhead_pct traced plain =
  let t = at_reference (fun (a : analysis) -> a.analyze_s) in
  100. *. ((t traced /. t plain) -. 1.)

(* The serving pass of the fsp workloads runs in a child forked before the
   analyses: a fresh process, as on serve-mix (in the process a 2-domain
   analysis had run in, serving swung by a third from run to run). The
   child analyses at 1 domain, compiles, serves, and sends back the result,
   the filter's compile time and its check counts. *)
let serving_pass ~pipelined_s ~rtt_s =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let report, _ = analyze ~what:"analysis for the serving pass" 1 in
      if !traced then trace_on ();
      let filter = compile_filter report in
      let d = start_daemon () in
      let sv = serve ~filter ~report d ~pipelined_s ~rtt_s in
      let compile_s = total_s (summarize (trace_off ())) "bench.filter_compile" in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (sv, compile_s, !attempted, !failed) [];
      close_out oc;
      exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let sv, compile_s, a, f =
        (Marshal.from_channel ic : serve_result * float * int * int)
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      attempted := !attempted + a;
      failed := !failed + f;
      (sv, compile_s)

let fsp_workload domains =
  let s = !seconds in
  let sv, compile_s = serving_pass ~pipelined_s:(0.15 *. s) ~rtt_s:(0.15 *. s) in
  if not !traced then begin
    (* peak memory as one analysis in a fresh process leaves it: read after
       the first analysis, since later ones reuse the heap it grew *)
    let rss = ref 0. in
    let runs =
      calibrated ~domains ~min:3 ~budget:(0.7 *. s) (fun k ->
          let _, a = analyze ~what:(Printf.sprintf "analysis %d" k) domains in
          if k = 0 then rss := peak_rss_mb "self";
          a)
    in
    note "%d analyses: host slowdown %.2f (median)" (List.length runs)
      (median (List.map snd runs));
    [
      ("setup_s", at_reference (fun a -> a.setup_s) runs, "s");
      ("analyze_s", at_reference (fun a -> a.analyze_s) runs, "s");
      ("first_trojan_s", at_reference (fun a -> a.first_trojan_s) runs, "s");
      ("peak_rss_mb", !rss, "MB");
      ("serve_msgs_per_s", sv.msgs_per_s, "1/s");
      ("serve_rtt_us", sv.rtt_us, "us");
    ]
  end
  else begin
    (* untraced and traced analyses alternate *)
    let runs =
      calibrated ~domains ~min:4 ~budget:(0.7 *. s) (fun k ->
          let what = Printf.sprintf "analysis %d" k in
          if k mod 2 = 0 then (snd (analyze ~what domains), None)
          else
            let _, a, l = traced_analysis ~what domains in
            (a, Some l))
    in
    let plain = List.filter_map (fun ((a, l), sl) -> if l = None then Some (a, sl) else None) runs in
    let tr = List.filter_map (fun ((a, l), sl) -> Option.map (fun l -> ((a, sl), l)) l) runs in
    let seq_queries =
      if domains <= 1 then (fst (fst (List.hd tr))).queries
      else (snd (analyze ~what:"sequential analysis" 1)).queries
    in
    let layers =
      median_layers
        (List.map
           (fun (((a : analysis), _), l) -> ("dup.query_ratio", ratio a.queries seq_queries) :: l)
           tr)
    in
    layer_metrics
      (layers
      @ [ ("filter.compile_s", compile_s) ]
      @ sv.serve_layers
      @ [ ("trace.overhead_pct", overhead_pct (List.map fst tr) plain) ])
  end

let serve_workload () =
  let s = !seconds in
  (* set-up, repeated: the analysis, Filter.compile, and the daemon's socket
     accepting; each daemon stops before the next set-up starts and the last
     one serves the load. The benchmark checks the report after the set-up
     is timed. Traced runs alternate untraced and traced set-ups. *)
  let current = ref None in
  let setups =
    calibrated ~min:(if !traced then 4 else 3) ~budget:(0.45 *. s) (fun k ->
        Option.iter (fun (_, _, d) -> ignore (stop_daemon d)) !current;
        let what = Printf.sprintf "set-up analysis %d" k in
        let report, a, layers =
          if !traced && k mod 2 = 1 then begin
            let report, a, l = traced_analysis ~what 1 in
            trace_on ();
            (report, a, Some l)
          end
          else
            let report, a = run_analysis ~what 1 in
            (report, a, None)
        in
        let filter = compile_filter report in
        let d = start_daemon () in
        let setup_s = now () -. a.t0 in
        if layers = None then check_report what report;
        current := Some (report, filter, d);
        let layers =
          Option.map
            (fun l ->
              let compile_s = total_s (summarize (trace_off ())) "bench.filter_compile" in
              ("dup.query_ratio", 1.) :: ("filter.compile_s", compile_s) :: l)
            layers
        in
        (a, setup_s, layers))
  in
  let report, filter, d = Option.get !current in
  let analyses = List.map (fun ((a, _, _), sl) -> (a, sl)) setups in
  if not !traced then begin
    let sv = serve ~filter ~report d ~pipelined_s:(0.3 *. s) ~rtt_s:(0.2 *. s) in
    [
      ("setup_s", at_reference (fun (_, t, _) -> t) setups, "s");
      ("analyze_s", at_reference (fun a -> a.analyze_s) analyses, "s");
      ("first_trojan_s", at_reference (fun a -> a.first_trojan_s) analyses, "s");
      ("peak_rss_mb", sv.daemon_rss_mb, "MB");
      ("serve_msgs_per_s", sv.msgs_per_s, "1/s");
      ("serve_rtt_us", sv.rtt_us, "us");
    ]
  end
  else begin
    let tr = List.filter_map (fun ((a, _, l), sl) -> Option.map (fun l -> ((a, sl), l)) l) setups in
    let plain = List.filter_map (fun ((a, _, l), sl) -> if l = None then Some (a, sl) else None) setups in
    let overhead = overhead_pct (List.map fst tr) plain in
    trace_on ();
    let sv = serve ~filter ~report d ~pipelined_s:(0.3 *. s) ~rtt_s:(0.2 *. s) in
    ignore (trace_off ());
    layer_metrics
      (median_layers (List.map snd tr) @ sv.serve_layers @ [ ("trace.overhead_pct", overhead) ])
  end

(* --- output ---------------------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  List.iter
    (fun (name, v, _) -> check (Float.is_finite v) "metric %s is a finite number" name)
    metrics;
  List.iter
    (fun (name, v, u) -> Printf.eprintf "  %-30s %14.6g %s\n" name v u)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number (if Float.is_finite v then v else 0.))
             u)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed body

let () =
  parse_args ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir !workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  at_exit (fun () ->
      kill_live_daemons ();
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        (filter_path () :: List.init !daemons_started (fun k -> socket_path (k + 1))));
  let metrics =
    match !workload with
    | "fsp-seq" -> fsp_workload 1
    | "fsp-par" -> fsp_workload 2
    | _ -> serve_workload ()
  in
  print_result metrics
