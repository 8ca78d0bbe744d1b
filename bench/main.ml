(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (§6), plus the in-text comparisons, on the bundled
   models (E1-E10), and two checks beyond the paper: E18, the static slice
   oracle on and off, and E19, the cost of live telemetry on a scraped
   serving daemon. Performance is measured by perfbench (BENCHMARK.json),
   not here.

     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- --list          # list experiments
     dune exec bench/main.exe -- --experiment table1
     dune exec bench/main.exe -- --quick         # reduced enumerations

   Absolute numbers differ from the paper (their testbed ran S2E on x86
   binaries for hours; we run a DSL symbolic executor for seconds) — the
   claim reproduced is the *shape*: who wins, by what factor, and where the
   time goes. EXPERIMENTS.md records paper-vs-measured for each entry. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_baselines
module Obs = Achilles_obs.Obs
open Achilles_runtime
open Achilles_targets

let quick = ref false
let csv_dir : string option ref = ref None
let banner title = Format.printf "@.=== %s ===@.@." title

(* Optionally persist a figure's data series for external plotting. *)
let write_csv name header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc (header ^ "\n");
      List.iter (fun row -> output_string oc (row ^ "\n")) rows;
      close_out oc;
      Format.printf "  (series written to %s)@." path

(* Machine-readable twin of a figure: one JSON object per experiment so the
   perf trajectory can be tracked across PRs without re-parsing CSVs. *)
let write_bench_json name fields =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir name in
      let oc = open_out path in
      let module J = Achilles_obs.Obs.Json in
      output_string oc (J.to_string (J.Obj fields));
      output_string oc "\n";
      close_out oc;
      Format.printf "  (json written to %s)@." path

let fresh_measurement f =
  (* measurements must not be flattered by earlier experiments' caches *)
  Solver.clear_cache ();
  Solver.reset_stats ();
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* --- the shared FSP Achilles run (used by E1, E2, E3, E4) --------------------- *)

let fsp_search_config =
  {
    Search.default_config with
    Search.mask = Some Fsp_model.analysis_mask;
    Search.witnesses_per_path = 16;
    Search.distinct_by = Some Fsp_model.block_class;
  }

let fsp_analysis =
  lazy
    (fresh_measurement (fun () ->
         Achilles.analyze ~search_config:fsp_search_config
           ~layout:Fsp_model.layout ~clients:(Fsp_model.clients ())
           ~server:Fsp_model.server ()))

let trojan_classes trojans =
  List.filter_map
    (fun (t : Search.trojan) ->
      match Fsp_model.classify t.Search.witness with
      | Fsp_model.Trojan cls -> Some cls
      | Fsp_model.Valid _ | Fsp_model.Rejected -> None)
    trojans
  |> List.sort_uniq compare

(* --- E1: Table 1 — accuracy of Achilles vs classic symbolic execution --------- *)

(* Classic SE enumerates concrete accepted messages over a reduced
   representative alphabet (NUL, 'a', '*' per payload byte) to keep the
   output finite; see EXPERIMENTS.md. *)
let reduced_alphabet vars =
  let f = Layout.field Fsp_model.layout "buf" in
  List.init f.Layout.size (fun i ->
      let byte = Term.var vars.(f.Layout.offset + i) in
      Term.or_l
        (List.map
           (fun c -> Term.eq byte (Term.int ~width:8 c))
           [ 0; Char.code 'a'; Char.code '*' ]))

let experiment_table1 () =
  banner "E1 / Table 1: accuracy — Achilles vs classic symbolic execution";
  let analysis, achilles_time = Lazy.force fsp_analysis in
  let trojans = Achilles.trojans analysis in
  let classes = trojan_classes trojans in
  let achilles_fp =
    List.length trojans
    - List.length
        (List.filter
           (fun (t : Search.trojan) ->
             match Fsp_model.classify t.Search.witness with
             | Fsp_model.Trojan _ -> true
             | _ -> false)
           trojans)
  in
  let (_classic, enumeration), classic_time =
    fresh_measurement (fun () ->
        let classic = Classic_se.explore Fsp_model.server in
        let cap = if !quick then 40 else 400 in
        let enumeration =
          Classic_se.enumerate ~restrict:reduced_alphabet ~max_per_path:cap
            classic.Classic_se.accepting
        in
        (classic, enumeration))
  in
  let messages = List.map fst enumeration.Classic_se.messages in
  let classic_trojan_msgs, classic_valid_msgs =
    List.partition
      (fun m ->
        match Fsp_model.classify m with
        | Fsp_model.Trojan _ -> true
        | _ -> false)
      messages
  in
  let classic_types =
    List.filter_map
      (fun m ->
        match Fsp_model.classify m with
        | Fsp_model.Trojan cls -> Some cls
        | _ -> None)
      messages
    |> List.sort_uniq compare
  in
  Format.printf
    "                          Achilles      Classic symbolic execution@.";
  Format.printf "  True positives (types)  %-12d  %d%s@." (List.length classes)
    (List.length classic_types)
    (if enumeration.Classic_se.exhausted then "" else " (enumeration capped)");
  Format.printf "  False positives         %-12d  %d accepted-valid messages@."
    achilles_fp
    (List.length classic_valid_msgs);
  Format.printf "  Output volume           %-12d  %d messages to sift@."
    (List.length trojans) (List.length messages);
  Format.printf "  Wall time               %-12.2f  %.2f seconds@."
    achilles_time classic_time;
  Format.printf
    "  (paper, 1 h budget:      80 TP / 0 FP   80 TP / 7,520 FP)@.";
  Format.printf
    "@.  Classic SE finds the accepting paths fast but every Trojan is@.\
    \  bundled with valid messages on the same path (%d Trojan vs %d valid@.\
    \  among the enumerated); only the predicate difference separates them.@."
    (List.length classic_trojan_msgs)
    (List.length classic_valid_msgs)

(* --- E2: Figure 10 — incremental discovery ------------------------------------- *)

let experiment_fig10 () =
  banner "E2 / Figure 10: % of FSP Trojan types discovered vs analysis time";
  let analysis, _ = Lazy.force fsp_analysis in
  let trojans = Achilles.trojans analysis in
  let curve = Report.discovery_curve ~total:80 trojans in
  Format.printf "%s@." (Report.render_ascii_curve curve);
  Format.printf "  %-10s %s@." "seconds" "% discovered";
  List.iteri
    (fun i (t, p) ->
      if i mod 10 = 0 || i = List.length curve - 1 then
        Format.printf "  %-10.3f %.1f@." t p)
    curve;
  write_csv "fig10_discovery.csv" "seconds,percent_discovered"
    (List.map (fun (t, p) -> Printf.sprintf "%.6f,%.2f" t p) curve);
  Format.printf
    "@.  As in the paper, witnesses stream out while the server analysis@.\
    \  runs: interrupting early still yields results (first at %.3fs, all@.\
    \  80 by %.3fs; the paper: first at 20 min, all by 43 min).@."
    (match curve with (t, _) :: _ -> t | [] -> 0.)
    (match List.rev curve with (t, _) :: _ -> t | [] -> 0.)

(* --- E3: Figure 11 — alive client predicates vs path length --------------------- *)

let experiment_fig11 () =
  banner "E3 / Figure 11: client path predicates alive per server path length";
  let analysis, _ = Lazy.force fsp_analysis in
  let samples =
    analysis.Achilles.report.Search.search_stats.Search.alive_samples
  in
  let points =
    List.map
      (fun (s : Search.alive_sample) ->
        (float_of_int s.Search.path_length, float_of_int s.Search.alive))
      samples
  in
  Format.printf "%s@." (Report.render_ascii_curve points);
  write_csv "fig11_alive.csv" "path_length,alive_client_predicates"
    (List.map
       (fun (s : Search.alive_sample) ->
         Printf.sprintf "%d,%d" s.Search.path_length s.Search.alive)
       samples);
  (* aggregate: min/max alive per path length *)
  let by_len = Hashtbl.create 32 in
  List.iter
    (fun (s : Search.alive_sample) ->
      let lo, hi =
        match Hashtbl.find_opt by_len s.Search.path_length with
        | Some (lo, hi) -> (min lo s.Search.alive, max hi s.Search.alive)
        | None -> (s.Search.alive, s.Search.alive)
      in
      Hashtbl.replace by_len s.Search.path_length (lo, hi))
    samples;
  Format.printf "  %-12s %-10s %s@." "path length" "min alive" "max alive";
  Hashtbl.fold (fun len range acc -> (len, range) :: acc) by_len []
  |> List.sort compare
  |> List.iter (fun (len, (lo, hi)) ->
         Format.printf "  %-12d %-10d %d@." len lo hi);
  Format.printf
    "@.  Longer execution paths are more specialized and match fewer client@.\
    \  path predicates, so the per-branch Trojan check keeps getting cheaper@.\
    \  — the same decay as the paper's Figure 11.@."

(* --- E4: the §6.2 timing split --------------------------------------------------- *)

let experiment_timing () =
  banner "E4: analysis time split (client / preprocessing / server)";
  let analysis, _ = Lazy.force fsp_analysis in
  let t = analysis.Achilles.timing in
  (* the paper's preprocessing has no cross-path memoization; measure that
     raw cost too for the faithful comparison *)
  let raw_preprocessing =
    Solver.clear_cache ();
    let _, stats =
      Different_from.compute ~memoize:false ~mask:Fsp_model.analysis_mask
        analysis.Achilles.client
    in
    stats.Different_from.wall_time
  in
  let total =
    t.Achilles.client_extraction +. raw_preprocessing
    +. t.Achilles.server_analysis
  in
  let pct x = 100. *. x /. total in
  Format.printf "  %-30s %8s %8s    %s@." "phase" "seconds" "share"
    "(paper: 1 h total)";
  Format.printf "  %-30s %8.2f %7.1f%%    3 min  (4.8%%)@."
    "client predicate" t.Achilles.client_extraction
    (pct t.Achilles.client_extraction);
  Format.printf "  %-30s %8.2f %7.1f%%    15 min (23.8%%)@."
    "preprocessing (paper-faithful)" raw_preprocessing (pct raw_preprocessing);
  Format.printf "  %-30s %8.2f %7.1f%%    45 min (71.4%%)@." "server analysis"
    t.Achilles.server_analysis
    (pct t.Achilles.server_analysis);
  Format.printf "  %-30s %8.2f          (our signature memoization)@."
    "preprocessing (memoized)" t.Achilles.preprocessing;
  Format.printf
    "@.  Same ordering as the paper: extracting PC is cheap, the raw@.\
    \  differentFrom precomputation is the middle cost, and the server@.\
    \  search dominates. Memoizing pair checks on alpha-canonical path@.\
    \  signatures (an optimization beyond the paper) collapses the@.\
    \  preprocessing phase.@."

(* --- E5: the fuzzing comparison --------------------------------------------------- *)

(* How many concrete Trojan messages exist in the full space of the 8
   analyzed bytes (cmd, bb_len, buf), headers held at their constants. *)
let count_trojan_messages () =
  let printable = 94. in
  let zero_or_printable = 95. in
  let total = ref 0. in
  (* class (L, t): prefix of t printable bytes, NUL at t, NUL at L, the
     remaining payload bytes zero-or-printable *)
  for l = 1 to 4 do
    for t = 0 to l - 1 do
      let free_bytes = Fsp_model.buf_size - t - 1 - 1 in
      (* positions: t and L are pinned NUL (t < L), the other bytes free *)
      let free_bytes = if t = l then free_bytes + 1 else free_bytes in
      total :=
        !total
        +. (8. (* commands *) *. (printable ** float_of_int t)
           *. (zero_or_printable ** float_of_int free_bytes))
    done
  done;
  !total

let experiment_fuzzing () =
  banner "E5: black-box fuzzing comparison (§6.2)";
  let oracle m =
    match Fsp_model.classify m with
    | Fsp_model.Trojan _ -> Fuzzer.Trojan
    | Fsp_model.Valid _ -> Fuzzer.Valid
    | Fsp_model.Rejected -> Fuzzer.Rejected
  in
  let budget = `Seconds (if !quick then 1.0 else 3.0) in
  let uniform, _ =
    fresh_measurement (fun () ->
        Fuzzer.fuzz ~server:Fsp_model.server
          ~gen:(Fuzzer.random_bytes ~size:Fsp_model.message_size)
          ~oracle ~budget ())
  in
  Format.printf "  uniform random fuzzing: %d tests in %.1fs (%.0f/min)@."
    uniform.Fuzzer.tests uniform.Fuzzer.wall_time
    uniform.Fuzzer.throughput_per_min;
  Format.printf "    accepted: %d, Trojans found: %d@." uniform.Fuzzer.accepted
    uniform.Fuzzer.trojans;
  (* the paper's "fair" fuzzer: only the analyzed fields are fuzzed, the
     approximated headers are held at their constants *)
  let fair_gen rng =
    let msg = Array.make Fsp_model.message_size (Bv.zero 8) in
    let set_field name value =
      let f = Layout.field Fsp_model.layout name in
      let rec go i v =
        if i >= 0 then begin
          msg.(f.Layout.offset + i) <- Bv.of_int ~width:8 (v land 0xFF);
          go (i - 1) (v lsr 8)
        end
      in
      go (f.Layout.size - 1) value
    in
    set_field "sum" Fsp_model.sum_const;
    set_field "bb_key" Fsp_model.key_const;
    set_field "bb_seq" Fsp_model.seq_const;
    set_field "bb_pos" Fsp_model.pos_const;
    set_field "cmd"
      (List.nth Fsp_model.commands (Random.State.int rng 8)).Fsp_model.code;
    set_field "bb_len" (1 + Random.State.int rng 4);
    let f = Layout.field Fsp_model.layout "buf" in
    for i = 0 to f.Layout.size - 1 do
      msg.(f.Layout.offset + i) <- Bv.of_int ~width:8 (Random.State.int rng 256)
    done;
    msg
  in
  let fair, _ =
    fresh_measurement (fun () ->
        Fuzzer.fuzz ~server:Fsp_model.server ~gen:fair_gen ~oracle
          ~classify:(fun m ->
            match Fsp_model.class_of_witness m with
            | Some cls -> Some (Format.asprintf "%a" Fsp_model.pp_class cls)
            | None -> None)
          ~budget ())
  in
  Format.printf
    "  \"fair\" fuzzing (headers fixed, 8 relevant bytes random): %d tests@."
    fair.Fuzzer.tests;
  Format.printf
    "    accepted: %d, Trojans: %d, distinct Trojan types: %d of 80@."
    fair.Fuzzer.accepted fair.Fuzzer.trojans
    fair.Fuzzer.distinct_trojan_classes;
  let trojan_messages = count_trojan_messages () in
  let space = 2. ** 64. (* the 8 analyzed bytes *) in
  let per_hour =
    Fuzzer.expected_finds ~trojan_messages ~space
      ~tests:(uniform.Fuzzer.throughput_per_min *. 60.)
  in
  Format.printf
    "    analytic: %.3g Trojan messages in a %.3g space => %.2g expected@.\
    \    finds per hour at the measured throughput@."
    trojan_messages space per_hour;
  Format.printf
    "    (paper: 66e6 Trojans / 1.8e19 messages, 75,000 tests/min,@.\
    \     0.00001 expected finds per hour, 4.5e6 false positives)@.";
  let analysis, achilles_time = Lazy.force fsp_analysis in
  let found = List.length (trojan_classes (Achilles.trojans analysis)) in
  Format.printf
    "@.  Achilles found all %d Trojan types in %.2fs; the fuzzer's expected@.\
    \  yield in the same time is %.2g — %.1e times less effective, matching@.\
    \  the paper's orders-of-magnitude gap.@."
    found achilles_time
    (Fuzzer.expected_finds ~trojan_messages ~space
       ~tests:(uniform.Fuzzer.throughput_per_min /. 60. *. achilles_time))
    (float_of_int found
    /. max 1e-300
         (Fuzzer.expected_finds ~trojan_messages ~space
            ~tests:(uniform.Fuzzer.throughput_per_min /. 60. *. achilles_time)))

(* --- E6: PBFT accuracy -------------------------------------------------------------- *)

let pbft_config =
  lazy
    {
      Search.default_config with
      Search.mask = Some Pbft_model.analysis_mask;
      Search.interp =
        Local_state.over_approximate ~vars:[ ("last_rid", 16) ]
          Interp.default_config;
      Search.witnesses_per_path = 2;
    }

let experiment_pbft () =
  banner "E6: PBFT — rediscovering the MAC attack (§6.2)";
  let analysis, elapsed =
    fresh_measurement (fun () ->
        Achilles.analyze
          ~search_config:(Lazy.force pbft_config)
          ~layout:Pbft_model.layout ~clients:[ Pbft_model.client ]
          ~server:Pbft_model.replica ())
  in
  let trojans = Achilles.trojans analysis in
  let all_mac =
    List.for_all
      (fun (t : Search.trojan) -> Pbft_model.is_mac_trojan t.Search.witness)
      trojans
  in
  Format.printf "  analysis time: %.2fs (paper: \"a few seconds\")@." elapsed;
  Format.printf "  accepting paths: %d, all carrying the Trojan: %b@."
    analysis.Achilles.report.Search.search_stats.Search.accepting_paths
    (List.length trojans
    >= analysis.Achilles.report.Search.search_stats.Search.accepting_paths);
  Format.printf "  every witness is a bad-authenticator request: %b@." all_mac;
  Format.printf
    "@.  A single Trojan type (any request whose MAC differs from the@.\
    \  constant correct clients produce), present on every accepting path,@.\
    \  bundled with valid requests — exactly the paper's finding.@."

(* --- E7: the §6.4 optimization ablation ----------------------------------------------- *)

let experiment_ablation () =
  banner "E7 / §6.4: optimized search vs non-optimized differencing";
  let scale label command_set witnesses =
    let commands = command_set in
    let clients = Fsp_model.clients ~command_set:commands () in
    let server = Fsp_model.server_for commands in
    Format.printf "  -- %s: %d clients (%d client paths) --@." label
      (List.length commands)
      (4 * List.length commands);
    let run name config =
      let analysis, time =
        fresh_measurement (fun () ->
            Achilles.analyze ~search_config:config ~layout:Fsp_model.layout
              ~clients ~server ())
      in
      let witnesses = List.length (Achilles.trojans analysis) in
      let stats = analysis.Achilles.report.Search.search_stats in
      Format.printf
        "  %-34s %7.2fs   %d witnesses, %d alive checks (+%d transitive)@."
        name time witnesses stats.Search.alive_checks
        stats.Search.transitive_drops;
      time
    in
    let base = { fsp_search_config with Search.witnesses_per_path = witnesses } in
    let full = run "Achilles (all optimizations)" base in
    let _ =
      run "  - differentFrom matrix"
        { base with Search.use_different_from = false }
    in
    let _ =
      run "  - alive-set dropping"
        {
          base with
          Search.use_different_from = false;
          Search.drop_alive = false;
        }
    in
    let posthoc =
      run "non-optimized (post-hoc diff)"
        {
          base with
          Search.use_different_from = false;
          Search.drop_alive = false;
          Search.prune_no_trojan = false;
        }
    in
    Format.printf "  non-optimized / optimized = %.2fx@.@."
      (posthoc /. max full 1e-9)
  in
  scale "paper scale" Fsp_model.commands 16;
  if not !quick then
    scale "stress scale" (Fsp_model.extended_commands 24) 16;
  Format.printf
    "  (paper: 2h15 non-optimized vs 1h03 optimized = 2.14x; the gap@.\
    \  grows with the number of client path predicates, which is what the@.\
    \  stress scale shows)@."

(* --- E8: FSP impact (§6.3) -------------------------------------------------------------- *)

let experiment_impact_fsp () =
  banner "E8 / §6.3: FSP impact — wildcard and mismatched-length Trojans";
  (* the wildcard trap *)
  let victim = Fsp_deploy.create ~files:[ "f1"; "f2"; "bank"; "f*" ] () in
  let r =
    Fsp_deploy.exec victim ~command:(Fsp_deploy.command_named "del") ~arg:"f*"
  in
  Format.printf
    "  correct client 'del f*'  -> expands to [%s]; files left: [%s]@."
    (String.concat "; " r.Fsp_deploy.expanded)
    (String.concat "; " (Fsp_deploy.list_files victim));
  let clean = Fsp_deploy.create ~files:[ "f1"; "f2"; "bank"; "f*" ] () in
  (match Fsp_deploy.build_message (Fsp_deploy.command_named "del") "f*" with
  | Ok payload -> (
      match Fsp_deploy.deliver_raw clean payload with
      | Fsp_deploy.Accepted { affected; _ } ->
          Format.printf
            "  Trojan 'del f*' (literal) -> deletes [%s]; files left: [%s]@."
            (String.concat "; " affected)
            (String.concat "; " (Fsp_deploy.list_files clean))
      | Fsp_deploy.Rejected -> ())
  | Error _ -> ());
  (* extra payload smuggling *)
  let analysis, _ = Lazy.force fsp_analysis in
  let smugglers =
    List.filter
      (fun (t : Search.trojan) ->
        Fsp_deploy.extra_payload t.Search.witness <> "")
      (Achilles.trojans analysis)
  in
  Format.printf
    "  mismatched-length witnesses carrying covert payload: %d of %d@."
    (List.length smugglers)
    (List.length (Achilles.trojans analysis));
  match smugglers with
  | t :: _ ->
      Format.printf "  e.g. path %S with %d covert byte(s): %s@."
        (Fsp_deploy.effective_path t.Search.witness)
        (String.length (Fsp_deploy.extra_payload t.Search.witness) / 2)
        (Fsp_deploy.extra_payload t.Search.witness)
  | [] -> ()

(* --- E9: PBFT impact (§6.3) ---------------------------------------------------------------- *)

let experiment_impact_pbft () =
  banner "E9 / §6.3: PBFT impact — MAC-attack recovery cost";
  let requests = if !quick then 100 else 500 in
  let clean = Pbft_deploy.run_workload ~requests () in
  Format.printf "  %-18s %9s %10s %10s %12s@." "workload" "committed"
    "recoveries" "cost" "throughput";
  Format.printf "  %-18s %9d %10d %10d %12.2f@." "clean"
    clean.Pbft_deploy.committed clean.Pbft_deploy.recoveries
    clean.Pbft_deploy.total_cost clean.Pbft_deploy.throughput;
  List.iter
    (fun every ->
      let a = Pbft_deploy.run_workload ~malicious_every:every ~requests () in
      Format.printf "  %-18s %9d %10d %10d %12.2f  (%.1fx slower)@."
        (Printf.sprintf "1/%d bad MACs" every)
        a.Pbft_deploy.committed a.Pbft_deploy.recoveries a.Pbft_deploy.total_cost
        a.Pbft_deploy.throughput
        (clean.Pbft_deploy.throughput /. a.Pbft_deploy.throughput))
    [ 10; 4; 2 ]

(* --- E10: local-state modes (§3.4) ------------------------------------------------------------ *)

let experiment_local_state () =
  banner "E10 / §3.4: the three local-state modes on the Paxos acceptor";
  let analyze label interp =
    let analysis, time =
      fresh_measurement (fun () ->
          Achilles.analyze
            ~search_config:
              {
                Search.default_config with
                Search.mask = Some [ "mtype"; "ballot"; "value" ];
                Search.interp = interp;
                Search.witnesses_per_path = 3;
              }
            ~layout:Paxos_model.layout
            ~clients:[ Paxos_model.proposer_concrete ~value:7 ]
            ~server:Paxos_model.acceptor ())
    in
    Format.printf "  %-38s %5.2fs  %d witnesses@." label time
      (List.length (Achilles.trojans analysis))
  in
  analyze "concrete (promised=5)"
    (Local_state.concrete ~prefix:(Paxos_model.phase1_prefix ~ballot:5)
       Interp.default_config);
  let pc, _ =
    Client_extract.extract ~layout:Paxos_model.layout
      [ Paxos_model.proposer_symbolic ]
  in
  let first = List.hd pc.Predicate.paths in
  analyze "constructed symbolic (round 1 symbolic)"
    (Local_state.constructed_symbolic
       ~rounds:
         [
           {
             State.dst = Term.int ~width:8 0;
             State.payload = first.Predicate.message;
             State.path_at_send = List.rev first.Predicate.constraints;
             State.during_analysis = false;
           };
         ]
       Interp.default_config);
  analyze "over-approximate (promised <= 10)"
    (Local_state.over_approximate ~vars:[ ("promised", 16) ]
       ~constrain:(fun m ->
         [
           Term.ule (State.String_map.find "promised" m) (Term.int ~width:16 10);
         ])
       Interp.default_config);
  Format.printf
    "@.  One symbolic run covers what would otherwise need one concrete@.\
    \  analysis per proposal value — the trade-off described in §3.4.@."

(* --- E18: static dependency slicing ----------------------------------------------- *)

let experiment_slice () =
  banner
    "E18: static slice oracle — taint-directed feasibility vs full-path \
     queries";
  (* One measurement = one traced FSP analysis from an identical starting
     state, slice oracle on or off, at a given domain count. The oracle is
     verdict-preserving, so the digest must be byte-identical across every
     combination; what changes is how branch feasibility gets decided —
     statically from equality chains, from the per-run memo, or by a
     cone-restricted query instead of a full-path one — and how many
     differentFrom pairs ever reach the solver. *)
  let measure ~slice ~domains =
    Solver.reset_all_for_tests ();
    Obs.reset_all ();
    Term.set_fresh_counter 0;
    let file = Filename.temp_file "achilles-slice-" ".jsonl" in
    Obs.Trace.enable file;
    let t0 = Unix.gettimeofday () in
    let analysis =
      Achilles.analyze
        ~search_config:
          {
            fsp_search_config with
            Search.domains;
            Search.use_slice = slice;
          }
        ~layout:Fsp_model.layout ~clients:(Fsp_model.clients ())
        ~server:Fsp_model.server ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    Obs.Trace.disable ();
    let summary =
      match Obs.Summary.load file with
      | Ok s -> s
      | Error e ->
          Format.printf "  slice: trace unreadable: %s@." e;
          exit 1
    in
    Sys.remove file;
    let self phase =
      match
        List.find_opt
          (fun r -> r.Obs.Summary.row_phase = phase)
          summary.Obs.Summary.rows
      with
      | Some r -> r.Obs.Summary.self_seconds
      | None -> 0.
    in
    let agg = Solver.aggregate_stats () in
    let counters = (Obs.aggregate ()).Obs.counters in
    let counter name =
      Option.value ~default:0 (List.assoc_opt name counters)
    in
    let cov = analysis.Achilles.report.Search.coverage in
    let pairs_checked, pairs_static =
      match analysis.Achilles.different_from_stats with
      | Some s -> (s.Different_from.pairs_checked, s.Different_from.pairs_static)
      | None -> (0, 0)
    in
    let digest = Report.report_digest analysis.Achilles.report in
    ( digest,
      [
        ("wall_s", Printf.sprintf "%.4f" wall);
        ("solve_s", Printf.sprintf "%.4f" agg.Solver.solve_time);
        ("solver_query_self_s", Printf.sprintf "%.4f" (self "solver_query"));
        ("slice_self_s", Printf.sprintf "%.4f" (self "slice"));
        ("queries", string_of_int agg.Solver.queries);
        ("sat_calls", string_of_int agg.Solver.sat_calls);
        ( "full_path_feasibility",
          string_of_int (counter "interp.feasibility_queries") );
        ("static_branches", string_of_int cov.Search.slice_static_branches);
        ("cone_queries", string_of_int cov.Search.slice_cone_queries);
        ("pairs_checked", string_of_int pairs_checked);
        ("pairs_static", string_of_int pairs_static);
        ("digest", digest);
      ] )
  in
  let domain_counts = [ 1; 4 ] in
  let rows = ref [] in
  let jrows = ref [] in
  let failed = ref false in
  let get k row = List.assoc k row in
  List.iter
    (fun domains ->
      let digest_on, on = measure ~slice:true ~domains in
      let digest_off, off = measure ~slice:false ~domains in
      if digest_on <> digest_off then begin
        Format.eprintf
          "slice: FSP report digest differs between modes at %d domain(s) \
           (%s vs %s)@."
          domains digest_on digest_off;
        failed := true
      end;
      Format.printf
        "  fsp j=%d slice=on  wall %ss, %s solver queries (%s sat calls), \
         %s full-path feasibility, %s branches decided statically, %s cone \
         queries, pairs %s checked / %s static@."
        domains (get "wall_s" on) (get "queries" on) (get "sat_calls" on)
        (get "full_path_feasibility" on)
        (get "static_branches" on)
        (get "cone_queries" on) (get "pairs_checked" on)
        (get "pairs_static" on);
      Format.printf
        "  fsp j=%d slice=off wall %ss, %s solver queries (%s sat calls), \
         %s full-path feasibility, pairs %s checked@."
        domains (get "wall_s" off) (get "queries" off) (get "sat_calls" off)
        (get "full_path_feasibility" off)
        (get "pairs_checked" off);
      (* Wall-clock is noisy under CI; the deterministic proxy for the saved
         interpreter work is the branch-feasibility solver stream: without
         the oracle every branch decision pays a full-path query, with it
         the same decisions are settled statically, from the memo, or by a
         cone-restricted query over the few conjuncts sharing variables
         with the condition. *)
      let feas_on =
        int_of_string (get "full_path_feasibility" on)
        + int_of_string (get "cone_queries" on)
      in
      let feas_off = int_of_string (get "full_path_feasibility" off) in
      let p_on = int_of_string (get "pairs_checked" on) in
      let p_off = int_of_string (get "pairs_checked" off) in
      Format.printf
        "  fsp j=%d feasibility work: %d -> %d branch queries (%.1fx \
         reduction); pairs: %d -> %d (%.1fx); digests identical: %b@."
        domains feas_off feas_on
        (float_of_int feas_off /. float_of_int (max 1 feas_on))
        p_off p_on
        (float_of_int p_off /. float_of_int (max 1 p_on))
        (digest_on = digest_off);
      if domains = 1 then begin
        if feas_off < 2 * feas_on then begin
          Format.eprintf
            "slice: expected a >= 2x branch-feasibility reduction on FSP, \
             got %d (on) vs %d (off)@."
            feas_on feas_off;
          failed := true
        end;
        if p_off < 3 * p_on then begin
          Format.eprintf
            "slice: expected a >= 3x pairs_checked reduction on FSP, got %d \
             (on) vs %d (off)@."
            p_on p_off;
          failed := true
        end
      end;
      let csv mode row =
        Printf.sprintf "fsp,%d,%s,%s" domains mode
          (String.concat "," (List.map snd row))
      in
      let json mode row =
        let module J = Achilles_obs.Obs.Json in
        J.Obj
          (("target", J.Str "fsp")
          :: ("domains", J.Num (float_of_int domains))
          :: ("slice", J.Str mode)
          :: List.map
               (fun (k, v) ->
                 match float_of_string_opt v with
                 | Some f -> (k, J.Num f)
                 | None -> (k, J.Str v))
               row)
      in
      rows := csv "off" off :: csv "on" on :: !rows;
      jrows := json "off" off :: json "on" on :: !jrows)
    domain_counts;
  (* always persist the series, like the other figure experiments *)
  let saved = !csv_dir in
  if saved = None then begin
    (try Unix.mkdir "bench" 0o755
     with Unix.Unix_error ((Unix.EEXIST | Unix.EPERM), _, _) -> ());
    csv_dir := Some (Filename.concat "bench" "figures")
  end;
  write_csv "slice.csv"
    "target,domains,slice,wall_s,solve_s,solver_query_self_s,slice_self_s,queries,sat_calls,full_path_feasibility,static_branches,cone_queries,pairs_checked,pairs_static,digest"
    (List.rev !rows);
  (let module J = Achilles_obs.Obs.Json in
   write_bench_json "BENCH_E18.json"
     [ ("experiment", J.Str "slice"); ("rows", J.Arr (List.rev !jrows)) ]);
  csv_dir := saved;
  if !failed then exit 1

(* --- E19: telemetry cost under serving load ----------------------------------------------------- *)

module Filter = Achilles_filter.Filter
module Daemon = Achilles_filter.Daemon

(* The compiled FSP filter served by the real select loop over a Unix socket:
   one daemon without the metrics endpoint and one with it, scraped over 20
   times a second from the client domain, each driven for fixed-length passes.
   Telemetry must be close to free — its entire point is to be left on in
   production — and the three views of each daemon's counts (Prometheus
   scrape, STATS wire reply, the record [Daemon.run] returns) must agree
   with the in-process verdicts of the messages sent. *)
let experiment_telemetry () =
  banner "E19: telemetry cost and scrape consistency under serving load";
  let module Obs = Achilles_obs.Obs in
  let analysis, _ = Lazy.force fsp_analysis in
  let report = analysis.Achilles.report in
  let filter = Filter.compile ~target:"fsp" ~layout:Fsp_model.layout ~report () in
  let size = Filter.message_size filter in
  let witnesses =
    List.filter_map
      (fun (t : Search.trojan) ->
        if t.Search.confirmed then Some (Array.map Bv.to_int t.Search.witness)
        else None)
      report.Search.trojans
    |> Array.of_list
  in
  assert (Array.length witnesses > 0);
  (* serve-mix's workload shape: witnesses, near-miss mutants, uniform noise *)
  let rng = Random.State.make [| 0x5e19 |] in
  let n = if !quick then 20_000 else 60_000 in
  let msgs =
    Array.init n (fun i ->
        let pick () =
          Array.copy witnesses.(Random.State.int rng (Array.length witnesses))
        in
        let m =
          match i mod 3 with
          | 0 -> pick ()
          | 1 ->
              let m = pick () in
              for _ = 1 to 1 + Random.State.int rng 3 do
                m.(Random.State.int rng size) <- Random.State.int rng 256
              done;
              m
          | _ -> Array.init size (fun _ -> Random.State.int rng 256)
        in
        Bytes.init size (fun j -> Char.chr m.(j)))
  in
  (* ground truth: the in-process evaluator's verdict class per message
     (0 accept, 1 trojan suspect, 2 unknown) *)
  let ev = Filter.evaluator filter in
  let klass =
    Array.map
      (fun b ->
        match Filter.verdict_bytes ev b with
        | Filter.Accept -> 0
        | Filter.Trojan_suspect _ -> 1
        | Filter.Unknown_state -> 2)
      msgs
  in
  (* the whole workload framed back to back, so a batch is one slice of it *)
  let batch = 250 in
  let frame = 4 + size in
  let framed = Bytes.create (n * frame) in
  Array.iteri
    (fun i m ->
      Bytes.set_int32_be framed (i * frame) (Int32.of_int size);
      Bytes.blit m 0 framed ((i * frame) + 4) size)
    msgs;
  let tmp_path tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "achilles-e19-%s-%d.sock" tag (Unix.getpid ()))
  in
  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let read_into fd buf k =
    let rec go off =
      if off < k then
        match Unix.read fd buf off (k - off) with
        | 0 -> failwith "daemon closed the connection"
        | r -> go (off + r)
    in
    go 0
  in
  let read_exactly fd k =
    let buf = Bytes.create k in
    read_into fd buf k;
    buf
  in
  (* A scrape in flight: the request is written immediately, the response
     harvested later — so verdict frames and the scrape answer genuinely
     interleave in the daemon's select loop. (A dedicated scraper domain
     would be the obvious harness, but an extra domain — even a sleeping
     one — costs tens of percent on a single-core box through the
     stop-the-world minor GC, drowning the effect being measured.) *)
  let start_scrape mpath =
    let fd = connect mpath in
    let req = "GET /metrics HTTP/1.0\r\n\r\n" in
    ignore (Unix.write_substring fd req 0 (String.length req));
    fd
  in
  let finish_scrape fd =
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | k ->
          Buffer.add_subbytes buf chunk 0 k;
          go ()
    in
    go ();
    Unix.close fd;
    Buffer.contents buf
  in
  let scrape mpath = finish_scrape (start_scrape mpath) in
  (* the value of an exposition sample, matched on the full name{labels} *)
  let metric_value body sample =
    List.find_map
      (fun line ->
        if String.length line = 0 || line.[0] = '#' then None
        else
          match String.rindex_opt line ' ' with
          | Some i when String.sub line 0 i = sample ->
              float_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
          | _ -> None)
      (String.split_on_char '\n' body)
  in
  let stats_value text key =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ k; v ] when k = key -> float_of_string_opt v
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  let failed = ref false in
  let check name got want =
    if got <> want then begin
      Format.eprintf "telemetry: %s: got %d, want %d@." name got want;
      failed := true
    end
  in
  (* One daemon per mode, both up for the whole experiment, so whatever the
     extra domain costs falls on both modes alike; [sent] counts every frame
     the mode's connection carried, for the ground truth. *)
  let start_daemon ~metrics =
    let tag = if metrics then "on" else "off" in
    let sock = tmp_path tag in
    let mpath = if metrics then Some (tmp_path "metrics") else None in
    let stop = Atomic.make false in
    let daemon =
      Domain.spawn (fun () ->
          Daemon.run
            ?metrics:(Option.map (fun p -> Daemon.Unix_socket p) mpath)
            ~filter ~address:(Daemon.Unix_socket sock)
            ~stop:(fun () -> Atomic.get stop)
            ())
    in
    let rec wait_sock tries =
      if Sys.file_exists sock then ()
      else if tries <= 0 then failwith "daemon socket never appeared"
      else begin
        Unix.sleepf 0.01;
        wait_sock (tries - 1)
      end
    in
    wait_sock 500;
    (tag, sock, mpath, stop, daemon, connect sock, ref 0)
  in
  let modes = [| start_daemon ~metrics:false; start_daemon ~metrics:true |] in
  (* One slice: pipelined batches to one mode's daemon for [slice_seconds],
     cycling through the workload, replies read back in bulk. With metrics,
     a scrape is started as the slice begins and harvested as it ends, so a
     scrape is served every slice: about 22 a second of the mode's driving
     time. A fixed time, not a fixed message count, keeps that rate steady
     however fast the daemon serves. Returns (frames sent, wall time,
     scrapes). *)
  let slice_seconds = 0.045 in
  let replies = Bytes.create (batch * 5) in
  let drive_slice (_, _, mpath, _, _, fd, sent) =
    let t0 = Unix.gettimeofday () in
    let pending = Option.map start_scrape mpath in
    let k = ref 0 in
    let now = ref t0 in
    while !now -. t0 < slice_seconds do
      let from = (!sent mod n) * frame and len = batch * frame in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write fd framed (from + !off) (len - !off)
      done;
      read_into fd replies (batch * 5);
      sent := !sent + batch;
      k := !k + batch;
      now := Unix.gettimeofday ()
    done;
    let scraped =
      match pending with
      | Some sfd when String.length (finish_scrape sfd) > 0 -> 1
      | _ -> 0
    in
    (!k, Unix.gettimeofday () -. t0, scraped)
  in
  (* One pass per mode: slices alternate between the two daemons until each
     mode has been driven for [pass_seconds], so a slow phase of the host
     falls on both modes alike. Returns each mode's rate and the scrapes. *)
  let pass_seconds = if !quick then 0.5 else 1.0 in
  let run_passes () =
    let msgs = [| 0; 0 |] and secs = [| 0.; 0. |] and scrapes = ref 0 in
    while secs.(0) < pass_seconds || secs.(1) < pass_seconds do
      Array.iteri
        (fun m mode ->
          if secs.(m) < pass_seconds then begin
            let k, dt, sc = drive_slice mode in
            msgs.(m) <- msgs.(m) + k;
            secs.(m) <- secs.(m) +. dt;
            scrapes := !scrapes + sc
          end)
        modes
    done;
    ( float_of_int msgs.(0) /. secs.(0),
      float_of_int msgs.(1) /. secs.(1),
      !scrapes,
      secs.(1) )
  in
  (* warm-up: connections, buffers and caches settle before timing *)
  ignore (run_passes ());
  let passes = 7 in
  let results = List.init passes (fun _ -> run_passes ()) in
  (* Consistency, while each daemon is live: the STATS wire reply and (with
     metrics) a final scrape; then the record [Daemon.run] returns. Every
     view must match the in-process verdicts of the frames sent. *)
  Array.iter
    (fun (tag, sock, mpath, stop, daemon, fd, sent) ->
      let final_scrape = Option.map scrape mpath in
      let req = Bytes.create 4 in
      Bytes.set_int32_be req 0 0xFFFFFFFFl;
      ignore (Unix.write fd req 0 4);
      let len =
        Int32.to_int (Bytes.get_int32_be (read_exactly fd 4) 0) land 0xFFFFFFFF
      in
      let stats_txt = Bytes.to_string (read_exactly fd len) in
      Unix.close fd;
      Atomic.set stop true;
      let st = Domain.join daemon in
      (try Sys.remove sock with Sys_error _ -> ());
      Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) mpath;
      let want = Array.make 3 0 in
      for j = 0 to !sent - 1 do
        let k = klass.(j mod n) in
        want.(k) <- want.(k) + 1
      done;
      check (tag ^ " messages") st.Daemon.messages !sent;
      check (tag ^ " accepts") st.Daemon.accepts want.(0);
      check (tag ^ " trojans") st.Daemon.trojan_suspects want.(1);
      check (tag ^ " unknowns") st.Daemon.unknowns want.(2);
      let expected =
        [
          ("messages", !sent, "achilles_daemon_messages_total");
          ("accepts", want.(0), "achilles_daemon_verdicts_total{verdict=\"accept\"}");
          ( "trojan_suspects",
            want.(1),
            "achilles_daemon_verdicts_total{verdict=\"trojan_suspect\"}" );
          ("unknowns", want.(2), "achilles_daemon_verdicts_total{verdict=\"unknown\"}");
          ("dropped_frames", 0, "achilles_daemon_dropped_frames_total");
        ]
      in
      List.iter
        (fun (key, want, sample) ->
          (match stats_value stats_txt key with
          | Some v -> check (tag ^ " stats " ^ key) (int_of_float v) want
          | None ->
              Format.eprintf "telemetry: %s STATS reply lacks %s@." tag key;
              failed := true);
          match final_scrape with
          | None -> ()
          | Some body -> (
              match metric_value body sample with
              | Some v -> check ("scrape " ^ sample) (int_of_float v) want
              | None ->
                  Format.eprintf "telemetry: scrape lacks %s@." sample;
                  failed := true))
        expected)
    modes;
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let off_rates = List.map (fun (r, _, _, _) -> r) results in
  let on_rates = List.map (fun (_, r, _, _) -> r) results in
  let rate_off = median off_rates and rate_on = median on_rates in
  let scrapes = List.fold_left (fun acc (_, _, k, _) -> acc + k) 0 results in
  let on_seconds = List.fold_left (fun acc (_, _, _, dt) -> acc +. dt) 0. results in
  let scrape_rate = float_of_int scrapes /. on_seconds in
  (* The two modes of one pass ran interleaved in the same stretch of time;
     different passes can see host phases tens of percent apart. So the
     overhead compares each pass's modes and takes the median over passes. *)
  let ratio = median (List.map (fun (off, on, _, _) -> on /. off) results) in
  let overhead = Float.max 0. (1. -. ratio) in
  let pp_rates ppf l =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
      (fun ppf r -> Format.fprintf ppf "%.0f" r)
      ppf l
  in
  Format.printf "  metrics off: %.0f msgs/s (median of %d %.1fs passes: %a)@."
    rate_off passes pass_seconds pp_rates off_rates;
  Format.printf
    "  metrics on:  %.0f msgs/s (median of %d %.1fs passes: %a; %d scrapes \
     served concurrently, %.1f/s)@."
    rate_on passes pass_seconds pp_rates on_rates scrapes scrape_rate;
  Format.printf "  overhead:    %.2f%% (median over passes of on/off)@."
    (100. *. overhead);
  if scrapes = 0 then begin
    Format.eprintf "telemetry: no scrape succeeded during the load@.";
    failed := true
  end;
  (* the headline claim: leaving telemetry on costs <= 5% throughput *)
  if overhead > 0.05 then begin
    Format.eprintf "telemetry: expected <= 5%% overhead, got %.2f%%@."
      (100. *. overhead);
    failed := true
  end;
  let saved = !csv_dir in
  if saved = None then begin
    (try Unix.mkdir "bench" 0o755
     with Unix.Unix_error ((Unix.EEXIST | Unix.EPERM), _, _) -> ());
    csv_dir := Some (Filename.concat "bench" "figures")
  end;
  write_csv "e19_telemetry.csv"
    "mode,passes,pass_seconds,msgs_per_sec,overhead_pct,scrapes"
    [
      Printf.sprintf "metrics-off,%d,%.1f,%.0f,0.0,0" passes pass_seconds
        rate_off;
      Printf.sprintf "metrics-on,%d,%.1f,%.0f,%.2f,%d" passes pass_seconds
        rate_on (100. *. overhead) scrapes;
    ];
  (let module J = Obs.Json in
   write_bench_json "BENCH_E19.json"
     [
       ("experiment", J.Str "telemetry");
       ("passes_per_mode", J.Num (float_of_int passes));
       ("pass_seconds", J.Num pass_seconds);
       ("off_msgs_per_sec", J.Num rate_off);
       ("on_msgs_per_sec", J.Num rate_on);
       ("overhead_pct", J.Num (100. *. overhead));
       ("concurrent_scrapes", J.Num (float_of_int scrapes));
       ("scrapes_per_sec", J.Num scrape_rate);
       ("counters_consistent", J.Bool (not !failed));
     ]);
  csv_dir := saved;
  if !failed then exit 1

(* --- driver ------------------------------------------------------------------------------------- *)

let experiments =
  [
    ("table1", experiment_table1);
    ("fig10", experiment_fig10);
    ("fig11", experiment_fig11);
    ("timing", experiment_timing);
    ("fuzzing", experiment_fuzzing);
    ("pbft", experiment_pbft);
    ("ablation", experiment_ablation);
    ("impact-fsp", experiment_impact_fsp);
    ("impact-pbft", experiment_impact_pbft);
    ("local-state", experiment_local_state);
    ("slice", experiment_slice);
    ("telemetry", experiment_telemetry);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse selected = function
    | [] -> selected
    | "--quick" :: rest ->
        quick := true;
        parse selected rest
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        parse selected rest
    | "--list" :: _ ->
        List.iter (fun (name, _) -> print_endline name) experiments;
        exit 0
    | "--experiment" :: name :: rest -> parse (name :: selected) rest
    | arg :: _ ->
        Format.eprintf
          "unknown argument %s (try --list, --experiment NAME, --quick, \
           --csv DIR)@."
          arg;
        exit 2
  in
  let selected = parse [] args in
  let to_run =
    match selected with
    | [] -> experiments
    | names ->
        List.filter_map
          (fun name ->
            match List.assoc_opt name experiments with
            | Some f -> Some (name, f)
            | None ->
                Format.eprintf "unknown experiment %s@." name;
                exit 2)
          (List.rev names)
  in
  Format.printf
    "Achilles experiment harness — reproducing the evaluation of@.\
     \"Finding Trojan Message Vulnerabilities in Distributed Systems\"@.\
     (ASPLOS 2014). See EXPERIMENTS.md for the paper-vs-measured record.@.";
  List.iter (fun (_, f) -> f ()) to_run;
  Format.printf "@.done.@."
