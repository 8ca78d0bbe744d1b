(* The resource-governance and fault-tolerance layer: solver budgets and
   their escalation ladder, deterministic fault injection, the sound
   degradation policies of the search (Unknown keeps things alive, never
   drops a Trojan), shard-level retry/failure isolation, cooperative
   cancellation, and checkpoint/resume. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets

(* --- pool retry / failure isolation ---------------------------------------- *)

exception Flaky of int

let test_pool_retry_then_succeed () =
  Pool.with_pool ~domains:2 (fun pool ->
      let failures_left = Array.make 6 0 in
      failures_left.(2) <- 2;
      (* task 2 fails twice, then succeeds on its third attempt *)
      let outcomes =
        Pool.map_with_retries ~retries:2
          ~backoff:(fun _ -> 0.)
          pool
          (fun i ->
            if failures_left.(i) > 0 then begin
              failures_left.(i) <- failures_left.(i) - 1;
              raise (Flaky i)
            end;
            i * 10)
          (Array.init 6 Fun.id)
      in
      Array.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d succeeded" i)
            true
            (o.Pool.result = Ok (i * 10));
          Alcotest.(check int)
            (Printf.sprintf "task %d attempts" i)
            (if i = 2 then 3 else 1)
            o.Pool.attempts)
        outcomes)

let test_pool_retry_exhausted () =
  Pool.with_pool ~domains:2 (fun pool ->
      let outcomes =
        Pool.map_with_retries ~retries:1
          ~backoff:(fun _ -> 0.)
          pool
          (fun i -> if i = 1 then raise (Flaky 1) else i)
          [| 0; 1; 2 |]
      in
      (* the batch never raises: the hopeless task is recorded as Error
         after retries, its siblings are untouched *)
      Alcotest.(check bool) "task 0 ok" true (outcomes.(0).Pool.result = Ok 0);
      Alcotest.(check bool) "task 2 ok" true (outcomes.(2).Pool.result = Ok 2);
      (match outcomes.(1).Pool.result with
      | Error (Flaky 1) -> ()
      | _ -> Alcotest.fail "expected Error (Flaky 1)");
      Alcotest.(check int) "cap spent" 2 outcomes.(1).Pool.attempts;
      (match
         Pool.map_with_retries ~retries:(-1) pool Fun.id [| 0 |]
       with
      | _ -> Alcotest.fail "expected Invalid_argument for negative retries"
      | exception Invalid_argument _ -> ());
      (* the pool stays usable after a batch with failures *)
      let r = Pool.parallel_map pool (fun x -> x + 1) [| 1 |] in
      Alcotest.(check (array int)) "pool usable" [| 2 |] r)

let test_pool_backoff_called () =
  Pool.with_pool ~domains:1 (fun pool ->
      let pauses = ref [] in
      let outcomes =
        Pool.map_with_retries ~retries:2
          ~backoff:(fun attempt ->
            pauses := attempt :: !pauses;
            0.)
          pool
          (fun () -> raise (Flaky 0))
          [| () |]
      in
      Alcotest.(check int) "three attempts" 3 outcomes.(0).Pool.attempts;
      (* backoff is consulted before each retry, with the attempt number *)
      Alcotest.(check (list int)) "backoff schedule" [ 0; 1 ] (List.rev !pauses))

(* --- solver budgets and the escalation ladder ------------------------------- *)

(* A query the interval pre-check cannot settle, so it must reach the SAT
   solver (fresh variables per call defeat the result cache). *)
let hard_query () =
  let x = Term.fresh_var ~name:"rb_x" (Term.Bitvec 8) in
  let y = Term.fresh_var ~name:"rb_y" (Term.Bitvec 8) in
  [
    Term.eq (Term.bxor (Term.var x) (Term.var y)) (Term.int ~width:8 5);
    Term.eq (Term.add (Term.var x) (Term.var y)) (Term.int ~width:8 9);
  ]

let test_budget_exhaustion () =
  Solver.reset_all_for_tests ();
  (* conflicts = 0 answers Unknown on every rung (0 * 4 = 0), so the whole
     ladder runs and ends in an exhaustion — deterministically *)
  Solver.set_budget (Some (Solver.budget ~conflicts:0 ~escalations:2 ()));
  Fun.protect
    ~finally:(fun () -> Solver.set_budget None)
    (fun () ->
      let q = hard_query () in
      (match Solver.check q with
      | Solver.Unknown -> ()
      | _ -> Alcotest.fail "expected Unknown under a zero conflict budget");
      Alcotest.(check bool) "is_sat false on Unknown" false (Solver.is_sat q);
      Alcotest.(check bool) "is_unsat false on Unknown" false (Solver.is_unsat q);
      let s = Solver.stats () in
      Alcotest.(check int) "x4 retries taken" (2 * 3) s.Solver.budget_escalations;
      Alcotest.(check int) "ladders exhausted" 3 s.Solver.budget_exhaustions;
      Alcotest.(check int) "final Unknowns" 3 s.Solver.unknown_results);
  (* with the budget cleared the same shape of query is decidable again *)
  match Solver.check (hard_query ()) with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected Sat without a budget"

let test_budget_generous_is_invisible () =
  Solver.reset_all_for_tests ();
  Solver.set_budget
    (Some (Solver.budget ~deadline:30. ~conflicts:1_000_000 ()));
  Fun.protect
    ~finally:(fun () -> Solver.set_budget None)
    (fun () ->
      (match Solver.check (hard_query ()) with
      | Solver.Sat _ -> ()
      | _ -> Alcotest.fail "expected Sat under a generous budget");
      let s = Solver.stats () in
      Alcotest.(check int) "no escalations" 0 s.Solver.budget_escalations;
      Alcotest.(check int) "no exhaustions" 0 s.Solver.budget_exhaustions)

let test_budget_validation () =
  (match Solver.budget ~deadline:(-1.) () with
  | _ -> Alcotest.fail "expected Invalid_argument for a negative deadline"
  | exception Invalid_argument _ -> ());
  (match Solver.budget ~conflicts:(-5) () with
  | _ -> Alcotest.fail "expected Invalid_argument for negative conflicts"
  | exception Invalid_argument _ -> ());
  match Solver.budget ~escalations:(-1) () with
  | _ -> Alcotest.fail "expected Invalid_argument for negative escalations"
  | exception Invalid_argument _ -> ()

let test_incremental_budget () =
  Solver.reset_all_for_tests ();
  let x = Term.fresh_var ~name:"rbi_x" (Term.Bitvec 8) in
  let y = Term.fresh_var ~name:"rbi_y" (Term.Bitvec 8) in
  let path =
    [ Term.eq (Term.bxor (Term.var x) (Term.var y)) (Term.int ~width:8 5) ]
  in
  let q = [ Term.eq (Term.add (Term.var x) (Term.var y)) (Term.int ~width:8 9) ] in
  Solver.set_budget (Some (Solver.budget ~conflicts:0 ~escalations:1 ()));
  Fun.protect
    ~finally:(fun () -> Solver.set_budget None)
    (fun () ->
      match Solver.check_assuming ~path q with
      | Solver.Unknown -> ()
      | _ -> Alcotest.fail "expected Unknown from a zero-budget frame context");
  match Solver.check_assuming ~path q with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected Sat once the budget is lifted"

(* --- fault injection --------------------------------------------------------- *)

let test_fault_injection () =
  Solver.reset_all_for_tests ();
  Solver.set_fault_injection ~rate:1.0 ();
  Fun.protect
    ~finally:(fun () -> Solver.set_fault_injection ())
    (fun () ->
      Alcotest.(check (float 0.)) "rate readable" 1.0 (Solver.fault_rate ());
      (match Solver.check (hard_query ()) with
      | Solver.Unknown -> ()
      | _ -> Alcotest.fail "expected Unknown at fault rate 1");
      Alcotest.(check bool) "faults counted" true
        ((Solver.stats ()).Solver.injected_faults > 0));
  Alcotest.(check (float 0.)) "off again" 0. (Solver.fault_rate ());
  (match Solver.check (hard_query ()) with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected Sat with injection off");
  match Solver.set_fault_injection ~rate:1.5 () with
  | _ -> Alcotest.fail "expected Invalid_argument for rate > 1"
  | exception Invalid_argument _ -> ()

(* --- random client/server pairs (same shape as the determinism suite) -------- *)

let message_size = 3
let layout = Layout.make ~name:"rob" [ ("tag", 1); ("a", 1); ("b", 1) ]

type tree =
  | Leaf of bool (* accept? *)
  | Node of { field : int; op : int; konst : int; t : tree; f : tree }

type field_spec = Fconst of int | Fbounded of int

let tree_gen =
  QCheck2.Gen.(
    sized_size (int_range 1 3) @@ fix (fun self depth ->
        let leaf = map (fun b -> Leaf b) bool in
        if depth = 0 then leaf
        else
          frequency
            [
              (1, leaf);
              ( 3,
                let* field = int_range 0 (message_size - 1) in
                let* op = int_range 0 3 in
                let* konst = int_range 0 7 in
                let* t = self (depth - 1) in
                let* f = self (depth - 1) in
                return (Node { field; op; konst; t; f }) );
            ]))

let client_gen =
  QCheck2.Gen.(
    list_size (int_range 1 2)
      (list_repeat message_size
         (oneof
            [
              map (fun c -> Fconst c) (int_range 0 7);
              map (fun hi -> Fbounded hi) (int_range 0 7);
            ])))

let case_gen = QCheck2.Gen.pair tree_gen client_gen

let server_of_tree tree =
  let open Builder in
  let labels = ref 0 in
  let next () =
    incr labels;
    string_of_int !labels
  in
  let rec block = function
    | Leaf true -> [ mark_accept ("ok" ^ next ()) ]
    | Leaf false -> [ mark_reject ("no" ^ next ()) ]
    | Node { field; op; konst; t; f } ->
        let byte = load "msg" (i8 field) in
        let cond =
          match op with
          | 0 -> byte =: i8 konst
          | 1 -> byte <>: i8 konst
          | 2 -> byte <: i8 konst
          | _ -> byte >: i8 konst
        in
        [ if_ cond (block t) (block f) ]
  in
  prog "rob-server"
    ~buffers:[ ("msg", message_size) ]
    (receive "msg" :: block tree)

let client_of_spec idx spec =
  let open Builder in
  let body =
    List.concat
      (List.mapi
         (fun i fs ->
           match fs with
           | Fconst c -> [ store "msg" (i8 i) (i8 c) ]
           | Fbounded hi ->
               let name = Printf.sprintf "rin%d_%d" idx i in
               [
                 read_input name ~width:8;
                 when_ (v name >: i8 hi) [ halt ];
                 store "msg" (i8 i) (v name);
               ])
         spec)
    @ [ send (i8 0) "msg" ]
  in
  prog
    (Printf.sprintf "rob-client%d" idx)
    ~buffers:[ ("msg", message_size) ]
    body

let extract_case (tree, client_specs) =
  let server = server_of_tree tree in
  let clients = List.mapi client_of_spec client_specs in
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let client, _ = Client_extract.extract ~layout clients in
  (client, server, Term.fresh_counter_value ())

let run_case ?(config = Search.default_config) ~base client server =
  Solver.reset_all_for_tests ();
  Term.set_fresh_counter base;
  Search.run ~config ~client ~server ()

(* Trojan identity across degraded runs: the accept label, which the
   generated servers make unique per accepting path. (State ids cannot be
   compared — they are allocation/route ranks, and a degraded run that
   keeps extra states alive shifts everyone's rank.) *)
let trojan_labels (r : Search.report) =
  List.sort_uniq compare
    (List.map (fun (t : Search.trojan) -> t.Search.accept_label) r.Search.trojans)

let qcheck_fault_superset =
  QCheck2.Test.make
    ~name:"injected Unknowns only ever add trojans (never drop one)" ~count:10
    case_gen
    (fun case ->
      let client, server, base = extract_case case in
      let clean = run_case ~base client server in
      if not (Search.coverage_complete clean.Search.coverage) then false
      else begin
        let clean_labels = trojan_labels clean in
        let faulty_ok (domains, seed) =
          Solver.set_fault_injection ~rate:0.3 ~seed ();
          let faulty =
            Fun.protect
              ~finally:(fun () -> Solver.set_fault_injection ())
              (fun () ->
                run_case
                  ~config:{ Search.default_config with Search.domains }
                  ~base client server)
          in
          let faulty_labels = trojan_labels faulty in
          (* every fault-free trojan state is still reported… *)
          List.for_all (fun l -> List.mem l faulty_labels) clean_labels
          (* …faults never make coverage incomplete (they degrade answers,
             they don't lose shards)… *)
          && Search.coverage_complete faulty.Search.coverage
          (* …and a clean run's confirmed trojans stay confirmed: only a
             degraded witness query may flag one unconfirmed *)
          && List.for_all
               (fun (t : Search.trojan) ->
                 t.Search.confirmed
                 || faulty.Search.coverage.Search.unknown_witness > 0)
               faulty.Search.trojans
          (* …each degraded witness query is one unconfirmed trojan, also
             when its job ran on another domain than its shard *)
          && faulty.Search.coverage.Search.unknown_witness
             = List.length
                 (List.filter
                    (fun (t : Search.trojan) -> not t.Search.confirmed)
                    faulty.Search.trojans)
        in
        List.for_all faulty_ok [ (1, 7); (4, 42) ]
      end)

let qcheck_budget_superset =
  QCheck2.Test.make
    ~name:"a starved solver budget over-approximates, never drops" ~count:10
    case_gen
    (fun case ->
      let client, server, base = extract_case case in
      let clean = run_case ~base client server in
      let clean_labels = trojan_labels clean in
      let starved =
        run_case
          ~config:
            {
              Search.default_config with
              Search.solver_budget =
                Some (Solver.budget ~conflicts:0 ~escalations:1 ());
            }
          ~base client server
      in
      let starved_labels = trojan_labels starved in
      List.for_all (fun l -> List.mem l starved_labels) clean_labels
      && Search.coverage_complete starved.Search.coverage)

(* --- shard chaos: retry and failure isolation -------------------------------- *)

exception Chaos_crash

let fixed_case =
  ( Node
      {
        field = 0;
        op = 2;
        konst = 4;
        t = Node { field = 1; op = 0; konst = 2; t = Leaf true; f = Leaf false };
        f = Leaf true;
      },
    [ [ Fbounded 5; Fconst 2; Fbounded 3 ]; [ Fconst 1; Fbounded 6; Fconst 0 ] ]
  )

let test_chaos_shard_retry () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let crashes = Atomic.make 0 in
  let config =
    {
      Search.default_config with
      Search.domains = 4;
      Search.shard_backoff = (fun _ -> 0.);
      Search.chaos =
        Some
          (fun ~shard_index ~attempt ->
            if shard_index = 0 && attempt < 2 then begin
              Atomic.incr crashes;
              raise Chaos_crash
            end);
    }
  in
  let report = run_case ~config ~base client server in
  Alcotest.(check int) "chaos fired twice" 2 (Atomic.get crashes);
  Alcotest.(check bool) "coverage complete after retries" true
    (Search.coverage_complete report.Search.coverage);
  Alcotest.(check int) "retries accounted" 2
    report.Search.coverage.Search.shard_retry_attempts;
  Alcotest.(check string) "report identical to the undisturbed run"
    (Report.report_digest clean)
    (Report.report_digest report)

let test_chaos_shard_failure_isolated () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let config =
    {
      Search.default_config with
      Search.domains = 4;
      Search.shard_retries = 1;
      Search.shard_backoff = (fun _ -> 0.);
      Search.chaos =
        Some
          (fun ~shard_index ~attempt:_ ->
            if shard_index = 1 then raise Chaos_crash);
    }
  in
  (* the hopeless shard must not tear down the run: every other shard's
     results are delivered, the loss is reported as coverage *)
  let report = run_case ~config ~base client server in
  let c = report.Search.coverage in
  Alcotest.(check (list int)) "failed shard recorded" [ 1 ] c.Search.failed_shards;
  Alcotest.(check int) "everything else completed"
    (c.Search.total_shards - 1)
    c.Search.completed_shards;
  Alcotest.(check bool) "coverage partial" false (Search.coverage_complete c);
  Alcotest.(check bool) "partial digest differs from the complete one" true
    (Report.report_digest clean <> Report.report_digest report)

(* --- cooperative cancellation and checkpoint/resume -------------------------- *)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let test_checkpoint_resume_identical () =
  let client, server, base = extract_case fixed_case in
  let dir = fresh_dir "achilles-rob-resume" in
  let config ~resume =
    {
      Search.default_config with
      Search.domains = 4;
      Search.checkpoint_dir = Some dir;
      Search.resume = resume;
    }
  in
  let full = run_case ~config:(config ~resume:false) ~base client server in
  let digest = Report.report_digest full in
  let shards = Sys.readdir dir in
  Alcotest.(check int) "one checkpoint per shard"
    full.Search.coverage.Search.total_shards (Array.length shards);
  (* lose a couple of shards, as a kill -9 mid-run would *)
  Sys.remove (Filename.concat dir "shard-0001.ckpt");
  Sys.remove (Filename.concat dir "shard-0003.ckpt");
  let resumed = run_case ~config:(config ~resume:true) ~base client server in
  Alcotest.(check string) "resumed report byte-identical" digest
    (Report.report_digest resumed);
  Alcotest.(check int) "only missing shards re-explored"
    (full.Search.coverage.Search.total_shards - 2)
    resumed.Search.coverage.Search.resumed_shards;
  Alcotest.(check bool) "resumed coverage complete" true
    (Search.coverage_complete resumed.Search.coverage)

let test_checkpoint_fingerprint_guard () =
  let client, server, base = extract_case fixed_case in
  let dir = fresh_dir "achilles-rob-fpr" in
  let config ~witnesses ~resume =
    {
      Search.default_config with
      Search.domains = 2;
      Search.witnesses_per_path = witnesses;
      Search.checkpoint_dir = Some dir;
      Search.resume = resume;
    }
  in
  ignore (run_case ~config:(config ~witnesses:1 ~resume:false) ~base client server);
  (* a config change invalidates every checkpoint: nothing may be resumed
     into a run it no longer matches *)
  let r = run_case ~config:(config ~witnesses:2 ~resume:true) ~base client server in
  Alcotest.(check int) "stale checkpoints ignored" 0
    r.Search.coverage.Search.resumed_shards

let test_cancel_partial_then_resume () =
  let client, server, base = extract_case fixed_case in
  let clean = run_case ~base client server in
  let dir = fresh_dir "achilles-rob-cancel" in
  let calls = Atomic.make 0 in
  let interrupted_config =
    {
      Search.default_config with
      Search.domains = 4;
      Search.checkpoint_dir = Some dir;
      (* trips partway through the run, like a SIGINT would: the flag is
         polled at every branch constraint and at shard boundaries *)
      Search.cancel = (fun () -> Atomic.fetch_and_add calls 1 >= 10);
    }
  in
  let partial = run_case ~config:interrupted_config ~base client server in
  let c = partial.Search.coverage in
  Alcotest.(check bool) "interruption reported" true c.Search.interrupted;
  Alcotest.(check bool) "not all shards completed" true
    (c.Search.completed_shards < c.Search.total_shards);
  Alcotest.(check bool) "partial run digests differently" true
    (Report.report_digest clean <> Report.report_digest partial);
  (* the flush is per completed shard: picking the run back up from the
     checkpoint directory reproduces the uninterrupted report exactly *)
  let resumed =
    run_case
      ~config:
        {
          Search.default_config with
          Search.domains = 4;
          Search.checkpoint_dir = Some dir;
          Search.resume = true;
        }
      ~base client server
  in
  Alcotest.(check string) "resume completes to the clean report"
    (Report.report_digest clean)
    (Report.report_digest resumed);
  Alcotest.(check bool) "resumed coverage complete" true
    (Search.coverage_complete resumed.Search.coverage)

(* --- FSP end-to-end under faults (the acceptance drill) ----------------------- *)

let distinct_trojan_states (r : Search.report) =
  List.sort_uniq compare
    (List.map
       (fun (t : Search.trojan) -> t.Search.server_state_id)
       r.Search.trojans)

let server_fsp = Fsp_model.server

let test_fsp_under_faults () =
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let fsp_config ~domains =
    {
      Search.default_config with
      Search.mask = Some Fsp_model.analysis_mask;
      Search.witnesses_per_path = 2;
      Search.distinct_by = Some Fsp_model.block_class;
      Search.domains;
    }
  in
  let client, _ =
    Client_extract.extract ~layout:Fsp_model.layout (Fsp_model.clients ())
  in
  let base = Term.fresh_counter_value () in
  let clean = run_case ~config:(fsp_config ~domains:4) ~base client server_fsp in
  let clean_states = distinct_trojan_states clean in
  Solver.set_fault_injection ~rate:0.05 ~seed:0xf5b ();
  let faulty =
    Fun.protect
      ~finally:(fun () -> Solver.set_fault_injection ())
      (fun () ->
        run_case ~config:(fsp_config ~domains:4) ~base client server_fsp)
  in
  (* frame contexts decided queries while faults were being injected into
     them *)
  let s = Solver.aggregate_stats () in
  Alcotest.(check bool) "faults landed on the incremental path" true
    (s.Solver.injected_faults > 0 && s.Solver.incremental_checks > 0);
  Alcotest.(check bool) "faulty run terminated with complete coverage" true
    (Search.coverage_complete faulty.Search.coverage);
  Alcotest.(check bool) "no fewer trojan-bearing server states" true
    (List.length (distinct_trojan_states faulty) >= List.length clean_states);
  Alcotest.(check bool) "all clean-run trojans are confirmed" true
    (List.for_all (fun (t : Search.trojan) -> t.Search.confirmed) clean.Search.trojans);
  (* a budget of zero conflicts with one escalation: most queries answer
     Unknown, and the search must keep every state alive rather than drop
     one *)
  let starved =
    run_case
      ~config:
        {
          (fsp_config ~domains:4) with
          Search.solver_budget =
            Some (Solver.budget ~conflicts:0 ~escalations:1 ());
        }
      ~base client server_fsp
  in
  Alcotest.(check bool) "starved run terminated with complete coverage" true
    (Search.coverage_complete starved.Search.coverage);
  (* accept labels, not state ids: FSP's are unique per accepting state *)
  let clean_labels = trojan_labels clean in
  Alcotest.(check (list string)) "starved run keeps every clean trojan state"
    clean_labels
    (List.filter (fun l -> List.mem l (trojan_labels starved)) clean_labels);
  (* every confirmed witness of the degraded run still fire-drills cleanly;
     unconfirmed ones are skipped, not misreported as rejections *)
  let confirmation =
    Achilles_runtime.Inject.confirm ~server:server_fsp faulty.Search.trojans
  in
  Alcotest.(check int) "no false positives among confirmed witnesses" 0
    confirmation.Achilles_runtime.Inject.rejected

(* --- accounting follows the witness job ---------------------------------------- *)

let unconfirmed (r : Search.report) =
  List.length
    (List.filter (fun (t : Search.trojan) -> not t.Search.confirmed) r.Search.trojans)

(* Witness jobs run on whichever domain is idle, but their Unknowns,
   budget exhaustions and injected faults are booked to the shard that
   forked them: at 4 domains under injected faults the coverage block
   accounts for every fault and exhaustion any domain hit during the
   search, and for exactly the unconfirmed trojans. Repeated until some
   job ran on a domain other than its shard's (scheduling decides that). *)
let test_job_accounting_under_faults () =
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let client, _ =
    Client_extract.extract ~layout:Fsp_model.layout (Fsp_model.clients ())
  in
  let base = Term.fresh_counter_value () in
  let config =
    {
      Search.default_config with
      Search.mask = Some Fsp_model.analysis_mask;
      Search.witnesses_per_path = 2;
      Search.distinct_by = Some Fsp_model.block_class;
      Search.domains = 4;
      Search.solver_budget =
        Some (Solver.budget ~conflicts:1_000_000 ~escalations:1 ());
    }
  in
  let remote_jobs () =
    Option.value ~default:0
      (List.assoc_opt "search.witness_jobs_remote"
         (Achilles_obs.Obs.aggregate ()).Achilles_obs.Obs.counters)
  in
  let rec attempt k =
    Achilles_obs.Obs.reset_all ();
    Solver.set_fault_injection ~rate:0.2 ~seed:(0xacc + k) ();
    let r =
      Fun.protect
        ~finally:(fun () -> Solver.set_fault_injection ())
        (fun () -> run_case ~config ~base client server_fsp)
    in
    let s = Solver.aggregate_stats () and c = r.Search.coverage in
    Alcotest.(check bool) "complete" true (Search.coverage_complete c);
    Alcotest.(check int) "unknown_witness counts the unconfirmed trojans"
      (unconfirmed r) c.Search.unknown_witness;
    Alcotest.(check int) "every injected fault accounted"
      s.Solver.injected_faults c.Search.injected_faults;
    Alcotest.(check int) "every budget exhaustion accounted"
      s.Solver.budget_exhaustions c.Search.budget_exhaustions;
    Alcotest.(check bool) "faults and exhaustions happened" true
      (c.Search.injected_faults > 0 && c.Search.budget_exhaustions > 0);
    if remote_jobs () = 0 && k < 5 then attempt (k + 1) else remote_jobs ()
  in
  Alcotest.(check bool) "some witness job ran on another domain" true
    (attempt 0 > 0)

let () =
  Alcotest.run "robustness"
    [
      ( "pool-retries",
        [
          Alcotest.test_case "retry then succeed" `Quick
            test_pool_retry_then_succeed;
          Alcotest.test_case "retries exhausted" `Quick test_pool_retry_exhausted;
          Alcotest.test_case "backoff schedule" `Quick test_pool_backoff_called;
        ] );
      ( "solver-budgets",
        [
          Alcotest.test_case "exhaustion ladder" `Quick test_budget_exhaustion;
          Alcotest.test_case "generous budget invisible" `Quick
            test_budget_generous_is_invisible;
          Alcotest.test_case "validation" `Quick test_budget_validation;
          Alcotest.test_case "incremental sessions" `Quick
            test_incremental_budget;
          Alcotest.test_case "fault injection" `Quick test_fault_injection;
        ] );
      ( "degradation",
        [
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_fault_superset;
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_budget_superset;
        ] );
      ( "shard-isolation",
        [
          Alcotest.test_case "chaos retry" `Quick test_chaos_shard_retry;
          Alcotest.test_case "failure isolated" `Quick
            test_chaos_shard_failure_isolated;
        ] );
      ( "checkpoint-resume",
        [
          Alcotest.test_case "resume byte-identical" `Quick
            test_checkpoint_resume_identical;
          Alcotest.test_case "fingerprint guard" `Quick
            test_checkpoint_fingerprint_guard;
          Alcotest.test_case "cancel, flush, resume" `Quick
            test_cancel_partial_then_resume;
        ] );
      ( "fsp-drill",
        [ Alcotest.test_case "FSP under faults" `Slow test_fsp_under_faults ] );
      ( "job-accounting",
        [
          Alcotest.test_case "faults follow the witness job" `Slow
            test_job_accounting_under_faults;
        ] );
    ]
