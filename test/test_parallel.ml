(* The multicore search machinery: the domain pool, the thread-safety of the
   per-domain solver layer, and the headline determinism guarantee — any
   [domains] setting produces the identical report, checked here on random
   client/server pairs and on the degenerate cases. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets

(* --- the domain pool --------------------------------------------------------- *)

let test_pool_map () =
  Pool.with_pool ~domains:3 (fun pool ->
      let input = Array.init 20 (fun i -> i + 1) in
      let squares = Pool.parallel_map pool (fun x -> x * x) input in
      Alcotest.(check (array int))
        "squares by index"
        (Array.map (fun x -> x * x) input)
        squares;
      (* the pool survives several batches *)
      let doubles = Pool.parallel_map pool (fun x -> 2 * x) input in
      Alcotest.(check int) "second batch" 40 doubles.(19))

let test_pool_empty () =
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check (array int))
        "empty batch" [||]
        (Pool.parallel_map pool (fun x -> x) [||]);
      Pool.run_tasks pool [||];
      Alcotest.(check int) "still two workers" 2 (Pool.size pool))

exception Task_failed of int

let test_pool_exception () =
  Pool.with_pool ~domains:2 (fun pool ->
      let ran = Array.make 6 false in
      (* the failing task's exception must reach the submitter — and the
         whole batch must still drain, not hang *)
      (match
         Pool.parallel_map pool
           (fun i ->
             ran.(i) <- true;
             if i = 2 || i = 4 then raise (Task_failed i))
           (Array.init 6 Fun.id)
       with
      | _ -> Alcotest.fail "expected the task exception to propagate"
      | exception Task_failed i ->
          Alcotest.(check int) "lowest failing index wins" 2 i);
      Alcotest.(check bool) "batch drained" true (Array.for_all Fun.id ran);
      (* and the pool remains usable afterwards *)
      let r = Pool.parallel_map pool (fun x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool usable after failure" [| 2; 3; 4 |] r)

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 in
  let r = Pool.parallel_map pool (fun x -> x * 10) [| 1; 2 |] in
  Alcotest.(check (array int)) "ran" [| 10; 20 |] r;
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  (match Pool.parallel_map pool (fun x -> x) [| 1 |] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ());
  match Pool.create ~domains:0 with
  | _ -> Alcotest.fail "expected Invalid_argument for zero domains"
  | exception Invalid_argument _ -> ()

(* --- fork/join inside pool tasks ------------------------------------------------ *)

exception Job_failed of int

let test_async_inline () =
  (* outside any pool the thunk runs at [async], its exception waits for
     [await] *)
  let ran = ref false in
  let p = Pool.async (fun () -> ran := true; 42) in
  Alcotest.(check bool) "ran at async" true !ran;
  Alcotest.(check int) "awaited" 42 (Pool.await p);
  let failing = Pool.async (fun () -> raise (Job_failed 0)) in
  match Pool.await failing with
  | _ -> Alcotest.fail "expected the job's exception at await"
  | exception Job_failed 0 -> ()

(* Busy work of varying length, so jobs finish out of fork order. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  !acc

let test_await_fork_order () =
  Pool.with_pool ~domains:3 (fun pool ->
      let results =
        Pool.parallel_map pool
          (fun task ->
            let jobs =
              List.init 20 (fun i ->
                  Pool.async (fun () ->
                      ignore (spin (((20 - i) * 20_000) + (task * 1000)));
                      (task * 100) + i))
            in
            List.map Pool.await jobs)
          (Array.init 4 Fun.id)
      in
      Array.iteri
        (fun task got ->
          Alcotest.(check (list int))
            (Printf.sprintf "task %d results in fork order" task)
            (List.init 20 (fun i -> (task * 100) + i))
            got)
        results)

let test_failing_job_retries_task () =
  Pool.with_pool ~domains:2 (fun pool ->
      let attempts = Array.init 4 (fun _ -> Atomic.make 0) in
      let outcomes =
        Pool.map_with_retries ~retries:2
          ~backoff:(fun _ -> 0.)
          pool
          (fun task ->
            let attempt = Atomic.fetch_and_add attempts.(task) 1 in
            let jobs =
              List.init 5 (fun i ->
                  Pool.async (fun () ->
                      (* task 1's last job fails on the first attempt *)
                      if task = 1 && i = 4 && attempt = 0 then
                        raise (Job_failed task);
                      i))
            in
            List.fold_left (fun acc j -> acc + Pool.await j) 0 jobs)
          (Array.init 4 Fun.id)
      in
      Array.iteri
        (fun task o ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d result" task)
            true
            (o.Pool.result = Ok 10);
          Alcotest.(check int)
            (Printf.sprintf "task %d attempts" task)
            (if task = 1 then 2 else 1)
            o.Pool.attempts)
        outcomes;
      (* the job's own exception reaches a plain batch, too *)
      match
        Pool.parallel_map pool
          (fun task -> Pool.await (Pool.async (fun () -> raise (Job_failed task))))
          [| 7 |]
      with
      | _ -> Alcotest.fail "expected the job exception"
      | exception Job_failed 7 -> ())

let test_jobs_outnumber_domains () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let sums =
            Pool.parallel_map pool
              (fun task ->
                let jobs = List.init 50 (fun i -> Pool.async (fun () -> task + i)) in
                List.fold_left (fun acc j -> acc + Pool.await j) 0 jobs)
              (Array.init (2 * domains) Fun.id)
          in
          Array.iteri
            (fun task s ->
              Alcotest.(check int)
                (Printf.sprintf "%d domains, task %d" domains task)
                ((50 * task) + 1225)
                s)
            sums))
    [ 1; 2 ]

(* Batch tasks running on the calling domain's stack right now. *)
let tasks_on_stack = Domain.DLS.new_key (fun () -> ref 0)

(* A task waiting in [await] for a job another worker is running must not
   start a batch task meanwhile. Odd tasks fork a job and wait until some
   worker picked it up before awaiting it; even tasks are fillers, so the
   deques still hold tasks while the awaited job runs elsewhere (an idle
   worker takes forked jobs before tasks). *)
let test_await_runs_no_task () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let nested = Atomic.make 0 in
          let task i () =
            let depth = Domain.DLS.get tasks_on_stack in
            if !depth > 0 then Atomic.incr nested;
            incr depth;
            Fun.protect
              ~finally:(fun () -> decr depth)
              (fun () ->
                if i mod 2 = 0 then Unix.sleepf 0.005
                else begin
                  let started = Atomic.make false in
                  let job =
                    Pool.async (fun () ->
                        Atomic.set started true;
                        Unix.sleepf 0.02)
                  in
                  (* a 1-domain pool has nobody to pick it up *)
                  let give_up = Unix.gettimeofday () +. 0.2 in
                  while
                    domains > 1
                    && (not (Atomic.get started))
                    && Unix.gettimeofday () < give_up
                  do
                    Domain.cpu_relax ()
                  done;
                  Pool.await job
                end)
          in
          Pool.run_tasks pool (Array.init 12 task);
          Alcotest.(check int)
            (Printf.sprintf "%d domains: no task started inside another" domains)
            0 (Atomic.get nested)))
    [ 1; 2 ]

let test_second_batch_rejected () =
  Pool.with_pool ~domains:2 (fun pool ->
      let rejected =
        Pool.parallel_map pool
          (fun () ->
            let from_job =
              Pool.await
                (Pool.async (fun () ->
                     match Pool.run_tasks pool [| ignore |] with
                     | () -> false
                     | exception Invalid_argument _ -> true))
            in
            let from_task =
              match Pool.run_tasks pool [| ignore |] with
              | () -> false
              | exception Invalid_argument _ -> true
            in
            from_job && from_task)
          [| (); () |]
      in
      Alcotest.(check (array bool)) "nested batches rejected" [| true; true |]
        rejected)

(* --- solver thread-safety ----------------------------------------------------- *)

(* Four domains hammer overlapping sat/unsat queries; every model must
   satisfy its own query, and the per-domain statistics must sum to the
   aggregate snapshot. *)
let test_solver_stress () =
  Solver.reset_all_for_tests ();
  let x = Term.fresh_var ~name:"stress_x" (Term.Bitvec 8) in
  let y = Term.fresh_var ~name:"stress_y" (Term.Bitvec 8) in
  let sat_query i =
    [
      Term.ugt (Term.var x) (Term.int ~width:8 i);
      Term.ult (Term.var x) (Term.int ~width:8 (i + 40));
      Term.eq
        (Term.band (Term.var y) (Term.int ~width:8 1))
        (Term.int ~width:8 (i land 1));
    ]
  in
  let unsat_query i =
    [
      Term.ult (Term.var x) (Term.int ~width:8 i);
      Term.ugt (Term.var x) (Term.int ~width:8 (i + 40));
    ]
  in
  let tasks = 8 and rounds = 5 in
  let before = (Solver.aggregate_stats ()).Solver.queries in
  let results =
    Pool.with_pool ~domains:4 (fun pool ->
        Pool.parallel_map pool
          (fun t ->
            let ok = ref true in
            for r = 0 to rounds - 1 do
              let i = ((t + r) mod 6) + 1 in
              (match Solver.check (sat_query i) with
              | Solver.Sat model ->
                  if not (Model.satisfies model (sat_query i)) then ok := false
              | Solver.Unsat | Solver.Unknown -> ok := false);
              if Solver.is_sat (unsat_query i) then ok := false
            done;
            !ok)
          (Array.init tasks Fun.id))
  in
  Alcotest.(check bool)
    "all answers correct, all models satisfy their query" true
    (Array.for_all Fun.id results);
  let after = (Solver.aggregate_stats ()).Solver.queries in
  Alcotest.(check int)
    "per-domain query counts sum to the aggregate" (tasks * rounds * 2)
    (after - before)

(* Statistics are domain-local: a worker's queries never leak into the main
   domain's record, [reset_stats] only touches the caller, and
   [reset_all_for_tests] wipes everyone. *)
let test_stats_isolation () =
  Solver.reset_all_for_tests ();
  let x = Term.fresh_var ~name:"iso_x" (Term.Bitvec 8) in
  let q = [ Term.ult (Term.var x) (Term.int ~width:8 5) ] in
  ignore (Solver.is_sat q);
  Alcotest.(check int) "main counts its query" 1 (Solver.stats ()).Solver.queries;
  let worker =
    Domain.spawn (fun () ->
        ignore (Solver.is_sat q);
        ignore (Solver.is_sat q);
        ignore
          (Solver.is_unsat
             [
               Term.ult (Term.var x) (Term.int ~width:8 3);
               Term.ugt (Term.var x) (Term.int ~width:8 9);
             ]);
        (Solver.stats ()).Solver.queries)
  in
  let worker_queries = Domain.join worker in
  Alcotest.(check int) "worker saw only its own" 3 worker_queries;
  Alcotest.(check int) "main unchanged by the worker" 1
    (Solver.stats ()).Solver.queries;
  Alcotest.(check int) "aggregate sums both" 4
    (Solver.aggregate_stats ()).Solver.queries;
  Solver.reset_stats ();
  Alcotest.(check int) "reset_stats clears the caller" 0
    (Solver.stats ()).Solver.queries;
  Alcotest.(check int) "…but not the worker's record" 3
    (Solver.aggregate_stats ()).Solver.queries;
  Solver.reset_all_for_tests ();
  Alcotest.(check int) "reset_all clears every domain" 0
    (Solver.aggregate_stats ()).Solver.queries

(* --- determinism: random client/server pairs ---------------------------------- *)

let message_size = 3

let layout =
  Layout.make ~name:"par" [ ("tag", 1); ("a", 1); ("b", 1) ]

(* A random server is a binary decision tree over the three message bytes;
   a random client pins each field to a constant or bounds it from above. *)
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
  prog "gen-server"
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
               let name = Printf.sprintf "in%d_%d" idx i in
               [
                 read_input name ~width:8;
                 when_ (v name >: i8 hi) [ halt ];
                 store "msg" (i8 i) (v name);
               ])
         spec)
    @ [ send (i8 0) "msg" ]
  in
  prog (Printf.sprintf "gen-client%d" idx) ~buffers:[ ("msg", message_size) ] body

let digest_at ~domains ?split_bits ~base client server =
  (* identical starting state for every run: empty caches, zeroed stats,
     and the fresh-variable counter back where extraction left it *)
  Solver.reset_all_for_tests ();
  Term.set_fresh_counter base;
  let config =
    {
      Search.default_config with
      Search.domains;
      Search.split_bits;
      Search.witnesses_per_path = 2;
    }
  in
  Report.report_digest (Search.run ~config ~client ~server ())

let qcheck_parallel_determinism =
  QCheck2.Test.make
    ~name:"reports are identical for domains 1, 2 and 4" ~count:15 case_gen
    (fun (tree, client_specs) ->
      let server = server_of_tree tree in
      let clients = List.mapi client_of_spec client_specs in
      Solver.reset_all_for_tests ();
      Term.reset_fresh_counter ();
      let client, _ = Client_extract.extract ~layout clients in
      let base = Term.fresh_counter_value () in
      let reference = digest_at ~domains:1 ~base client server in
      List.for_all
        (fun (domains, split_bits) ->
          digest_at ~domains ?split_bits ~base client server = reference)
        [ (2, None); (4, None); (4, Some 4); (3, Some 1) ])

(* The empty-frontier degenerate case: a server that never forks gives every
   shard the same spine, exactly one shard owns it, and the merged report
   still matches the sequential one. *)
let test_parallel_no_forks () =
  let open Builder in
  let server =
    prog "reject-all"
      ~buffers:[ ("msg", message_size) ]
      [ receive "msg"; mark_reject "always" ]
  in
  let spec = [ [ Fconst 1; Fconst 2; Fconst 3 ] ] in
  let clients = List.mapi client_of_spec spec in
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let client, _ = Client_extract.extract ~layout clients in
  let base = Term.fresh_counter_value () in
  let d1 = digest_at ~domains:1 ~base client server in
  let d4 = digest_at ~domains:4 ~base client server in
  Alcotest.(check string) "fork-free server: domains 1 = domains 4" d1 d4

(* The differentFrom precompute distributed over a pool must equal the
   sequential one in every observable: matrix cells, the pair-check count,
   and even the fresh-variable ids consumed. *)
let test_different_from_pool () =
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let pc, _ =
    Client_extract.extract ~layout:Fsp_model.layout (Fsp_model.clients ())
  in
  let base = Term.fresh_counter_value () in
  let seq_t, seq_stats =
    Different_from.compute ~mask:Fsp_model.analysis_mask pc
  in
  let seq_counter = Term.fresh_counter_value () in
  Solver.reset_all_for_tests ();
  Term.set_fresh_counter base;
  let par_t, par_stats =
    Pool.with_pool ~domains:4 (fun pool ->
        Different_from.compute ~mask:Fsp_model.analysis_mask ~pool pc)
  in
  Alcotest.(check int) "same pair-check count"
    seq_stats.Different_from.pairs_checked par_stats.Different_from.pairs_checked;
  Alcotest.(check int) "same fresh variables consumed" seq_counter
    (Term.fresh_counter_value ());
  Alcotest.(check (list string)) "same fields covered"
    seq_stats.Different_from.fields_covered
    par_stats.Different_from.fields_covered;
  let n = Predicate.client_path_count pc in
  List.iter
    (fun field ->
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if
            Different_from.different seq_t ~i ~j ~field
            <> Different_from.different par_t ~i ~j ~field
          then
            Alcotest.failf "matrix mismatch at field %s cell (%d, %d)" field i j
        done
      done)
    seq_stats.Different_from.fields_covered

(* --- witness jobs ---------------------------------------------------------------- *)

let fsp_client () =
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let client, _ =
    Client_extract.extract ~layout:Fsp_model.layout (Fsp_model.clients ())
  in
  (client, Term.fresh_counter_value ())

let fsp_config ~domains ~witnesses =
  {
    Search.default_config with
    Search.mask = Some Fsp_model.analysis_mask;
    Search.witnesses_per_path = witnesses;
    Search.distinct_by = Some Fsp_model.block_class;
    Search.domains;
  }

(* Enumerating witnesses allocates no fresh variables: a run that finds 16
   witnesses per accepting state ends on the same fresh counter as one
   that finds none, so a job running inline cannot shift the ids the
   search allocates after it. *)
let test_witness_jobs_fresh_counter () =
  let client, base = fsp_client () in
  let counter_after witnesses =
    Solver.reset_all_for_tests ();
    Term.set_fresh_counter base;
    let r =
      Search.run ~config:(fsp_config ~domains:1 ~witnesses) ~client
        ~server:Fsp_model.server ()
    in
    (List.length r.Search.trojans, Term.fresh_counter_value ())
  in
  let n16, c16 = counter_after 16 and n0, c0 = counter_after 0 in
  Alcotest.(check bool) "witnesses were enumerated" true (n16 > 0 && n0 = 0);
  Alcotest.(check int) "fresh counter unchanged by witness jobs" c0 c16

let trojan_summary (r : Search.report) =
  List.map
    (fun (t : Search.trojan) ->
      ( t.Search.accept_label,
        Array.to_list (Array.map Bv.to_int t.Search.witness),
        t.Search.confirmed ))
    r.Search.trojans

(* A shard's checkpoint is written after its witness jobs are joined: the
   file of every shard of a 2-domain run holds exactly the trojans that
   shard yields when explored alone, inline. *)
let test_checkpoint_holds_shard_trojans () =
  let client, base = fsp_client () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "achilles-par-ckpt" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let config =
    { (fsp_config ~domains:2 ~witnesses:2) with Search.checkpoint_dir = Some dir }
  in
  let server = Fsp_model.server in
  Solver.reset_all_for_tests ();
  Term.set_fresh_counter base;
  let full = Search.run ~config ~client ~server () in
  let bits = Search.Shards.split_bits config in
  let total = 1 lsl bits in
  let fingerprint = Search.Shards.fingerprint ~bits ~config ~client ~server in
  let alone out =
    trojan_summary
      (Search.Shards.merge ~total ~base ~started:0. ~outs_resumed:[ (out, false) ]
         ~failed_shards:[] ~retry_attempts:0 ~interrupted:false ~abandoned:0)
  in
  let per_shard =
    List.init total (fun idx ->
        let file = Filename.concat dir (Printf.sprintf "shard-%04d.ckpt" idx) in
        let saved =
          match Search.Shards.load ~file ~fingerprint ~idx with
          | Some out -> alone out
          | None -> Alcotest.failf "shard %d checkpoint missing" idx
        in
        let explored =
          match
            Search.Shards.explore ~config ~different_from:None ~client ~server
              ~bits ~base ~started:0. idx
          with
          | Some out, _ -> alone out
          | None, _ -> Alcotest.failf "shard %d cancelled" idx
        in
        Alcotest.(check int)
          (Printf.sprintf "shard %d checkpoint trojans" idx)
          (List.length explored) (List.length saved);
        Alcotest.(check bool)
          (Printf.sprintf "shard %d checkpoint holds its own trojans" idx)
          true (saved = explored);
        saved)
  in
  Alcotest.(check bool) "the shards' trojans make up the report" true
    (List.sort compare (List.concat per_shard)
    = List.sort compare (trojan_summary full))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map" `Quick test_pool_map;
          Alcotest.test_case "empty batch" `Quick test_pool_empty;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
        ] );
      ( "fork-join",
        [
          Alcotest.test_case "inline outside a pool" `Quick test_async_inline;
          Alcotest.test_case "results in fork order" `Quick
            test_await_fork_order;
          Alcotest.test_case "failing job retries its task" `Quick
            test_failing_job_retries_task;
          Alcotest.test_case "jobs outnumber domains" `Quick
            test_jobs_outnumber_domains;
          Alcotest.test_case "await runs no batch task" `Quick
            test_await_runs_no_task;
          Alcotest.test_case "second batch rejected" `Quick
            test_second_batch_rejected;
        ] );
      ( "solver",
        [
          Alcotest.test_case "4-domain stress" `Quick test_solver_stress;
          Alcotest.test_case "stats isolation" `Quick test_stats_isolation;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_parallel_determinism;
          Alcotest.test_case "no forks" `Quick test_parallel_no_forks;
          Alcotest.test_case "differentFrom over a pool" `Quick
            test_different_from_pool;
        ] );
      ( "witness",
        [
          Alcotest.test_case "fresh counter untouched" `Slow
            test_witness_jobs_fresh_counter;
          Alcotest.test_case "checkpoint holds its shard's trojans" `Slow
            test_checkpoint_holds_shard_trojans;
        ] );
    ]
