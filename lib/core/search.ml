open Achilles_smt
open Achilles_symvm
module Obs = Achilles_obs.Obs
module Slice = Achilles_slice.Slice

type config = {
  drop_alive : bool;
  use_different_from : bool;
  prune_no_trojan : bool;
  check_overlap : bool;
  explain_drops : bool;
      (* record, for every dropped client path, the unsat core of server
         constraints that made it incompatible *)
  use_slice : bool;
      (* answer branch feasibility through the static-slice oracle (cone
         restriction + equality-chain decisions); verdict-preserving, so
         report digests are unchanged *)
  mask : string list option;
  witnesses_per_path : int;
  distinct_by : (Bv.t array -> Term.var array -> Term.t) option;
  interp : Interp.config;
  domains : int;
  split_bits : int option;
  solver_budget : Solver.budget option;
      (* ambient per-query budget installed in every search worker *)
  shard_retries : int; (* extra attempts per raising shard task *)
  shard_backoff : int -> float; (* seconds to sleep before retry [n+1] *)
  checkpoint_dir : string option;
      (* flush each completed shard's event log here (atomically) *)
  resume : bool; (* reuse matching shard checkpoints already in the dir *)
  cancel : unit -> bool;
      (* polled cooperative interrupt: when it turns true, in-flight
         exploration stops and only already-completed shards are reported *)
  chaos : (shard_index:int -> attempt:int -> unit) option;
      (* test hook run at each shard attempt start; may raise to simulate
         a crashing worker *)
}

let domains_from_env () =
  match Sys.getenv_opt "ACHILLES_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)
  | None -> 1

let default_config =
  {
    drop_alive = true;
    use_different_from = true;
    prune_no_trojan = true;
    check_overlap = true;
    explain_drops = false;
    use_slice = Slice.enabled ();
    mask = None;
    witnesses_per_path = 1;
    distinct_by = None;
    interp = Interp.default_config;
    domains = domains_from_env ();
    split_bits = None;
    solver_budget = None;
    shard_retries = 2;
    shard_backoff = (fun attempt -> 0.05 *. (2. ** float_of_int attempt));
    checkpoint_dir = None;
    resume = false;
    cancel = (fun () -> false);
    chaos = None;
  }

type trojan = {
  server_state_id : int;
  accept_label : string;
  witness : Bv.t array;
  symbolic : Term.t list;
  msg_vars : Term.var array;
  confirmed : bool;
      (* false: the witness query went Unknown, so the symbolic expression
         stands but no concrete message was extracted (witness is zeros) *)
  found_at : float;
}

type alive_sample = { state_id : int; path_length : int; alive : int }

type drop_explanation = {
  at_state : int; (* server state where the client path died *)
  dropped_path : int; (* cp_id *)
  conflicting : Term.t list; (* server constraints in the unsat core *)
}

type stats = {
  accepting_paths : int;
  rejecting_paths : int;
  other_paths : int;
  pruned_states : int;
  forks : int;
  alive_checks : int;
  transitive_drops : int;
  alive_samples : alive_sample list;
  wall_time : float;
}

(* Honest accounting of everything that degraded a run: failed or resumed
   shards, Unknown answers by query site, budget exhaustions, injected
   faults, cancellation. A pristine run has [coverage_complete] true and
   all-zero degradation counters. *)
type coverage = {
  total_shards : int;
  completed_shards : int; (* shards whose event log made the report *)
  failed_shards : int list; (* shard indices that exhausted their retries *)
  resumed_shards : int; (* completed shards loaded from a checkpoint *)
  shard_retry_attempts : int; (* extra shard attempts spent on retries *)
  interrupted : bool; (* the cooperative cancel fired *)
  unknown_alive : int; (* alive-check Unknowns: client path kept alive *)
  unknown_prune : int; (* prune-check Unknowns: state kept *)
  unknown_witness : int; (* witness Unknowns: trojan emitted unconfirmed *)
  budget_exhaustions : int;
  injected_faults : int;
  abandoned_states : int; (* states cut off by cancellation *)
  (* solver result-cache health at the end of the run, process-wide: live
     entries across every domain's bounded cache, evictions and hits since
     the last stats reset, and the query total the hits are a fraction of.
     Never digested: cache behavior may not influence reported results. *)
  solver_cache_entries : int;
  solver_cache_evictions : int;
  solver_cache_hits : int;
  solver_queries : int;
  (* slice-oracle effectiveness, process-wide since the last stats reset
     (like the cache stats above — never digested, and multi-process
     workers' counters stay in their own processes): branch decisions
     settled statically, and full-path feasibility queries replaced by
     cone-restricted ones *)
  slice_static_branches : int;
  slice_cone_queries : int;
}

(* Cumulative Obs counter reads, mirroring [Solver.aggregate_stats]. *)
let slice_counters () =
  let counters = (Obs.aggregate ()).Obs.counters in
  let get name = Option.value ~default:0 (List.assoc_opt name counters) in
  (get "slice.branch_skipped", get "slice.cone_queries")

let coverage_complete c =
  c.completed_shards = c.total_shards
  && c.failed_shards = [] && not c.interrupted

type report = {
  trojans : trojan list;
  accepting : Predicate.server_path list;
  drops : drop_explanation list; (* populated when [explain_drops] is set *)
  search_stats : stats;
  coverage : coverage;
}

(* --- parallel-mode event log ----------------------------------------------

   A shard worker cannot use sequential state ids (each task numbers its own
   states), so instead of filling the report directly it logs every
   observation keyed by the state's route. Only the shard that *owns* a
   state records it, so the merge is a concatenation — no deduplication —
   sorted by route, with ids rewritten to the lexicographic rank of the
   route, which equals the id the sequential depth-first run would have
   assigned. *)

type cevent = {
  (* one per recorded constraint on a message-constrained state *)
  ce_route : string;
  ce_plen : int;
  ce_alive : int;
  ce_checks : int;
  ce_transitive : int;
  ce_pruned : bool;
}

type wtrojan = {
  wt_route : string;
  wt_idx : int; (* enumeration index within the accepting state *)
  wt_label : string;
  wt_witness : Bv.t array;
  wt_symbolic : Term.t list;
  wt_msg_vars : Term.var array;
  wt_confirmed : bool;
  wt_found_at : float;
}

type waccept = {
  wa_route : string;
  wa_label : string;
  wa_msg_vars : Term.var array;
  wa_constraints : Term.t list;
}

type wdrop = {
  wd_route : string;
  wd_plen : int;
  wd_ord : int; (* position within the constraint event *)
  wd_path : int;
  wd_conflicting : Term.t list;
}

type recorder = {
  mutable rec_routes : string list; (* owned fork children *)
  mutable rec_cevents : cevent list;
  mutable rec_terminals : (string * State.status) list;
  mutable rec_trojans : wtrojan list;
  mutable rec_accepting : waccept list;
  mutable rec_drops : wdrop list;
  mutable rec_forks : int;
  (* degradation accounting (coverage block), owner-deduplicated like the
     other events *)
  mutable rec_unknown_alive : int;
  mutable rec_unknown_prune : int;
  mutable rec_unknown_witness : int;
  mutable rec_exhaustions : int; (* solver-stat delta over the task *)
  mutable rec_faults : int;
}

let fresh_recorder () =
  {
    rec_routes = [];
    rec_cevents = [];
    rec_terminals = [];
    rec_trojans = [];
    rec_accepting = [];
    rec_drops = [];
    rec_forks = 0;
    rec_unknown_alive = 0;
    rec_unknown_prune = 0;
    rec_unknown_witness = 0;
    rec_exhaustions = 0;
    rec_faults = 0;
  }

(* One accepting state's witness enumeration, as a forked job returns it. *)
type witness_job = {
  wj_trojans : wtrojan list; (* enumeration order *)
  wj_unknown : int; (* witness queries degraded to unconfirmed *)
  wj_exhaustions : int; (* solver budget exhaustions inside the job *)
  wj_faults : int; (* injected solver faults inside the job *)
}

(* Mutable search context shared by the interpreter hooks. *)
type search_ctx = {
  cfg : config;
  client : Predicate.client_predicate;
  paths : Predicate.client_path array;
  different_from : Different_from.t option;
  alive : (int, int list) Hashtbl.t; (* state id -> alive client indices *)
  bindings : (int, Term.t list) Hashtbl.t; (* client idx -> msgS=msgC binding *)
  negations : (int, Term.t) Hashtbl.t; (* client idx -> negate(pathCi) *)
  shard : Interp.shard option; (* the route shard this worker explores *)
  recorder : recorder option; (* event log target (parallel mode only) *)
  mutable server_vars : Term.var array option;
  mutable field_var_ids : (string * int list) list; (* server var ids per field *)
  mutable trojans_rev : trojan list;
  mutable accepting_rev : Predicate.server_path list;
  mutable samples_rev : alive_sample list;
  mutable drops_rev : drop_explanation list;
  mutable n_accepting : int;
  mutable n_rejecting : int;
  mutable n_other : int;
  mutable n_pruned : int;
  mutable n_alive_checks : int;
  mutable n_transitive : int;
  mutable n_unknown_alive : int;
  mutable n_unknown_prune : int;
  mutable n_unknown_witness : int;
  mutable n_abandoned : int; (* states cut off by cancellation *)
  mutable jobs_rev : (int * witness_job Pool.promise) list;
      (* forked witness jobs with their accepting state's id, newest first *)
  mutable job_exhaustions : int; (* solver counts of the joined jobs *)
  mutable job_faults : int;
  started : float;
}

let all_indices ctx = List.init (Array.length ctx.paths) Fun.id

(* Does this worker record observations for this state? Sequential runs
   record everything; a shard worker records only the states it owns. *)
let records ctx (st : State.t) =
  match ctx.shard with
  | None -> true
  | Some sh -> Interp.shard_owns sh st.State.route

let negation_for ctx idx =
  match Hashtbl.find_opt ctx.negations idx with
  | Some n -> n
  | None ->
      let server_vars = Option.get ctx.server_vars in
      let n =
        Negate.negate_path ~check_overlap:ctx.cfg.check_overlap
          ?mask:ctx.cfg.mask ~layout:ctx.client.Predicate.layout ~server_vars
          ctx.paths.(idx)
      in
      Hashtbl.replace ctx.negations idx n;
      n

let setup_server_vars ctx vars =
  match ctx.server_vars with
  | Some existing when existing == vars -> ()
  | Some _ ->
      (* A second, distinct symbolic message would need per-state negations;
         all our server models receive the analyzed message exactly once. *)
      invalid_arg "Search: server received more than one symbolic message"
  | None ->
      ctx.server_vars <- Some vars;
      let layout = ctx.client.Predicate.layout in
      ctx.field_var_ids <-
        List.map
          (fun (f : Layout.field) ->
            let ids =
              List.init f.Layout.size (fun i ->
                  vars.(f.Layout.offset + i).Term.id)
            in
            (f.Layout.field_name, List.sort compare ids))
          (Layout.fields layout);
      (* Build every per-path negation now, in path order. Negation builds
         allocate fresh (primed) variables; doing all of them at the first
         message-constrained state — a point every shard passes with the
         same fresh counter — gives the primed variables identical ids in
         every shard and in the sequential run, whichever state a worker
         happens to need one for first. *)
      List.iter (fun i -> ignore (negation_for ctx i)) (all_indices ctx)

let binding_for ctx idx =
  match Hashtbl.find_opt ctx.bindings idx with
  | Some b -> b
  | None ->
      let server_vars = Option.get ctx.server_vars in
      let b = Predicate.bind_to_server ~server_vars ctx.paths.(idx) in
      Hashtbl.replace ctx.bindings idx b;
      b

(* pathS /\ bind(pathCi) unsatisfiable? The hot query of the search.
   [Unknown] (budget exhausted, fault injected) must keep the client path
   alive: an alive path only adds its — then implied — negation to the
   Trojan query, whereas a wrong drop would delete a conjunct and admit
   spurious Trojans. Degrading towards "alive" is the sound direction. *)
let binding_check ctx idx (st : State.t) =
  (* the per-domain frame context: the path prefix is asserted once and
     shared with the prune query, the interpreter's feasibility checks and
     every other client's binding check at this state; only the binding
     terms ride as per-call assumptions *)
  match Solver.check_assuming ~path:st.State.path (binding_for ctx idx) with
  | Solver.Unsat -> `Incompatible
  | Solver.Sat _ -> `Compatible
  | Solver.Unknown -> `Unknown

(* Explanation for the drop just reported by [binding_check]: the server
   constraints in the unsat core. The shared frame context's core may also
   name binding terms; those are filtered out so the explanation lists
   server constraints only. *)
let drop_core (st : State.t) =
  Option.map
    (List.filter (fun t -> List.exists (Term.equal t) st.State.path))
    (Solver.last_assumption_core ())

let alive_for ctx (st : State.t) =
  match Hashtbl.find_opt ctx.alive st.State.id with
  | Some l -> l
  | None -> (
      match st.State.parent with
      | Some p when Hashtbl.mem ctx.alive p -> Hashtbl.find ctx.alive p
      | _ -> all_indices ctx)

(* Which single field, if any, does this constraint depend on? The
   constraint must mention only server message variables, all within one
   field. *)
let single_field_of ctx cond =
  let ids = Term.var_ids cond in
  if ids = [] then None
  else
    List.find_opt
      (fun (_, field_ids) -> List.for_all (fun id -> List.mem id field_ids) ids)
      ctx.field_var_ids
    |> Option.map fst

let trojan_query ctx (st : State.t) alive =
  List.rev_append
    (List.map (negation_for ctx) alive)
    (List.rev st.State.path)

(* The incremental step: update the alive set for the new constraint, then
   decide whether any Trojan message can still trigger this state. *)
let on_constraint ctx (st : State.t) cond =
  if ctx.cfg.cancel () then begin
    (* cooperative interrupt: stop growing this subtree; the state ends
       [Dropped] and the surrounding shard is reported incomplete *)
    ctx.n_abandoned <- ctx.n_abandoned + 1;
    false
  end
  else
  match st.State.msg_vars with
  | None -> true (* constraints before the message arrives: nothing to do *)
  | Some vars ->
      setup_server_vars ctx vars;
      let recording = records ctx st in
      let checks_here = ref 0 and transitive_here = ref 0 and drop_ord = ref 0 in
      let alive = alive_for ctx st in
      let alive =
        if not ctx.cfg.drop_alive then alive
        else begin
          let field =
            if ctx.cfg.use_different_from && ctx.different_from <> None then
              single_field_of ctx cond
            else None
          in
          let dropped = Hashtbl.create 8 in
          let maybe_transitive_drop i =
            match field, ctx.different_from with
            | Some a, Some df when Different_from.covers_field df a ->
                List.iter
                  (fun j ->
                    if
                      (not (Hashtbl.mem dropped j))
                      && not (Different_from.different df ~i:j ~j:i ~field:a)
                    then begin
                      Hashtbl.replace dropped j ();
                      incr transitive_here;
                      Obs.count "search.transitive_drops";
                      if Obs.live () then
                        Obs.emit ~kind:"drop" ~name:"transitive"
                          ~args:
                            [
                              ("route", Obs.S st.State.route);
                              ("path", Obs.I j);
                            ]
                          ()
                    end)
                  (all_indices ctx)
            | _ -> ()
          in
          List.iter
            (fun i ->
              if not (Hashtbl.mem dropped i) then begin
                incr checks_here;
                match binding_check ctx i st with
                | `Compatible -> ()
                | `Unknown ->
                    (* sound degradation: an undecided compatibility keeps
                       the client path alive (its negation stays in the
                       Trojan query, over- rather than under-constraining) *)
                    if recording then
                      ctx.n_unknown_alive <- ctx.n_unknown_alive + 1
                | `Incompatible ->
                  if recording && ctx.cfg.explain_drops then begin
                    match drop_core st with
                    | Some conflicting -> (
                        let plen = List.length st.State.path in
                        match ctx.recorder with
                        | None ->
                            ctx.drops_rev <-
                              {
                                at_state = st.State.id;
                                dropped_path = i;
                                conflicting;
                              }
                              :: ctx.drops_rev
                        | Some r ->
                            r.rec_drops <-
                              {
                                wd_route = st.State.route;
                                wd_plen = plen;
                                wd_ord = !drop_ord;
                                wd_path = i;
                                wd_conflicting = conflicting;
                              }
                              :: r.rec_drops);
                        incr drop_ord
                    | None -> ()
                  end;
                  Obs.count "search.client_path_drops";
                  if Obs.live () then
                    Obs.emit ~kind:"drop" ~name:"client_path"
                      ~args:
                        [
                          ("route", Obs.S st.State.route);
                          ("path", Obs.I i);
                        ]
                      ();
                  Hashtbl.replace dropped i ();
                  maybe_transitive_drop i
              end)
            alive;
          List.filter (fun i -> not (Hashtbl.mem dropped i)) alive
        end
      in
      ctx.n_alive_checks <- ctx.n_alive_checks + !checks_here;
      ctx.n_transitive <- ctx.n_transitive + !transitive_here;
      Hashtbl.replace ctx.alive st.State.id alive;
      let pruned =
        ctx.cfg.prune_no_trojan
        &&
        (* verdict-only, so it rides the frame context whose stack already
           holds this state's path; witness extraction below stays on the
           scratch path (models from a persistent instance would perturb
           report digests) *)
        match
          Solver.check_assuming ~path:st.State.path
            (List.map (negation_for ctx) alive)
        with
        | Solver.Unsat -> true
        | Solver.Sat _ -> false
        | Solver.Unknown ->
            (* sound degradation: only a proven-Trojan-free state may be
               pruned; an undecided query keeps the state alive *)
            if recording then ctx.n_unknown_prune <- ctx.n_unknown_prune + 1;
            false
      in
      if pruned then begin
        ctx.n_pruned <- ctx.n_pruned + 1;
        Obs.count "search.pruned_states";
        if Obs.live () then
          Obs.emit ~kind:"drop" ~name:"pruned"
            ~args:[ ("route", Obs.S st.State.route) ]
            ()
      end;
      if recording then begin
        let plen = List.length st.State.path in
        let n_alive = List.length alive in
        match ctx.recorder with
        | None ->
            ctx.samples_rev <-
              { state_id = st.State.id; path_length = plen; alive = n_alive }
              :: ctx.samples_rev
        | Some r ->
            r.rec_cevents <-
              {
                ce_route = st.State.route;
                ce_plen = plen;
                ce_alive = n_alive;
                ce_checks = !checks_here;
                ce_transitive = !transitive_here;
                ce_pruned = pruned;
              }
              :: r.rec_cevents
      end;
      not pruned

let on_fork ctx ~parent ~child =
  let alive = alive_for ctx parent in
  Hashtbl.replace ctx.alive child.State.id alive;
  match ctx.recorder, ctx.shard with
  | Some r, Some sh ->
      let croute = child.State.route in
      if Interp.shard_owns sh croute then r.rec_routes <- croute :: r.rec_routes;
      (* count each two-sided fork once: at its '0' child, by the parent's
         owner (who always explores that child) *)
      let clen = String.length croute in
      if
        clen > 0
        && croute.[clen - 1] = '0'
        && Interp.shard_owns sh parent.State.route
      then r.rec_forks <- r.rec_forks + 1
  | _ -> ()

let witness_of_model vars model =
  Array.map
    (fun v ->
      match Model.find model v with
      | Some (Model.Vbv bv) -> bv
      | Some (Model.Vbool _) -> assert false
      | None -> Bv.zero 8)
    vars

(* --- witness jobs ------------------------------------------------------------

   Each accepting state's concrete witnesses are enumerated by one job
   forked onto the domain pool ([Pool.async]): the shard that found the
   state keeps exploring while an idle domain solves, and joins the job
   before it returns. Where the job runs cannot show in the report:

   - every witness query is a scratch [Solver.check], which decides a fresh
     SAT instance built from the canonicalized query, so its model is the
     same on any domain (a per-domain cache hit replays such a model);
   - the job allocates no fresh variables, so the shard's id sequence is
     untouched;
   - its trojans carry their (route, index) sort key and [found_at] stamp,
     and its Unknown, exhaustion and fault counts travel with its result
     to the shard that forked it.

   Outside a pool (sequential runs, distributed workers) the job runs
   inline, so every mode runs this same code. *)

(* Budget exhaustions and injected faults hit by witness jobs that ran on
   this domain: they belong to the forking shard, not to this domain's. *)
let job_solver_counts = Domain.DLS.new_key (fun () -> ref (0, 0))

(* The calling domain's solver exhaustions and faults, net of those of the
   witness jobs it ran. *)
let own_solver_counts () =
  let st = Solver.stats () in
  let e, f = !(Domain.DLS.get job_solver_counts) in
  (st.Solver.budget_exhaustions - e, st.Solver.injected_faults - f)

(* Enumerate concrete Trojan witnesses on an accepting path, blocking each
   discovered message (or message class) before re-solving. Runs under the
   run's solver budget on whichever domain executes it. *)
let enumerate_witnesses ~config ~started ~route ~label ~msg_vars base_query =
  let block witness =
    match config.distinct_by with
    | Some f -> f witness msg_vars
    | None ->
        (* block exactly these bytes *)
        Term.not_
          (Term.and_l
             (Array.to_list
                (Array.mapi
                   (fun i v -> Term.eq (Term.var msg_vars.(i)) (Term.const v))
                   witness)))
  in
  let found ~n ~confirmed witness =
    Obs.count "search.trojans_emitted";
    if Obs.live () then
      Obs.emit ~kind:"trojan" ~name:label
        ~args:
          [ ("route", Obs.S route); ("idx", Obs.I n); ("confirmed", Obs.B confirmed) ]
        ();
    {
      wt_route = route;
      wt_idx = n;
      wt_label = label;
      wt_witness = witness;
      wt_symbolic = base_query;
      wt_msg_vars = msg_vars;
      wt_confirmed = confirmed;
      wt_found_at = Unix.gettimeofday () -. started;
    }
  in
  let rec enumerate blocked n acc =
    if n >= config.witnesses_per_path then (acc, 0)
    else
      match Solver.check (Term.dedup (List.rev_append blocked base_query)) with
      | Solver.Unsat -> (acc, 0)
      | Solver.Unknown ->
          (* sound degradation: the accepting state is reported with its
             symbolic Trojan expression but no extracted message — an
             over-approximation flagged [unconfirmed], never a silently
             dropped Trojan *)
          let zeros = Array.map (fun _ -> Bv.zero 8) msg_vars in
          (found ~n ~confirmed:false zeros :: acc, 1)
      | Solver.Sat model ->
          let witness = witness_of_model msg_vars model in
          enumerate (block witness :: blocked) (n + 1)
            (found ~n ~confirmed:true witness :: acc)
  in
  let st = Solver.stats () in
  let exhaustions0 = st.Solver.budget_exhaustions in
  let faults0 = st.Solver.injected_faults in
  let saved_budget = Solver.get_budget () in
  Solver.set_budget config.solver_budget;
  let counts = ref (0, 0) in
  let trojans_rev, unknown =
    Fun.protect
      ~finally:(fun () ->
        Solver.set_budget saved_budget;
        let e = st.Solver.budget_exhaustions - exhaustions0 in
        let f = st.Solver.injected_faults - faults0 in
        let booked = Domain.DLS.get job_solver_counts in
        booked := (fst !booked + e, snd !booked + f);
        counts := (e, f))
      (fun () -> enumerate [] 0 [])
  in
  {
    wj_trojans = List.rev trojans_rev;
    wj_unknown = unknown;
    wj_exhaustions = fst !counts;
    wj_faults = snd !counts;
  }

(* Record an accepting state and fork its witness enumeration. *)
let emit_trojans ctx (st : State.t) label =
  match st.State.msg_vars with
  | None -> ()
  | Some vars ->
      setup_server_vars ctx vars;
      let base_query = trojan_query ctx st (alive_for ctx st) in
      (match ctx.recorder with
      | None ->
          ctx.accepting_rev <-
            {
              Predicate.sp_state_id = st.State.id;
              label;
              msg_vars = vars;
              sp_constraints = List.rev st.State.path;
            }
            :: ctx.accepting_rev
      | Some r ->
          r.rec_accepting <-
            {
              wa_route = st.State.route;
              wa_label = label;
              wa_msg_vars = vars;
              wa_constraints = List.rev st.State.path;
            }
            :: r.rec_accepting);
      Obs.count "search.witness_jobs";
      let config = ctx.cfg and started = ctx.started and route = st.State.route in
      let forked_on = Domain.self () in
      let job =
        Pool.async (fun () ->
            if Domain.self () <> forked_on then
              Obs.count "search.witness_jobs_remote";
            enumerate_witnesses ~config ~started ~route ~label ~msg_vars:vars
              base_query)
      in
      ctx.jobs_rev <- (st.State.id, job) :: ctx.jobs_rev

let trojan_of_wtrojan ~state_id w =
  {
    server_state_id = state_id;
    accept_label = w.wt_label;
    witness = w.wt_witness;
    symbolic = w.wt_symbolic;
    msg_vars = w.wt_msg_vars;
    confirmed = w.wt_confirmed;
    found_at = w.wt_found_at;
  }

(* Join the forked witness jobs in fork order and book their trojans and
   counts to this context. Every job is joined even when one raised, so a
   failed shard attempt leaves no job behind; the first failure is then
   re-raised (and the shard retried like any other crash). *)
let join_witness_jobs ctx =
  let jobs = List.rev ctx.jobs_rev in
  ctx.jobs_rev <- [];
  let failure = ref None in
  List.iter
    (fun (state_id, job) ->
      match Pool.await job with
      | j when Option.is_none !failure -> (
          ctx.n_unknown_witness <- ctx.n_unknown_witness + j.wj_unknown;
          ctx.job_exhaustions <- ctx.job_exhaustions + j.wj_exhaustions;
          ctx.job_faults <- ctx.job_faults + j.wj_faults;
          match ctx.recorder with
          | Some r -> r.rec_trojans <- List.rev_append j.wj_trojans r.rec_trojans
          | None ->
              ctx.trojans_rev <-
                List.rev_append
                  (List.map (trojan_of_wtrojan ~state_id) j.wj_trojans)
                  ctx.trojans_rev)
      | _ -> ()
      | exception exn ->
          if Option.is_none !failure then
            failure := Some (exn, Printexc.get_raw_backtrace ()))
    jobs;
  Option.iter (fun (exn, bt) -> Printexc.raise_with_backtrace exn bt) !failure

(* Run the exploration, then join every witness job it forked — also when
   the exploration raised, so no job of a failed attempt outlives it. *)
let explore_and_join ctx explore =
  match explore () with
  | v ->
      join_witness_jobs ctx;
      v
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      (try join_witness_jobs ctx with _ -> ());
      Printexc.raise_with_backtrace exn bt

(* Greedily zero out witness bytes while the Trojan expression stays
   satisfiable: smaller witnesses make fire-drill payloads easier to read
   and diff against valid traffic. *)
let minimize_witness (t : trojan) =
  let pins = Array.map (fun b -> Some b) t.witness in
  let pin_terms () =
    Array.to_list pins
    |> List.mapi (fun i p ->
           Option.map (fun b -> Term.eq (Term.var t.msg_vars.(i)) (Term.const b)) p)
    |> List.filter_map Fun.id
  in
  let current = Array.copy t.witness in
  Array.iteri
    (fun i byte ->
      if not (Bv.equal byte (Bv.zero 8)) then begin
        pins.(i) <- Some (Bv.zero 8);
        if Solver.is_sat (pin_terms () @ t.symbolic) then
          current.(i) <- Bv.zero 8
        else pins.(i) <- Some current.(i)
      end)
    t.witness;
  current

let on_terminal ctx (st : State.t) =
  if records ctx st then begin
    (match ctx.recorder with
    | Some r when st.State.status <> State.Running ->
        r.rec_terminals <- (st.State.route, st.State.status) :: r.rec_terminals
    | _ -> ());
    match st.State.status with
    | State.Accepted label ->
        ctx.n_accepting <- ctx.n_accepting + 1;
        emit_trojans ctx st label
    | State.Rejected _ | State.Finished ->
        (* per §5.1, a server path that returns to the event loop without
           accepting rejected its message *)
        ctx.n_rejecting <- ctx.n_rejecting + 1
    | State.Dropped | State.Crashed _ -> ctx.n_other <- ctx.n_other + 1
    | State.Running -> ()
  end

let make_ctx ~config ~client ~different_from ~shard ~recorder ~started =
  {
    cfg = config;
    client;
    paths = Array.of_list client.Predicate.paths;
    different_from;
    alive = Hashtbl.create 256;
    bindings = Hashtbl.create 64;
    negations = Hashtbl.create 64;
    shard;
    recorder;
    server_vars = None;
    field_var_ids = [];
    trojans_rev = [];
    accepting_rev = [];
    samples_rev = [];
    drops_rev = [];
    n_accepting = 0;
    n_rejecting = 0;
    n_other = 0;
    n_pruned = 0;
    n_alive_checks = 0;
    n_transitive = 0;
    n_unknown_alive = 0;
    n_unknown_prune = 0;
    n_unknown_witness = 0;
    n_abandoned = 0;
    jobs_rev = [];
    job_exhaustions = 0;
    job_faults = 0;
    started;
  }

let hooks_of ctx =
  {
    Interp.on_constraint = (fun st c -> on_constraint ctx st c);
    Interp.on_fork = (fun ~parent ~child -> on_fork ctx ~parent ~child);
    Interp.on_send = (fun _ _ -> ());
    Interp.on_terminal = (fun st -> on_terminal ctx st);
  }

(* --- sequential mode ------------------------------------------------------- *)

let run_sequential ~config ~different_from ~client ~server ~started =
  let ctx =
    make_ctx ~config ~client ~different_from ~shard:None ~recorder:None
      ~started
  in
  let exhaustions0, faults0 = own_solver_counts () in
  let saved_budget = Solver.get_budget () in
  Solver.set_budget config.solver_budget;
  let iconfig =
    if config.use_slice then
      { config.interp with Interp.oracle = Some (Slice.make_oracle ()) }
    else config.interp
  in
  let run_result =
    Fun.protect
      ~finally:(fun () -> Solver.set_budget saved_budget)
      (fun () ->
        Obs.span Obs.Server_se (fun () ->
            explore_and_join ctx (fun () ->
                Interp.run ~config:iconfig ~hooks:(hooks_of ctx) server)))
  in
  let exhaustions1, faults1 = own_solver_counts () in
  let stats =
    {
      accepting_paths = ctx.n_accepting;
      rejecting_paths = ctx.n_rejecting;
      other_paths = ctx.n_other;
      pruned_states = ctx.n_pruned;
      forks = run_result.Interp.stats.Interp.forks;
      alive_checks = ctx.n_alive_checks;
      transitive_drops = ctx.n_transitive;
      alive_samples = List.rev ctx.samples_rev;
      wall_time = Unix.gettimeofday () -. started;
    }
  in
  let interrupted = config.cancel () in
  let agg = Solver.aggregate_stats () in
  let slice_static, slice_cone = slice_counters () in
  let coverage =
    {
      total_shards = 1;
      completed_shards = (if interrupted then 0 else 1);
      failed_shards = [];
      resumed_shards = 0;
      shard_retry_attempts = 0;
      interrupted;
      unknown_alive = ctx.n_unknown_alive;
      unknown_prune = ctx.n_unknown_prune;
      unknown_witness = ctx.n_unknown_witness;
      budget_exhaustions = exhaustions1 - exhaustions0 + ctx.job_exhaustions;
      injected_faults = faults1 - faults0 + ctx.job_faults;
      abandoned_states = ctx.n_abandoned;
      solver_cache_entries = Solver.aggregate_cache_entries ();
      solver_cache_evictions = agg.Solver.cache_evictions;
      solver_cache_hits = agg.Solver.cache_hits;
      solver_queries = agg.Solver.queries;
      slice_static_branches = slice_static;
      slice_cone_queries = slice_cone;
    }
  in
  {
    trojans = List.rev ctx.trojans_rev;
    accepting = List.rev ctx.accepting_rev;
    drops = List.rev ctx.drops_rev;
    search_stats = stats;
    coverage;
  }

(* --- parallel mode ---------------------------------------------------------

   The exploration tree is split into 2^split_bits route shards; each shard
   is one task on a pool of [domains] workers. A task replays the shared
   spine (routes shorter than split_bits) and exclusively explores — and
   records — the subtrees matching its bit pattern, with its domain-local
   solver state and its fresh-variable counter reset to the pre-search
   base, so every variable (message bytes, negation primes) gets the same
   id it gets sequentially. The merge concatenates the disjoint event logs,
   sorts them by route (lexicographic route order = sequential depth-first
   creation order), and renumbers state ids by route rank; everything
   except wall-clock timestamps is bit-identical to the sequential run. *)

module String_set = Set.Make (String)

(* --- shard checkpoints ------------------------------------------------------

   Each completed shard's event log is flushed to its own file through
   [Sealed.write] (durable: fsync, rename, directory fsync), so a run
   killed at any moment (including SIGKILL or power loss) leaves only
   whole, durable shard files behind. The file is a [Sealed] frame: a torn
   or bit-rotted file is detected on load and treated as missing (the
   shard is re-explored with a warning), never trusted and never fatal.
   [resume] then re-explores exactly the missing shards: because every
   shard task replays the same fresh-variable base and owns disjoint
   routes, a merge of loaded and re-explored shards is indistinguishable
   from an uninterrupted run (the determinism guarantee extends across
   process boundaries). *)

(* third checkpoint format; files of the second ([ACHILLES-CKPT-2]) fail
   as "bad magic" and their shards are re-explored *)
let ckpt_magic = "ACHCKP03"

(* Identity of a run for resume purposes: everything that changes the shard
   decomposition or per-shard event logs. Closure-valued config fields
   ([distinct_by], [interp.auto_classify]) cannot be fingerprinted; resume
   assumes they are unchanged. The client's terms are fingerprinted by
   their printed rendering, not their in-memory representation: hash-consed
   nodes carry process-local ids that vary with construction order, and
   marshaling them would make the fingerprint differ between runs of the
   same analysis. *)
let client_rendering (client : Predicate.client_predicate) =
  List.map
    (fun (p : Predicate.client_path) ->
      ( p.Predicate.cp_id,
        p.Predicate.source,
        Array.to_list (Array.map Term.to_string p.Predicate.message),
        List.map Term.to_string p.Predicate.constraints ))
    client.Predicate.paths

let run_fingerprint ~bits ~config ~client ~server =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( ckpt_magic,
            bits,
            config.drop_alive,
            config.use_different_from,
            config.prune_no_trojan,
            config.check_overlap,
            config.explain_drops,
            config.mask,
            config.witnesses_per_path,
            Layout.name client.Predicate.layout,
            Layout.total_size client.Predicate.layout,
            client_rendering client,
            server )
          []))

let shard_file dir idx =
  Filename.concat dir (Printf.sprintf "shard-%04d.ckpt" idx)

(* Sealed payload: u32 fingerprint length | fingerprint | u32 shard index |
   Marshal'd (recorder, counter). The run identity sits in front of the
   Marshal bytes so a foreign checkpoint is refused before it is
   unmarshalled. *)
let write_checkpoint_file ~file ~fingerprint ~idx (out : recorder * int) =
  Obs.span Obs.Checkpoint_io @@ fun () ->
  if Obs.live () then
    Obs.emit ~kind:"checkpoint" ~name:"write" ~args:[ ("index", Obs.I idx) ] ();
  let buf = Buffer.create 4096 in
  Buffer.add_int32_be buf (Int32.of_int (String.length fingerprint));
  Buffer.add_string buf fingerprint;
  Buffer.add_int32_be buf (Int32.of_int idx);
  Buffer.add_string buf (Marshal.to_string out []);
  Sealed.write ~path:file (Sealed.seal ~magic:ckpt_magic (Buffer.contents buf))

let write_shard_checkpoint ~dir ~fingerprint ~idx out =
  write_checkpoint_file ~file:(shard_file dir idx) ~fingerprint ~idx out

(* Terms revived by [Marshal] bypassed the smart constructors: their node
   ids belong to the (dead) process that wrote the checkpoint and may
   collide with ids of live terms, which would poison id-keyed memo tables
   (e.g. [Term.var_ids]) when report building walks the loaded events.
   Re-intern every term before letting the recorder out. *)
let rebuild_recorder r =
  let terms = List.map Term.rebuild in
  r.rec_trojans <-
    List.map
      (fun w -> { w with wt_symbolic = terms w.wt_symbolic })
      r.rec_trojans;
  r.rec_accepting <-
    List.map
      (fun w -> { w with wa_constraints = terms w.wa_constraints })
      r.rec_accepting;
  r.rec_drops <-
    List.map
      (fun w -> { w with wd_conflicting = terms w.wd_conflicting })
      r.rec_drops;
  r

(* A checkpoint that fails any validation step — a frame refused by
   [Sealed.unseal], wrong fingerprint or index, Marshal failure — is
   treated as missing: the shard is recomputed. A killed or corrupted
   writer must degrade [--resume] to extra work, never crash it or poison
   the merge. *)
let load_checkpoint_file ~file ~fingerprint ~idx : (recorder * int) option =
  Obs.span Obs.Checkpoint_io @@ fun () ->
  if Obs.live () then
    Obs.emit ~kind:"checkpoint" ~name:"load" ~args:[ ("index", Obs.I idx) ] ();
  if not (Sys.file_exists file) then None
  else begin
    let corrupt reason =
      Printf.eprintf
        "achilles: warning: ignoring corrupt shard checkpoint %s (%s); \
         re-exploring shard %d\n\
         %!"
        file reason idx;
      Obs.count "checkpoint.corrupt";
      Obs.emit ~kind:"checkpoint" ~name:"corrupt"
        ~args:
          [
            ("index", Obs.I idx);
            ("file", Obs.S file);
            ("reason", Obs.S reason);
          ]
        ();
      None
    in
    match Option.map (Sealed.unseal ~magic:ckpt_magic) (Sealed.read file) with
    | None -> corrupt "unreadable"
    | Some (Error reason) -> corrupt reason
    | Some (Ok payload) -> (
        let n = String.length payload in
        let fp_end =
          if n < 4 then n
          else 4 + (Int32.to_int (String.get_int32_be payload 0) land 0xFFFF_FFFF)
        in
        if fp_end + 4 > n then corrupt "malformed header"
        else if String.sub payload 4 (fp_end - 4) <> fingerprint then
          corrupt "fingerprint mismatch"
        else if Int32.to_int (String.get_int32_be payload fp_end) <> idx then
          corrupt "shard index mismatch"
        else
          match (Marshal.from_string payload (fp_end + 4) : recorder * int) with
          | r, c -> Some (rebuild_recorder r, c)
          | exception _ -> corrupt "payload unmarshal failure")
  end

let load_shard_checkpoint ~dir ~fingerprint ~idx =
  load_checkpoint_file ~file:(shard_file dir idx) ~fingerprint ~idx

(* Startup owns the directory (single run per dir), so every temp a killed
   writer left behind is garbage by definition. *)
let ensure_checkpoint_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg
      (Printf.sprintf "Search: checkpoint dir %S is not a directory" dir)
  else
    let removed = Sealed.sweep dir in
    if removed > 0 then Obs.count ~n:removed "checkpoint.stale_tmp_removed"

let ceil_log2 n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

let split_bits_of config =
  match config.split_bits with
  | Some b ->
      if b < 0 || b > 16 then invalid_arg "Search: split_bits out of [0,16]";
      b
  | None -> min 8 (ceil_log2 config.domains + 2)

(* Deterministic merge of disjoint shard event logs into a report:
   concatenate, sort by route (lexicographic route order = sequential
   depth-first creation order), and renumber state ids by route rank. The
   in-process pool and the multi-process coordinator both end here — which
   is what makes the final report digest independent of worker count,
   kills, lease reassignments and resume history. *)
let merge_outs ~total ~base ~started ~outs_resumed ~failed_shards
    ~retry_attempts ~interrupted ~abandoned =
  let outs = List.map fst outs_resumed in
  let sum f = List.fold_left (fun acc (r, _) -> acc + f r) 0 outs in
  let agg = Solver.aggregate_stats () in
  let slice_static, slice_cone = slice_counters () in
  let coverage =
    {
      total_shards = total;
      completed_shards = List.length outs;
      failed_shards;
      resumed_shards = List.length (List.filter snd outs_resumed);
      shard_retry_attempts = retry_attempts;
      interrupted;
      unknown_alive = sum (fun r -> r.rec_unknown_alive);
      unknown_prune = sum (fun r -> r.rec_unknown_prune);
      unknown_witness = sum (fun r -> r.rec_unknown_witness);
      budget_exhaustions = sum (fun r -> r.rec_exhaustions);
      injected_faults = sum (fun r -> r.rec_faults);
      abandoned_states = abandoned;
      solver_cache_entries = Solver.aggregate_cache_entries ();
      solver_cache_evictions = agg.Solver.cache_evictions;
      solver_cache_hits = agg.Solver.cache_hits;
      solver_queries = agg.Solver.queries;
      slice_static_branches = slice_static;
      slice_cone_queries = slice_cone;
    }
  in
  (* keep the coordinating domain's counter ahead of every id any worker
     allocated, so later analyses cannot reuse ids live in this report *)
  let top = List.fold_left (fun acc (_, c) -> max acc c) base outs in
  Term.set_fresh_counter (max top (Term.fresh_counter_value ()));
  (* Sequential ids are assigned in depth-first creation order, and the
     interpreter forks true-branch first, so creation order is exactly the
     lexicographic order of routes. Rank = sequential id. *)
  let routes =
    List.fold_left
      (fun acc (r, _) ->
        List.fold_left (fun a rt -> String_set.add rt a) acc r.rec_routes)
      (String_set.singleton "") outs
  in
  let rank_of = Hashtbl.create (String_set.cardinal routes) in
  let next = ref 0 in
  String_set.iter
    (fun r ->
      Hashtbl.replace rank_of r !next;
      incr next)
    routes;
  let rank r = Hashtbl.find rank_of r in
  let by_route_then key_cmp get_route a b =
    match String.compare (get_route a) (get_route b) with
    | 0 -> key_cmp a b
    | c -> c
  in
  let cevents =
    List.concat_map (fun (r, _) -> r.rec_cevents) outs
    |> List.sort
         (by_route_then
            (fun a b -> compare a.ce_plen b.ce_plen)
            (fun e -> e.ce_route))
  in
  let trojans_sorted =
    List.concat_map (fun (r, _) -> r.rec_trojans) outs
    |> List.sort
         (by_route_then
            (fun a b -> compare a.wt_idx b.wt_idx)
            (fun t -> t.wt_route))
  in
  (* found_at is wall clock — the one field outside the determinism claim.
     Tasks finish out of order, so restore monotonicity along the merged
     (sequential-equivalent) order for the Figure-10 discovery curve. *)
  let _, trojans =
    List.fold_left_map
      (fun floor w ->
        let found_at = Float.max floor w.wt_found_at in
        ( found_at,
          { (trojan_of_wtrojan ~state_id:(rank w.wt_route) w) with found_at } ))
      0. trojans_sorted
  in
  let accepting =
    List.concat_map (fun (r, _) -> r.rec_accepting) outs
    |> List.sort (by_route_then (fun _ _ -> 0) (fun a -> a.wa_route))
    |> List.map (fun a ->
           {
             Predicate.sp_state_id = rank a.wa_route;
             label = a.wa_label;
             msg_vars = a.wa_msg_vars;
             sp_constraints = a.wa_constraints;
           })
  in
  let drops =
    List.concat_map (fun (r, _) -> r.rec_drops) outs
    |> List.sort
         (by_route_then
            (fun a b -> compare (a.wd_plen, a.wd_ord) (b.wd_plen, b.wd_ord))
            (fun d -> d.wd_route))
    |> List.map (fun d ->
           {
             at_state = rank d.wd_route;
             dropped_path = d.wd_path;
             conflicting = d.wd_conflicting;
           })
  in
  let terminals = List.concat_map (fun (r, _) -> r.rec_terminals) outs in
  let count p = List.length (List.filter p terminals) in
  let stats =
    {
      accepting_paths =
        count (fun (_, s) -> match s with State.Accepted _ -> true | _ -> false);
      rejecting_paths =
        count (fun (_, s) ->
            match s with State.Rejected _ | State.Finished -> true | _ -> false);
      other_paths =
        count (fun (_, s) ->
            match s with State.Dropped | State.Crashed _ -> true | _ -> false);
      pruned_states =
        List.length (List.filter (fun e -> e.ce_pruned) cevents);
      forks = List.fold_left (fun acc (r, _) -> acc + r.rec_forks) 0 outs;
      alive_checks = List.fold_left (fun acc e -> acc + e.ce_checks) 0 cevents;
      transitive_drops =
        List.fold_left (fun acc e -> acc + e.ce_transitive) 0 cevents;
      alive_samples =
        List.map
          (fun e ->
            {
              state_id = rank e.ce_route;
              path_length = e.ce_plen;
              alive = e.ce_alive;
            })
          cevents;
      wall_time = Unix.gettimeofday () -. started;
    }
  in
  { trojans; accepting; drops; search_stats = stats; coverage }

(* Run one route shard to completion in the calling domain: replay the
   sequential fresh-variable id sequence from [base], explore the shard's
   subtrees, and return the completed event log plus the states abandoned
   to cancellation. [None] when the cooperative cancel fired — a partial
   event log must neither be checkpointed nor merged. This is the unit of
   work a distributed worker process executes for one lease. *)
let explore_shard ~config ~different_from ~client ~server ~bits ~base ~started
    idx =
  let shard = { Interp.shard_index = idx; Interp.shard_bits = bits } in
  Term.set_fresh_counter base;
  Solver.set_budget config.solver_budget;
  let exhaustions0, faults0 = own_solver_counts () in
  let recorder = fresh_recorder () in
  let ctx =
    make_ctx ~config ~client ~different_from ~shard:(Some shard)
      ~recorder:(Some recorder) ~started
  in
  let iconfig =
    {
      config.interp with
      Interp.shard = Some shard;
      (* fresh oracle per shard task: the memo table must not cross
         domains, and a retried task must not see a crashed attempt's *)
      Interp.oracle =
        (if config.use_slice then Some (Slice.make_oracle ()) else None);
    }
  in
  let counter =
    Obs.span Obs.Server_se (fun () ->
        explore_and_join ctx (fun () ->
            ignore (Interp.run ~config:iconfig ~hooks:(hooks_of ctx) server);
            (* read before the join: awaiting runs other shards' jobs here *)
            Term.fresh_counter_value ()))
  in
  if config.cancel () then (None, ctx.n_abandoned)
  else begin
    let exhaustions1, faults1 = own_solver_counts () in
    recorder.rec_unknown_alive <- ctx.n_unknown_alive;
    recorder.rec_unknown_prune <- ctx.n_unknown_prune;
    recorder.rec_unknown_witness <- ctx.n_unknown_witness;
    recorder.rec_exhaustions <-
      exhaustions1 - exhaustions0 + ctx.job_exhaustions;
    recorder.rec_faults <- faults1 - faults0 + ctx.job_faults;
    (Some (recorder, counter), ctx.n_abandoned)
  end

let run_parallel ~config ~different_from ~client ~server ~started =
  (* One main-domain span covering sharding, pool execution and the merge:
     worker domains open their own nested Server_se spans per shard. *)
  Obs.span Obs.Server_se @@ fun () ->
  let bits = split_bits_of config in
  let n_tasks = 1 lsl bits in
  let base = Term.fresh_counter_value () in
  let fingerprint =
    match config.checkpoint_dir with
    | Some dir ->
        ensure_checkpoint_dir dir;
        run_fingerprint ~bits ~config ~client ~server
    | None -> ""
  in
  let loaded =
    Array.init n_tasks (fun idx ->
        match config.checkpoint_dir with
        | Some dir when config.resume ->
            load_shard_checkpoint ~dir ~fingerprint ~idx
        | _ -> None)
  in
  let abandoned = Atomic.make 0 in
  let attempts_seen = Array.make n_tasks 0 in
  let task idx =
    (* [attempts_seen.(idx)] is touched only by the worker currently running
       shard [idx] — retries happen in place on that same worker. *)
    let attempt = attempts_seen.(idx) in
    attempts_seen.(idx) <- attempt + 1;
    if Obs.live () then
      Obs.emit ~kind:"shard" ~name:(if attempt = 0 then "start" else "retry")
        ~args:[ ("index", Obs.I idx); ("attempt", Obs.I attempt) ]
        ();
    (match config.chaos with
    | Some hook -> hook ~shard_index:idx ~attempt
    | None -> ());
    if config.cancel () then None
    else begin
      let out, n_abandoned =
        explore_shard ~config ~different_from ~client ~server ~bits ~base
          ~started idx
      in
      ignore (Atomic.fetch_and_add abandoned n_abandoned);
      match out with
      | None ->
          (* the event log is partial: neither checkpoint nor merge it *)
          if Obs.live () then
            Obs.emit ~kind:"shard" ~name:"cancelled"
              ~args:[ ("index", Obs.I idx) ]
              ();
          None
      | Some out ->
          (match config.checkpoint_dir with
          | Some dir -> write_shard_checkpoint ~dir ~fingerprint ~idx out
          | None -> ());
          if Obs.live () then
            Obs.emit ~kind:"shard" ~name:"done"
              ~args:[ ("index", Obs.I idx); ("attempt", Obs.I attempt) ]
              ();
          Some out
    end
  in
  let missing =
    Array.of_list
      (List.filter
         (fun idx -> loaded.(idx) = None)
         (List.init n_tasks Fun.id))
  in
  let outcomes =
    if Array.length missing = 0 then [||]
    else
      Pool.with_pool ~domains:config.domains (fun pool ->
          Pool.map_with_retries ~retries:config.shard_retries
            ~backoff:config.shard_backoff pool task missing)
  in
  let shard_results =
    Array.map
      (function Some out -> `Done (out, true) | None -> `Missing)
      loaded
  in
  Array.iteri
    (fun k idx ->
      match outcomes.(k).Pool.result with
      | Ok (Some out) -> shard_results.(idx) <- `Done (out, false)
      | Ok None -> () (* cancelled before completing: stays missing *)
      | Error _ ->
          if Obs.live () then
            Obs.emit ~kind:"shard" ~name:"failed"
              ~args:[ ("index", Obs.I idx) ]
              ();
          shard_results.(idx) <- `Failed)
    missing;
  let outs_resumed =
    List.filter_map
      (function `Done (out, resumed) -> Some (out, resumed) | _ -> None)
      (Array.to_list shard_results)
  in
  let failed_shards =
    List.filter_map Fun.id
      (List.init n_tasks (fun idx ->
           match shard_results.(idx) with `Failed -> Some idx | _ -> None))
  in
  merge_outs ~total:n_tasks ~base ~started ~outs_resumed ~failed_shards
    ~retry_attempts:
      (Array.fold_left (fun acc o -> acc + o.Pool.attempts - 1) 0 outcomes)
    ~interrupted:(config.cancel ()) ~abandoned:(Atomic.get abandoned)

let run ?(config = default_config) ?different_from ~client ~server () =
  let started = Unix.gettimeofday () in
  if config.domains <= 1 && config.checkpoint_dir = None && not config.resume
  then run_sequential ~config ~different_from ~client ~server ~started
  else run_parallel ~config ~different_from ~client ~server ~started

(* Accepting states paired with the Trojan query the search decided them
   with — the predicate export consumed by the filter compiler
   ([Achilles_filter]). Trojans carry the query of their state verbatim
   ([emit_trojans] stores [trojan_query] as [symbolic]); states with no
   trojan entry had an unsatisfiable query, so [None] means "provably no
   Trojan message reaches this state". *)
let trojan_queries (r : report) =
  List.map
    (fun (sp : Predicate.server_path) ->
      let query =
        List.find_map
          (fun (t : trojan) ->
            if t.server_state_id = sp.Predicate.sp_state_id then
              Some t.symbolic
            else None)
          r.trojans
      in
      (sp, query))
    r.accepting

(* The shard-level surface the multi-process coordinator/worker protocol
   ([Achilles_dist]) is built on: explore one leased shard, persist or load
   its event log as a durable checkpoint file, and merge disjoint logs into
   the canonical report. Everything here is exactly what the in-process
   parallel mode uses, so the two modes cannot drift. *)
module Shards = struct
  type out = recorder * int

  let split_bits = split_bits_of
  let fingerprint = run_fingerprint
  let prepare_dir = ensure_checkpoint_dir
  let explore = explore_shard
  let write = write_checkpoint_file
  let load = load_checkpoint_file
  let merge = merge_outs
end
