(** The coordinator of the multi-process search.

    Owns the {!Lease.Table} and the deterministic merge; leases route
    shards to worker processes, expires leases whose heartbeats stop,
    reassigns within a bounded per-shard budget (degrading to uncovered,
    never silently dropping), respawns dead workers with exponential
    backoff + jitter, and drains gracefully on cancellation. The final
    report goes through {!Achilles_core.Search.Shards.merge} — the same
    merge the in-process parallel mode uses — so its digest is
    byte-identical to a single-process run regardless of worker count,
    kills, duplicate lease races, or mid-shard crashes. *)

type worker_handle = {
  wh_poll : unit -> [ `Running | `Exited of int ];
  wh_kill : unit -> unit; (* best-effort hard kill, idempotent *)
  wh_reap : unit -> unit; (* waitpid / Domain.join, once, after exit *)
}

type spawner = wid:int -> epoch:int -> worker_handle
(** The worker transport is injected: the CLI spawns real
    [achilles worker] processes, tests and benchmarks spawn domains in
    this process. [epoch] counts spawns of this slot. *)

type config = {
  c_workers : int;
  c_lease_ttl : float; (* heartbeats must arrive within this *)
  c_reassign_budget : int; (* max assignments per shard *)
  c_max_respawns : int; (* extra spawns per slot after the first *)
  c_backoff : int -> float; (* respawn delay before spawn [epoch] *)
  c_drain_grace : float; (* wait for drained workers before killing *)
  c_tick : float; (* event-loop sleep *)
  c_cancel : unit -> bool; (* SIGINT/SIGTERM drain *)
  c_status_interval : float;
      (* cadence of atomic status.json writes aggregating worker telemetry
         snapshots; <= 0 disables status entirely *)
}

val default_config : config
(** 2 workers, 10 s TTL, budget 5, 10 respawns, exponential backoff from
    50 ms with +-25% jitter capped at 5 s, 5 s drain grace, 10 ms tick,
    1 s status interval. *)

val run :
  ?config:config ->
  ?run_id:string ->
  workdir:string ->
  job:Worker.job ->
  spawn:spawner ->
  ?manifest:string ->
  unit ->
  Achilles_core.Search.report
(** Run the protocol to completion (every shard Done or Uncovered), to
    cancellation, or until every worker slot is permanently dead. Resume
    is implicit: valid token-suffixed checkpoints already in
    [workdir/shards/] are merged without re-exploration, and tokens seen
    on disk raise the fencing floor so a previous incarnation's orphans
    can never win a race. Start-up sweeps the temps killed writers left
    in every directory of the run. [manifest], when given, is sealed
    ({!Lease.seal_manifest}) and written to [workdir/manifest] before any
    worker is spawned (process workers read it to rebuild the job). [run_id] (default: the process identity's
    run id) is stamped into status.json; telemetry never affects the
    report. *)

val process_spawner :
  prog:string -> argv:string array -> unit -> spawner
(** Spawn [prog argv ... --id <wid> --epoch <epoch>] per worker; poll via
    [waitpid WNOHANG]; kill via SIGKILL. *)

val domain_spawner :
  workdir:string -> job:Worker.job -> params:Worker.params -> unit -> spawner
(** In-process workers on domains — the full protocol (mailboxes, leases,
    token-suffixed checkpoints) minus process isolation. The fault hook
    raises {!Worker.Killed} so "death" unwinds the worker at poll
    granularity without taking the host down; [wh_kill] flips the
    worker's cancel. *)
