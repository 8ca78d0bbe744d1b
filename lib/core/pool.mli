(** A fixed-size pool of domains with per-worker work-stealing deques.

    Built for the parallel Trojan search. Work comes at two grains:

    - {e batch tasks} (one route shard of the server exploration each) are
      distributed across the workers' deques; a worker runs its own deque
      newest-first and steals oldest-first from its siblings when it runs
      dry. Tasks must not submit further batches themselves — one batch is
      in flight at a time, submitted from (and awaited by) a single
      coordinating domain.
    - {e forked jobs} (one accepting state's witness enumeration each) are
      pieces of a running task, handed out with {!async}: an idle worker
      runs them before any batch task, and the forking task joins them with
      {!await}.

    Determinism: {!parallel_map} places results by task index and {!await}
    returns a job's own result, so the output never depends on which worker
    ran which task or job, or in what order they finished. *)

type t

val create : domains:int -> t
(** Spawn a pool of [domains] worker domains (at least 1; this is the number
    of workers, the coordinating domain does not run tasks). Raises
    [Invalid_argument] for [domains < 1]. *)

val size : t -> int

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Apply [f] to every element, tasks distributed over the pool; result [i]
    is [f arr.(i)]. Blocks until the whole batch has finished. If any task
    raised, the exception of the lowest-indexed failing task is re-raised
    here (with its backtrace) — after the batch has drained, so the pool
    stays usable. Raises [Invalid_argument] if the pool is shut down or a
    batch is already in flight. *)

val run_tasks : t -> (unit -> unit) array -> unit
(** [parallel_map] for effectful tasks without results. *)

type 'a promise
(** The pending result of a forked job. *)

val async : (unit -> 'a) -> 'a promise
(** Fork a job. Called from a task running on a pool worker, the job is
    queued on that pool for whichever worker is idle first. Called anywhere
    else (the coordinating domain, a process without a pool), the thunk
    runs inline at once and the promise is already resolved — so code that
    forks runs the same with and without a pool. An exception the job
    raises is kept for {!await}. Every forked job must be awaited: a job
    left queued when its batch ends would run during a later batch. *)

val await : 'a promise -> 'a
(** The job's result, or its exception re-raised with its backtrace. While
    the job is pending, the calling worker runs other queued jobs in its
    place, never a batch task, so a task's domain-local state is not reset
    by another task starting on its stack. Jobs must not wait on the tasks
    that forked them. *)

type 'b outcome = {
  result : ('b, exn) result;
  attempts : int;  (** total attempts made, >= 1 *)
}

val map_with_retries :
  ?retries:int ->
  ?backoff:(int -> float) ->
  t ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array
(** Fault-isolated [parallel_map]: a task that raises is retried in place up
    to [retries] more times (default 2), sleeping [backoff attempt] seconds
    before retry [attempt + 1] (default exponential, 50 ms doubling), and is
    recorded as [Error] once the cap is spent — the batch always completes
    and never re-raises a task exception. Raises [Invalid_argument] on
    negative [retries], a shut-down pool, or an in-flight batch. *)

val shutdown : t -> unit
(** Stop the workers and join their domains. Idempotent. Must not be called
    while a batch is in flight. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, and [shutdown] (also on exceptions). *)

val recommended_domains : unit -> int
(** [max 1 (recommended_domain_count - 1)]: the default width for sibling
    worker processes/domains, leaving a core for the coordinating process. *)
