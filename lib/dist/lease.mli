(** Substrate of the multi-process search: directory mailboxes, wire
    messages, the sealed manifest, lease files, and the coordinator's
    fencing-token lease table.

    The protocol is coordinator-authoritative: workers never take a shard
    by themselves, they are {e granted} leases, and every grant carries a
    fencing token strictly greater than any earlier grant of that shard.
    Completion is accepted only from the current token, so a
    presumed-dead worker finishing late can never race its replacement
    into the merge. Every file is written with
    {!Achilles_core.Sealed.write}; a writer killed at any instruction
    leaves either the old file or the new one, never a torn read.
    Mailbox messages, lease files and [status.json] stay plain text, so
    [cat] can debug a stuck run. *)

(** {1 Directory layout}

    A distributed run lives under one work directory:
    {v
    workdir/
      manifest            run parameters, written once by the coordinator
      inbox/              worker -> coordinator messages
      outbox-NNN/         coordinator -> worker NNN messages
      shards/             token-suffixed shard checkpoints
      leases/             live lease mirror files (crash recovery)
    v} *)

val inbox_dir : string -> string
val outbox_dir : string -> int -> string
val shards_dir : string -> string
val leases_dir : string -> string
val manifest_file : string -> string

val checkpoint_file : workdir:string -> shard:int -> token:int -> string
(** [shards/shard-NNNN.t<token>.ckpt] — token-suffixed so two workers
    racing one shard write {e distinct} files and only the accepted
    token's file is ever merged. *)

val lease_file : workdir:string -> shard:int -> string
val ensure_dir : string -> unit

(** {1 The manifest} *)

val seal_manifest : string -> string
(** Frame the coordinator's run parameters ({!Achilles_core.Sealed},
    magic [ACHMAN01]). *)

val unseal_manifest : string -> (string, string) result
(** The parameters back, or why the image was refused. A worker must not
    unmarshal anything this refuses. *)

(** {1 Mailboxes}

    One message per file, renamed into the directory. Per-sender order is
    preserved; unparseable or foreign files are deleted and ignored so a
    half-written file can never wedge the protocol. *)
module Mailbox : sig
  type t

  val attach : string -> t
  (** Create the directory if needed and attach. *)

  val send : t -> string -> unit
  (** Never raises: a vanished mailbox means the peer is gone, which the
      caller's liveness handling deals with. *)

  val recv : t -> string list
  (** Drain all pending messages, oldest first. *)
end

val purge_mailboxes : string -> unit
(** Delete every pending message in the inbox and all worker outboxes.
    A starting coordinator calls this before spawning anyone: mailbox
    contents are ephemeral protocol state, and replaying the previous
    incarnation's traffic (say, a leftover [Drain]) would poison the new
    run. Checkpoints and lease files are the only durable state. *)

val sweep_temps : string -> unit
(** Delete the temps a writer killed mid-write left in the work dir,
    [leases/], the inbox and every outbox ({!Achilles_core.Sealed.sweep}).
    [shards/] is swept by {!Achilles_core.Search.Shards.prepare_dir}. A
    starting coordinator calls this before spawning anyone. *)

(** {1 Wire messages} *)

type to_coordinator =
  | Hello of { wid : int; pid : int }
  | Request of { wid : int }  (** idle worker asking for a shard *)
  | Heartbeat of { wid : int; shard : int; token : int }
  | Snapshot of { wid : int; shard : int; snap : Achilles_obs.Obs.snapshot }
      (** periodic telemetry: the worker's cumulative metrics state
          ({!Achilles_obs.Obs.Snapshot} codec, multi-line message).
          [shard] is the shard currently held, [-1] when idle. Purely
          observational — never affects leases or the merge. *)
  | Completed of { wid : int; shard : int; token : int }
      (** checkpoint for [token] is on disk *)
  | Failed of { wid : int; shard : int; token : int; abandoned : int }
  | Bye of { wid : int }

type to_worker =
  | Grant of { shard : int; token : int }
  | Wait  (** nothing grantable right now; ask again *)
  | Drain  (** finish the current shard (if any) and exit *)

val encode_to_coordinator : to_coordinator -> string
val parse_to_coordinator : string -> to_coordinator option
val encode_to_worker : to_worker -> string
val parse_to_worker : string -> to_worker option

(** {1 Lease files}

    The in-memory table is authoritative; each live lease is mirrored to
    [leases/shard-NNNN.lease] so a restarted coordinator can recover the
    fencing floor — tokens must keep growing across coordinator
    incarnations. *)

val write_lease :
  workdir:string -> shard:int -> token:int -> worker:int -> deadline:float -> unit

val remove_lease : workdir:string -> shard:int -> unit

val read_lease : workdir:string -> shard:int -> (int * int * float) option
(** [(token, worker, deadline)]. *)

(** {1 The lease table} *)

module Table : sig
  type shard_state =
    | Pending
    | Leased of { worker : int; token : int; deadline : float }
    | Done of { token : int; resumed : bool }
    | Uncovered
        (** reassignment budget exhausted — reported as uncovered in the
            report's coverage block, never silently dropped *)

  type t

  val create : shards:int -> budget:int -> t
  (** [budget] = max assignments per shard before it degrades to
      [Uncovered]. *)

  val n_shards : t -> int
  val state : t -> int -> shard_state

  val observe_token : t -> shard:int -> token:int -> unit
  (** Raise the fencing floor above a token seen on disk (recovery). *)

  val mark_done_resumed : t -> shard:int -> token:int -> unit
  (** A valid checkpoint for [shard] already exists (resume). *)

  val grant : t -> now:float -> ttl:float -> worker:int -> (int * int) option
  (** Lease the lowest pending shard to [worker] until [now +. ttl].
      Returns [(shard, token)]; [None] when nothing is grantable. Charges
      the shard's budget; a budget-exhausted pending shard degrades to
      [Uncovered] instead of being granted. *)

  val renew :
    t -> now:float -> ttl:float -> worker:int -> shard:int -> token:int ->
    [ `Renewed | `Stale ]

  val complete : t -> shard:int -> token:int -> [ `Accepted | `Stale ]
  (** Fenced: accepted exactly once, only from the current leaseholder. *)

  val fail :
    t -> shard:int -> token:int -> [ `Reassignable | `Exhausted | `Stale ]

  val expire : t -> now:float -> (int * int * int) list
  (** Move every lease past its deadline back to [Pending] (or
      [Uncovered] when out of budget); returns expired
      [(shard, token, worker)]. *)

  val release_worker : t -> worker:int -> (int * int) list
  (** A worker died: expire its leases immediately; returns released
      [(shard, token)]. *)

  val give_up_pending : t -> int list
  (** Degrade every [Pending] shard to [Uncovered] — the spawner has given
      up on all workers, nothing will ever be granted again. *)

  val settled : t -> bool
  (** Every shard is [Done] or [Uncovered]. *)

  val pending_count : t -> int
  val leased_count : t -> int
  val uncovered : t -> int list
  val done_tokens : t -> (int * int * bool) list
  (** [(shard, token, resumed)] for every [Done] shard. *)

  val reassignments : t -> int
  (** Assignments spent beyond the first grant of each shard. *)
end

(** {1 Trace events} *)

val emit_lease_event :
  name:string -> args:(string * Achilles_obs.Obs.value) list -> unit

val emit_worker_event :
  name:string -> args:(string * Achilles_obs.Obs.value) list -> unit
