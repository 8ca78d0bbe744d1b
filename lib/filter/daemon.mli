(** Serve a compiled filter over a socket.

    A single-process [select] loop speaking a length-prefixed framing:

    - request: a 4-byte big-endian unsigned length, then that many message
      bytes;
    - response: 5 bytes — one verdict character ([{'A'|'T'|'U'}] for
      accept / trojan-suspect / unknown-state) followed by a 4-byte
      big-endian state id ([0xFFFFFFFF] when there is none).

    Two telemetry surfaces ride on the same loop:

    - a [STATS] wire command: a frame whose length word is the reserved
      sentinel [0xFFFFFFFF] (no payload) gets back a length-prefixed
      [key value] text block — uptime, connection/message/verdict counts,
      dropped frames, and latency count/sum/p50/p95/p99 — instead of a
      verdict (historically any frame over [max_frame] dropped the
      connection, so no existing client ever sent the sentinel);
    - an optional [?metrics] listener serving Prometheus text exposition
      (format 0.0.4) over minimal HTTP/1.0: daemon families
      ([achilles_daemon_uptime_seconds], [..._connections_total],
      [..._messages_total], [..._verdicts_total{verdict=...}],
      [..._dropped_frames_total], [..._request_duration_seconds] histogram)
      followed by the full process {!Achilles_obs.Obs.Prometheus.of_snapshot}
      exposition. One scrape = one short-lived connection.

    Each wakeup reads what a connection has sent into the connection's
    read buffer, judges every complete frame there in place
    ({!Filter.verdict_sub}), and sends all of their replies — a [STATS]
    reply included, in frame order — with one [write]. A frame whose length
    does not match the filter's message size gets an honest ['U']; a frame
    longer than [max_frame] drops the connection, after the verdicts before
    it are sent, and counts in [dropped_frames]. Every verdict is timed once
    and charged to the {!Achilles_obs.Obs.Filter_eval} phase and to a
    per-connection latency histogram (folded into the scrape output). The
    [filter.accept] / [filter.trojan_suspect] / [filter.unknown] counters
    are bumped once per wakeup; scrapes are answered between wakeups, so
    they always see exact counts. *)

type address =
  | Unix_socket of string  (** path; an existing socket file is replaced *)
  | Tcp of string * int  (** bind address and port, [SO_REUSEADDR] set *)

type stats = {
  connections : int;
  messages : int;
  accepts : int;
  trojan_suspects : int;
  unknowns : int;
  dropped_frames : int;
}

val run :
  ?max_frame:int ->
  ?metrics:address ->
  filter:Filter.t ->
  address:address ->
  stop:(unit -> bool) ->
  unit ->
  stats
(** Serve until [stop ()] turns true (polled a few times a second and
    between frames; [EINTR] from a signal wakes the poll immediately).
    Returns after every connection is closed and, for Unix sockets (verdict
    and metrics), the socket files are unlinked. [max_frame] defaults to
    1 MiB. [metrics] adds the Prometheus scrape listener. *)

val pp_stats : Format.formatter -> stats -> unit
