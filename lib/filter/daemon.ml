module Obs = Achilles_obs.Obs

type address = Unix_socket of string | Tcp of string * int

type stats = {
  connections : int;
  messages : int;
  accepts : int;
  trojan_suspects : int;
  unknowns : int;
  dropped_frames : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "%d connections, %d messages: %d accept, %d trojan-suspect, %d unknown, %d \
     dropped"
    s.connections s.messages s.accepts s.trojan_suspects s.unknowns
    s.dropped_frames

(* Frame length sentinel: a client sending 0xFFFFFFFF as the length word asks
   for a stats reply instead of a verdict. Historically any frame over
   [max_frame] dropped the connection, so no well-behaved client ever sent
   this — reserving it is backward-compatible. *)
let stats_sentinel = 0xFFFFFFFF

(* The running counts behind [stats], bumped in place per verdict. *)
type tally = {
  mutable t_connections : int;
  mutable t_messages : int;
  mutable t_accepts : int;
  mutable t_trojan_suspects : int;
  mutable t_unknowns : int;
  mutable t_dropped_frames : int;
}

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t; (* bytes received; unconsumed frames start at 0 *)
  mutable fill : int; (* bytes of [rbuf] holding data *)
  lat_hist : int array; (* per-connection verdict latency, log2-µs buckets *)
  mutable lat_sum : float;
}

(* A connection's read buffer starts this large and doubles when a read finds
   it full. 16 KiB holds several pipelined bursts in one read: 128 FSP frames
   in flight (perfbench's pipelined phase) are 2.7 KB. Complete frames are
   consumed after every read, so the buffer is only ever full of one
   incomplete frame and stays under twice [4 + max_frame]. *)
let initial_read_buffer = 16384

(* A metrics (HTTP) connection: accumulate the request until the blank line,
   answer once, close. *)
type mconn = { m_fd : Unix.file_descr; m_buf : Buffer.t }

let be32_of buf off = Int32.to_int (Bytes.get_int32_be buf off) land 0xFFFFFFFF
let set_be32 buf off n = Bytes.set_int32_be buf off (Int32.of_int n)

let write_all fd bytes len =
  let rec go off =
    if off < len then
      let n = Unix.write fd bytes off (len - off) in
      go (off + n)
  in
  go 0

(* The replies of one wakeup, sent with one [write]. *)
type out = { mutable obuf : Bytes.t; mutable olen : int }

let reserve out n =
  if out.olen + n > Bytes.length out.obuf then begin
    let grown = Bytes.create (max (out.olen + n) (2 * Bytes.length out.obuf)) in
    Bytes.blit out.obuf 0 grown 0 out.olen;
    out.obuf <- grown
  end

let add_response out verdict =
  reserve out 5;
  let c, state =
    match verdict with
    | Filter.Accept -> ('A', 0xFFFFFFFF)
    | Filter.Trojan_suspect id -> ('T', id)
    | Filter.Unknown_state -> ('U', 0xFFFFFFFF)
  in
  Bytes.set out.obuf out.olen c;
  set_be32 out.obuf (out.olen + 1) state;
  out.olen <- out.olen + 5

let add_framed out text =
  let n = String.length text in
  reserve out (4 + n);
  set_be32 out.obuf out.olen n;
  Bytes.blit_string text 0 out.obuf (out.olen + 4) n;
  out.olen <- out.olen + 4 + n

exception Drop_connection

let bind_listener = function
  | Unix_socket path ->
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> () (* refuse to clobber a non-socket; bind will fail honestly *)
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      fd

let unlink_if_unix = function
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let run ?(max_frame = 1 lsl 20) ?metrics ~filter ~address ~stop () =
  let ev = Filter.evaluator filter in
  let t_start = Unix.gettimeofday () in
  let listener = bind_listener address in
  Unix.listen listener 16;
  let mlistener =
    match metrics with
    | None -> None
    | Some addr ->
        let fd = bind_listener addr in
        Unix.listen fd 16;
        Some fd
  in
  let conns = ref [] in
  let mconns : mconn list ref = ref [] in
  let st =
    {
      t_connections = 0;
      t_messages = 0;
      t_accepts = 0;
      t_trojan_suspects = 0;
      t_unknowns = 0;
      t_dropped_frames = 0;
    }
  in
  (* Latency of connections already closed; a scrape folds live ones in. *)
  let drained_hist = Array.make Obs.histogram_buckets 0 in
  let drained_sum = ref 0. in
  let latency_totals () =
    let hist = Array.copy drained_hist in
    let sum = ref !drained_sum in
    List.iter
      (fun c ->
        Array.iteri (fun k v -> hist.(k) <- hist.(k) + v) c.lat_hist;
        sum := !sum +. c.lat_sum)
      !conns;
    (hist, !sum)
  in
  let record verdict =
    st.t_messages <- st.t_messages + 1;
    match verdict with
    | Filter.Accept -> st.t_accepts <- st.t_accepts + 1
    | Filter.Trojan_suspect _ -> st.t_trojan_suspects <- st.t_trojan_suspects + 1
    | Filter.Unknown_state -> st.t_unknowns <- st.t_unknowns + 1
  in
  (* Line-based stats reply: the wire twin of the Prometheus exposition. *)
  let stats_text () =
    let hist, sum = latency_totals () in
    let count = Array.fold_left ( + ) 0 hist in
    let q p = Obs.estimate_quantile hist p *. 1e6 in
    Printf.sprintf
      "uptime_seconds %.3f\n\
       connections %d\n\
       messages %d\n\
       accepts %d\n\
       trojan_suspects %d\n\
       unknowns %d\n\
       dropped_frames %d\n\
       latency_count %d\n\
       latency_sum_seconds %.6f\n\
       latency_p50_us %.2f\n\
       latency_p95_us %.2f\n\
       latency_p99_us %.2f\n"
      (Unix.gettimeofday () -. t_start)
      st.t_connections st.t_messages st.t_accepts st.t_trojan_suspects st.t_unknowns
      st.t_dropped_frames count sum (q 0.5) (q 0.95) (q 0.99)
  in
  let exposition () =
    let buf = Buffer.create 4096 in
    Obs.Prometheus.gauge buf ~name:"achilles_daemon_uptime_seconds"
      ~help:"Seconds since the daemon started"
      [ ([], Unix.gettimeofday () -. t_start) ];
    Obs.Prometheus.counter buf ~name:"achilles_daemon_connections_total"
      ~help:"Client connections accepted"
      [ ([], float_of_int st.t_connections) ];
    Obs.Prometheus.counter buf ~name:"achilles_daemon_messages_total"
      ~help:"Messages judged" [ ([], float_of_int st.t_messages) ];
    Obs.Prometheus.counter buf ~name:"achilles_daemon_verdicts_total"
      ~help:"Verdicts by outcome"
      [
        ([ ("verdict", "accept") ], float_of_int st.t_accepts);
        ([ ("verdict", "trojan_suspect") ], float_of_int st.t_trojan_suspects);
        ([ ("verdict", "unknown") ], float_of_int st.t_unknowns);
      ];
    Obs.Prometheus.counter buf ~name:"achilles_daemon_dropped_frames_total"
      ~help:"Connections dropped for oversized frames"
      [ ([], float_of_int st.t_dropped_frames) ];
    let hist, sum = latency_totals () in
    Obs.Prometheus.histogram buf ~name:"achilles_daemon_request_duration_seconds"
      ~help:"Per-verdict latency (log2-microsecond buckets)"
      [ ([], hist, sum) ];
    Buffer.add_string buf (Obs.Prometheus.of_snapshot (Obs.aggregate ()));
    buf
  in
  (* Header and body in one [Bytes] for one write; the blit is the body's
     only copy after rendering. *)
  let http_response () =
    let body = exposition () in
    let n = Buffer.length body in
    let header =
      Printf.sprintf
        "HTTP/1.0 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: %d\r\n\
         \r\n"
        n
    in
    let h = String.length header in
    let reply = Bytes.create (h + n) in
    Bytes.blit_string header 0 reply 0 h;
    Buffer.blit body 0 reply h n;
    reply
  in
  let scratch = Bytes.create 4096 in
  let out = { obuf = Bytes.create 4096; olen = 0 } in
  (* Judge every complete frame in [c.rbuf] in place, collecting the replies
     in [out], then send them with one write and move the unconsumed tail to
     the front. A STATS reply joins [out] in frame order and counts the frames
     before it. On an oversized length word the verdicts already computed are
     sent before [Drop_connection] is raised. The [filter.*] counters are
     bumped once per drain; scrapes are only served between drains. *)
  let drain_frames c =
    let accepts = st.t_accepts
    and trojans = st.t_trojan_suspects
    and unknowns = st.t_unknowns in
    out.olen <- 0;
    let consumed = ref 0 in
    let drop = ref false in
    let continue = ref true in
    while !continue do
      let available = c.fill - !consumed in
      if available < 4 then continue := false
      else
        let frame_len = be32_of c.rbuf !consumed in
        if frame_len = stats_sentinel then begin
          consumed := !consumed + 4;
          add_framed out (stats_text ())
        end
        else if frame_len > max_frame then begin
          drop := true;
          continue := false
        end
        else if available < 4 + frame_len then continue := false
        else begin
          (* Manual timing instead of [Obs.span]: one pair of clock reads
             feeds the phase slice and the per-connection histogram. *)
          let t0 = Unix.gettimeofday () in
          let verdict = Filter.verdict_sub ev c.rbuf (!consumed + 4) frame_len in
          let dt = Unix.gettimeofday () -. t0 in
          consumed := !consumed + 4 + frame_len;
          Obs.record_span Obs.Filter_eval dt;
          let b = Obs.bucket_of_seconds dt in
          c.lat_hist.(b) <- c.lat_hist.(b) + 1;
          c.lat_sum <- c.lat_sum +. dt;
          record verdict;
          add_response out verdict
        end
    done;
    let bump name before now =
      if now > before then Obs.count ~n:(now - before) name
    in
    bump "filter.accept" accepts st.t_accepts;
    bump "filter.trojan_suspect" trojans st.t_trojan_suspects;
    bump "filter.unknown" unknowns st.t_unknowns;
    if !consumed > 0 then begin
      Bytes.blit c.rbuf !consumed c.rbuf 0 (c.fill - !consumed);
      c.fill <- c.fill - !consumed
    end;
    write_all c.fd out.obuf out.olen;
    if !drop then raise Drop_connection
  in
  let close_conn c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Array.iteri (fun k v -> drained_hist.(k) <- drained_hist.(k) + v) c.lat_hist;
    drained_sum := !drained_sum +. c.lat_sum;
    conns := List.filter (fun c' -> c' != c) !conns
  in
  let service c =
    if c.fill = Bytes.length c.rbuf then begin
      let grown = Bytes.create (2 * Bytes.length c.rbuf) in
      Bytes.blit c.rbuf 0 grown 0 c.fill;
      c.rbuf <- grown
    end;
    match Unix.read c.fd c.rbuf c.fill (Bytes.length c.rbuf - c.fill) with
    | 0 -> close_conn c
    | n ->
        c.fill <- c.fill + n;
        (try drain_frames c with
        | Drop_connection ->
            st.t_dropped_frames <- st.t_dropped_frames + 1;
            Obs.count "filter.dropped_frame";
            close_conn c
        | Unix.Unix_error _ -> close_conn c)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn c
  in
  let close_mconn mc =
    (try Unix.close mc.m_fd with Unix.Unix_error _ -> ());
    mconns := List.filter (fun mc' -> mc' != mc) !mconns
  in
  let answer_mconn mc =
    (let reply = http_response () in
     try write_all mc.m_fd reply (Bytes.length reply)
     with Unix.Unix_error _ -> ());
    close_mconn mc
  in
  let has_request_end buf =
    let n = Buffer.length buf in
    let rec go i =
      if i + 3 >= n then false
      else if
        Buffer.nth buf i = '\r'
        && Buffer.nth buf (i + 1) = '\n'
        && Buffer.nth buf (i + 2) = '\r'
        && Buffer.nth buf (i + 3) = '\n'
      then true
      else go (i + 1)
    in
    go 0
  in
  let service_mconn mc =
    match Unix.read mc.m_fd scratch 0 (Bytes.length scratch) with
    | 0 ->
        (* EOF before the blank line: answer anyway if anything arrived. *)
        if Buffer.length mc.m_buf > 0 then answer_mconn mc else close_mconn mc
    | n ->
        Buffer.add_subbytes mc.m_buf scratch 0 n;
        if has_request_end mc.m_buf || Buffer.length mc.m_buf > 8192 then
          answer_mconn mc
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_mconn mc
  in
  while not (stop ()) do
    let fds =
      (listener :: List.map (fun c -> c.fd) !conns)
      @ (match mlistener with Some fd -> [ fd ] | None -> [])
      @ List.map (fun mc -> mc.m_fd) !mconns
    in
    match Unix.select fds [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listener then begin
              match Unix.accept listener with
              | conn_fd, _ ->
                  conns :=
                    {
                      fd = conn_fd;
                      rbuf = Bytes.create initial_read_buffer;
                      fill = 0;
                      lat_hist = Array.make Obs.histogram_buckets 0;
                      lat_sum = 0.;
                    }
                    :: !conns;
                  st.t_connections <- st.t_connections + 1
              | exception Unix.Unix_error _ -> ()
            end
            else if mlistener = Some fd then begin
              match Unix.accept fd with
              | m_fd, _ ->
                  mconns := { m_fd; m_buf = Buffer.create 256 } :: !mconns
              | exception Unix.Unix_error _ -> ()
            end
            else
              match List.find_opt (fun c -> c.fd = fd) !conns with
              | Some c -> service c
              | None -> (
                  match List.find_opt (fun mc -> mc.m_fd = fd) !mconns with
                  | Some mc -> service_mconn mc
                  | None -> ()))
          readable
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
  List.iter
    (fun mc -> try Unix.close mc.m_fd with Unix.Unix_error _ -> ())
    !mconns;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (match mlistener with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  unlink_if_unix address;
  (match metrics with Some addr -> unlink_if_unix addr | None -> ());
  {
    connections = st.t_connections;
    messages = st.t_messages;
    accepts = st.t_accepts;
    trojan_suspects = st.t_trojan_suspects;
    unknowns = st.t_unknowns;
    dropped_frames = st.t_dropped_frames;
  }
