(* One frame, one durable write, one read, one sweep — see sealed.mli. *)

let header_len = 8 + 4
let digest_len = 16

let seal ~magic payload =
  if String.length magic <> 8 then invalid_arg "Sealed.seal: magic must be 8 bytes";
  let buf = Buffer.create (String.length payload + header_len + digest_len) in
  Buffer.add_string buf magic;
  Buffer.add_int32_be buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.add_string buf (Digest.string payload);
  Buffer.contents buf

let unseal ~magic s =
  let n = String.length s in
  if n < header_len + digest_len then Error "truncated"
  else if String.sub s 0 8 <> magic then
    Error
      (if String.sub s 0 6 = String.sub magic 0 6 then "unsupported version"
       else "bad magic")
  else
    let len = Int32.to_int (String.get_int32_be s 8) land 0xFFFF_FFFF in
    let expected = header_len + len + digest_len in
    if n < expected then Error "truncated"
    else if n > expected then Error "trailing bytes"
    else
      let payload = String.sub s header_len len in
      if Digest.string payload <> String.sub s (header_len + len) digest_len then
        Error "digest mismatch"
      else Ok payload

(* pid + per-process counter: two processes (a presumed-dead worker and
   its replacement) or two domains of one process never share a temp *)
let counter = Atomic.make 0

let fsync_noerr fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

let write ~path content =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add counter 1)
  in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc content;
        flush oc;
        fsync_noerr (Unix.descr_of_out_channel oc));
    Sys.rename tmp path;
    (* the rename orders the names; the new directory entry still has to
       reach the disk before a crash may assume the file exists *)
    match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
    | fd ->
        fsync_noerr fd;
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let read path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try Some (really_input_string ic (in_channel_length ic))
          with Sys_error _ | End_of_file -> None)
  | exception Sys_error _ -> None

let is_temp name =
  let digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  match List.rev (String.split_on_char '.' name) with
  | n :: pid :: "tmp" :: _ :: _ -> digits n && digits pid
  | _ -> false

let sweep dir =
  Array.fold_left
    (fun removed name ->
      let path = Filename.concat dir name in
      if is_temp name then
        match Sys.remove path with
        | () -> removed + 1
        | exception Sys_error _ -> removed
      else removed)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])
