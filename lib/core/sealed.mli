(** The one codec and the one write path for every durable file Achilles
    writes: shard checkpoints, compiled [.achfilter] images, the
    distributed run's manifest, and (unframed) the mailbox, lease and
    [status.json] text files.

    {b The sealed frame.} A binary record is
    {v magic(8) | payload length (u32, big-endian) | payload | MD5(payload) v}
    where [magic] is a 6-byte format tag followed by a 2-digit version
    (["ACHFLT01"]). {!unseal} checks, in order: the total length covers a
    header and a digest, the tag, the version, the exact total length, and
    the digest. Nothing inside the payload is looked at before its digest
    has been checked, so a caller may unmarshal what {!unseal} returns.

    {b The write path.} {!write} is the only place a temp file is renamed
    into place: a pid+counter temp name in the destination directory,
    fsync, rename, fsync of the directory. A writer killed at any
    instruction leaves either the old file or the new one, plus at worst
    a temp that {!sweep} removes. *)

val seal : magic:string -> string -> string
(** [seal ~magic payload] frames [payload]. [magic] must be 8 bytes. *)

val unseal : magic:string -> string -> (string, string) result
(** The payload of a sealed image, or why the image was refused: one of
    ["truncated"], ["bad magic"], ["unsupported version"], ["trailing
    bytes"], ["digest mismatch"]. *)

val write : path:string -> string -> unit
(** Durable atomic replace of [path] with the given bytes. Raises
    [Sys_error] if the file cannot be written or renamed, after removing
    the temp. Files and directories that refuse fsync (some network
    mounts) degrade to the rename-only guarantee. *)

val read : string -> string option
(** The whole file; [None] when it is missing or unreadable. *)

val sweep : string -> int
(** Delete the temps {!write} leaves behind when killed mid-write
    ([<name>.tmp.<pid>.<n>]) directly inside the directory; returns how
    many were removed. Only a process that owns the directory — no
    concurrent writers — may call it. A missing directory is empty. *)
