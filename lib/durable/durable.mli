(** Crash-safe files: the one record format and publish protocol behind
    campaign checkpoints, persisted cache entries and journal
    compactions.

    A record is a header line (e.g. [dynmos-checkpoint v1]), one
    [key value] line per field, and a [checksum <md5 hex>] trailer over
    every byte before it, verified before any field is read: truncation
    and bit-rot are reported as such, never as parse errors. *)

exception Error of string
(** Every refusal and I/O failure; messages start [what path:]. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message. *)

val encode : header:string -> (string * string) list -> string
(** The header, one [key value] line per field in order, the trailer. *)

val first_to_string : int option array -> string
(** The detection-array codec: per site its first detecting pattern, or
    [-], separated by single spaces. *)

type record

val load : what:string -> header:string -> string -> record
(** Read a file and verify its checksum, then its header line.  A
    duplicated key is refused: no writer produces one. *)

val field : record -> string -> string
val field_opt : record -> string -> string option

val int_field : ?max:int -> record -> string -> int
(** A count in [0, max] ([max] defaults to [max_int]). *)

val first_field : record -> n:int -> before:int -> int option array
(** The [first] field: [n] entries, each [-] or a pattern in
    [0, before), so no detection lies past the patterns written done. *)

val read : what:string -> string -> string
(** A whole file. *)

val write_half : string -> string -> unit
(** Best-effort torn artifact: the first half of the bytes at the path. *)

val publish :
  ?chaos:Dynmos_chaos.Chaos.t ->
  ?write:Dynmos_chaos.Chaos.point ->
  ?fsync:Dynmos_chaos.Chaos.point ->
  ?rename:Dynmos_chaos.Chaos.point ->
  ?backup:bool ->
  what:string ->
  string ->
  string ->
  unit
(** [publish ~what path bytes]: write [path.tmp.<pid>], flush, fsync,
    rotate the previous file to [path ^ ".bak"] when [backup] (default
    false), rename, so a reader never sees a half-written file.  At the
    [write] point Fail raises before any byte is written and Torn leaves
    half the bytes in the tmp; [fsync] skips the sync; [rename] drops
    the tmp and raises. *)

val sweep_stale : ?all:bool -> string -> int
(** Delete the [path ^ ".tmp.<pid>"] files of crashed writers and count
    them; with [~all:true], [path] is a directory and every writer's tmp
    in it goes.  Call only when no writer for them can be live. *)
