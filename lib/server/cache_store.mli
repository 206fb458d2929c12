(** Persistent backing for the server's content-addressed result cache.

    One file per completed run under [data-dir/cache], written at
    insertion time and loaded back on boot, so a warm restart serves
    repeat requests at zero gate evaluations.  An entry is a
    [Dynmos_durable.Durable] record ([dynmos-cache v1], [dt_s] in [%h]).
    Chaos artifacts: [cache.persist] Fail writes nothing; Torn leaves a
    truncated file at the {e final} name.  Corrupt files — bit-rot or
    that torn write — are quarantined (renamed [*.corrupt]) and counted,
    never trusted and never fatal. *)

exception Error of string
(** [Durable.Error], shared with [Checkpoint] and [Journal]. *)

type entry = {
  key : string;  (** the in-memory cache's content-addressed key *)
  summary : Dynmos_faultsim.Faultsim.summary;  (** [Complete] outcomes only *)
  dt_s : float;
  evals : int;
  n_sites : int;
}

val file_of : string -> string -> string
(** [file_of dir key] — the entry's path: [dir/<md5(key)>.entry]. *)

val save : ?chaos:Dynmos_chaos.Chaos.t -> string -> entry -> unit
(** Persist one entry into the directory.  Raises {!Error} on failure
    (including injected ones) — safe to absorb and count: the in-memory
    cache still holds the entry, only warm-restart reuse is lost. *)

val load : string -> entry
(** Load and verify one entry file.  Raises {!Error} on any mismatch or
    on values no writer produces (e.g. [sites_done] past [n_sites]). *)

val load_all : string -> entry list * int
(** Scan a cache directory: [(healthy entries in deterministic order,
    corrupt files quarantined)].  A missing directory is an empty
    cache. *)

val quarantine : string -> bool
(** Rename a file to [*.corrupt] (fallback: remove it). *)
