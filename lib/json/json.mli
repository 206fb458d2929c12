(** The repo's one JSON codec, a minimal, strict, total parser and
    printer with no dependencies: Obs's JSONL events, serve's line
    protocol and the bench's artifact are all printed by it.  The repo
    deliberately carries no JSON library; the parser is sized for
    single-line requests and hardened against hostile input:

    - {!parse} never raises: every malformed input — truncated values,
      raw control bytes (including NUL), numbers too large for the
      grammar, duplicate object keys, lone UTF-16 surrogates — returns
      [Error] with an offset-carrying message, in time linear in the
      number of keys of an object;
    - nesting depth is capped ({!max_depth}) so a line of ten thousand
      ['['] characters reports an error instead of overflowing the
      stack;
    - numbers parse to [Int] when they are integral and fit in an OCaml
      [int], and to [Float] otherwise (overflowing literals become
      infinities, which field validation then rejects with a named
      message). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** keys unique, in input order *)

val max_depth : int
(** Maximum container nesting {!parse} accepts (64). *)

val parse : string -> (t, string) result
(** Parse one complete JSON value (surrounding whitespace allowed;
    trailing garbage is an error).  Never raises. *)

val to_string : t -> string
(** Canonical one-line encoding: strings escaped per RFC 8259, floats
    as [%.17g], non-finite floats as the strings ["nan"]/["inf"]/["-inf"]
    (so every emitted line stays parseable). *)

val type_name : t -> string
(** ["null"], ["bool"], ["int"], ["float"], ["string"], ["array"],
    ["object"] — for error messages. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on anything else. *)
