(** Parser for cell-description files in the paper's Section-5 syntax.

    {[
      TECHNOLOGY domino-CMOS;
      NAME fig9;                -- optional
      INPUT a,b,c,d,e;
      OUTPUT u;
      x1 := a*(b+c);
      x2 := d*e;
      u  := x1+x2;
    ]}

    Statements end with [;]; [#] and [--] start line comments; keywords are
    case-insensitive; a [TECHNOLOGY] statement opens a new cell. *)

exception Error of string

val cells : string -> Cell.t list
(** Parse all cells in a file.  @raise Error on syntax or elaboration
    problems (with a message naming the offending statement or cell),
    including a cell with more than {!Dynmos_expr.Truth_table.max_vars}
    inputs; no other exception escapes. *)

val cell : string -> Cell.t
(** Parse a file that must contain exactly one cell. *)
