(** ASCII table rendering for the experiment harness.

    The harness regenerates every figure of the paper as a table of series
    (one row per x value, one column per protocol / system); this module is
    the single place that formats them. *)

type t

val create : header:string list -> t
(** A table whose first row is [header]. *)

val add_row : t -> string list -> unit
(** Append one row; short rows are padded with empty cells. *)

val render : t -> string
(** Box-drawing-free, column-aligned rendering suitable for terminals and
    for diffing in EXPERIMENTS.md. *)
