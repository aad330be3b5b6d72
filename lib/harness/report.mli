(** Figure/table data containers and rendering. *)

type series = {
  title : string;
  x_label : string;
  columns : string list;
  rows : (string * float list) list;
  notes : string list;  (** expected-shape commentary, printed below *)
}

val render : series -> string
(** NaN cells render as ["n/a"]. *)

val pct_change : baseline:float -> float -> float
(** [(v - baseline) / baseline * 100].  A zero baseline has no meaningful
    percentage: the result is [nan] (rendered honestly by {!render})
    unless the value is also 0, which is genuinely "no change" and yields
    0. *)
