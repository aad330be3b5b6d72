type series = {
  title : string;
  x_label : string;
  columns : string list;
  rows : (string * float list) list;
  notes : string list;
}

(* NaN cells (e.g. a percentage change against a zero baseline) render as
   "n/a" rather than masquerading as a real number. *)
let cell fmt v = if Float.is_nan v then "n/a" else Printf.sprintf fmt v

let render s =
  let table = Util.Table.create ~header:(s.x_label :: s.columns) in
  List.iter
    (fun (x, values) ->
      Util.Table.add_row table (x :: List.map (fun v -> cell "%.2f" v) values))
    s.rows;
  let body = Util.Table.render table in
  let notes =
    match s.notes with
    | [] -> ""
    | notes -> String.concat "\n" (List.map (fun n -> "  note: " ^ n) notes) ^ "\n"
  in
  Printf.sprintf "== %s ==\n%s%s" s.title body notes

(* A change against a zero baseline has no meaningful percentage: report it
   as [nan] (rendered "n/a") instead of a silent 0 that would read as "no
   change".  Both zero is genuinely no change. *)
let pct_change ~baseline v =
  if baseline = 0. then (if v = 0. then 0. else Float.nan)
  else (v -. baseline) /. baseline *. 100.
