type t = { header : string list; mutable rows : string list list }

let create ~header = { header; rows = [] }
let add_row t row = t.rows <- row :: t.rows

let pad row n = row @ List.init (Stdlib.max 0 (n - List.length row)) (fun _ -> "")

let render t =
  let rows = List.rev t.rows in
  let ncols =
    List.fold_left (fun acc r -> Stdlib.max acc (List.length r)) (List.length t.header) rows
  in
  let all = List.map (fun r -> pad r ncols) (t.header :: rows) in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row
  in
  List.iter measure all;
  let render_row row =
    let cells =
      List.mapi
        (fun i cell -> Printf.sprintf "%-*s" widths.(i) cell)
        row
    in
    String.concat "  " cells
  in
  let sep =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  match all with
  | [] -> ""
  | header :: body ->
    String.concat "\n" ((render_row header :: sep :: List.map render_row body) @ [ "" ])
