(* Just enough JSON to print the benchmark's reports: the one-line result of
   a measurement, the suite file, the committed ledger and BENCHMARK.json.
   Numbers print in their shortest exact form, so the ledger diffs cleanly;
   a number that is not finite prints as null, for the reader to report as
   missing. *)

type t =
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else shortest (p + 1)
    in
    shortest 15

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [indent] pretty-prints objects one member per line (the ledger and the
   suite file are read by people and diffed by git); the result line stays
   on one line. *)
let to_string ?(indent = false) v =
  let b = Buffer.create 4096 in
  let rec go depth v =
    let nl d = if indent then (Buffer.add_char b '\n'; Buffer.add_string b (String.make (2 * d) ' ')) in
    match v with
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num x -> Buffer.add_string b (number x)
    | Str s -> Buffer.add_string b (escape s)
    | Arr items ->
      (* Arrays of scalars stay on one line; arrays of objects get one
         element per line. *)
      let nested = List.exists (function Obj (_ :: _) | Arr (_ :: _) -> true | _ -> false) items in
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string b (if indent && not nested then ", " else ",");
          if nested then nl (depth + 1);
          go (depth + 1) item)
        items;
      if nested then nl depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj members ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char b ',';
          nl (depth + 1);
          Buffer.add_string b (escape k);
          Buffer.add_string b (if indent then ": " else ":");
          go (depth + 1) item)
        members;
      nl depth;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

(* A flat object of numbers, as every metric group is. *)
let of_metrics metrics = Obj (List.map (fun (k, v) -> (k, Num v)) metrics)
