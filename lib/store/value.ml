type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | List x, List y -> ( try List.for_all2 equal x y with Invalid_argument _ -> false)
  | (Unit | Bool _ | Int _ | Float _ | Str _ | List _), _ -> false

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.pp_print_float fmt f
  | Str s -> Format.fprintf fmt "%S" s
  | List l ->
    Format.fprintf fmt "[%a]"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ") pp)
      l

let to_string v = Format.asprintf "%a" pp v

let shape_error expected v =
  invalid_arg (Printf.sprintf "Value: expected %s, got %s" expected (to_string v))

let to_int = function Int i -> i | v -> shape_error "Int" v
let to_bool = function Bool b -> b | v -> shape_error "Bool" v
let to_str = function Str s -> s | v -> shape_error "Str" v
let to_list = function List l -> l | v -> shape_error "List" v
let int_opt = function Int i -> Some i | Unit | Bool _ | Float _ | Str _ | List _ -> None

let field v i =
  match v with
  | List l ->
    begin
      match List.nth_opt l i with
      | Some x -> x
      | None -> invalid_arg (Printf.sprintf "Value.field: index %d out of range" i)
    end
  | Unit | Bool _ | Int _ | Float _ | Str _ -> shape_error "List" v

let with_field v i x =
  match v with
  | List l ->
    if i < 0 || i >= List.length l then
      invalid_arg (Printf.sprintf "Value.with_field: index %d out of range" i)
    else List (List.mapi (fun j old -> if j = i then x else old) l)
  | Unit | Bool _ | Int _ | Float _ | Str _ -> shape_error "List" v
