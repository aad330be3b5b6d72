(** Universal transactional values.

    Every replicated object holds a [Value.t].  Benchmarks encode their node
    structures (tree nodes, buckets, reservation records) into this ADT with
    the helpers below; keeping the store monomorphic keeps the wire protocol
    and the executor simple. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {2 Accessors} — raise [Invalid_argument] on shape mismatch, which in the
    benchmarks indicates a programming error, never a data race (the
    protocols guarantee consistent snapshots). *)

val to_int : t -> int
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list

(** {2 Option-returning accessors} *)

val int_opt : t -> int option

(** {2 Field encoding}

    A record is encoded as a [List] of fields; these helpers index fields
    positionally. *)

val field : t -> int -> t
val with_field : t -> int -> t -> t
(** Functional field update; raises [Invalid_argument] if out of range. *)
