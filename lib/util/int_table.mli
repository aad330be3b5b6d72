(** A mutable table keyed by [int]: open addressing over a power-of-two
    array, linear probing, backward-shift deletion and a multiplicative
    (Fibonacci) hash.

    Unlike [Stdlib.Hashtbl], a lookup calls no polymorphic hash and a
    binding allocates nothing: keys and values live in two flat arrays.
    The table doubles when it passes 3/4 full and never shrinks.

    Every [int] is a key except [min_int], which marks a free slot.
    {!iter} and {!fold} walk slots in hash order, which is no order a
    caller may rely on. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty table of 8 slots.  [dummy] fills free value slots, so a
    removed value is not kept alive; it is never returned by a lookup. *)

val length : 'a t -> int

val mem : 'a t -> int -> bool

val find_opt : 'a t -> int -> 'a option

val find_or : 'a t -> int -> default:'a -> 'a
(** The value bound to the key, or [default]: a lookup that allocates
    nothing. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding.
    @raise Invalid_argument on [min_int]. *)

val remove : 'a t -> int -> unit
(** Drop the key's binding, if any. *)

val clear : 'a t -> unit
(** Drop every binding; the capacity is kept. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Apply to every binding.  The table must not change during the walk. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
