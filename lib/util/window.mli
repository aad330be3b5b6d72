(** A bounded FIFO window of [int] keys, each bound to a value: the newest
    [cap] keys are remembered, and entering one more evicts the oldest.

    Evidence that is only consulted for a bounded horizon after it is
    recorded (which transactions were applied, how a batch entry was
    decided) lives here: memory stays bounded however long the run.  The
    bindings are an {!Int_table}; the order is a ring of keys grown
    lazily, by doubling, up to [cap]. *)

type 'a t

val create : cap:int -> dummy:'a -> 'a t
(** An empty window of at most [cap] keys; [dummy] as for
    {!Int_table.create}.
    @raise Invalid_argument if [cap < 1]. *)

val mem : 'a t -> int -> bool
val find_opt : 'a t -> int -> 'a option
val find_or : 'a t -> int -> default:'a -> 'a

val replace : 'a t -> int -> 'a -> unit
(** Bind the key.  A key not in the window enters it as the newest,
    evicting the oldest key when the window is full; a key already in it
    keeps its place and takes the new value. *)

val clear : 'a t -> unit
(** Forget every key; the memory already grown is kept. *)
