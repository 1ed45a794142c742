(** The counted MDD of a state space under its former name: a
    {!Statespace.t} {e is} the counted MDD, so {!of_statespace} is the
    identity. *)

type t = Statespace.t

val of_statespace : Statespace.t -> t
(** The identity. *)

val count : t -> int
(** Number of states — [Statespace.size]. *)

val num_nodes : t -> int
(** Shared nodes in the diagram (excluding the terminal). *)

val index : t -> int array -> int option
(** Lexicographic index of a tuple, [None] if not a member.
    @raise Invalid_argument on a tuple of the wrong length. *)

val iter : t -> (int -> int array -> unit) -> unit
(** Enumerate members in index order (the tuple buffer is reused). *)
