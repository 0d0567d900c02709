(** Client-visible access paths ("I-paths", §3.2): how a frozen
    receiver/parameter/return-value of a client-invoked library method
    reaches an object — e.g. [I0.x.o] for the receiver's [x] field's
    [o] field. *)

type root =
  | Recv  (** I0: the receiver *)
  | Arg of int  (** I_k: the k-th parameter, 1-based *)
  | Ret  (** I_r: the return value *)

type t = { root : root; fields : string list }

val make : root -> string list -> t
val of_root : root -> t
val equal_root : root -> root -> bool
val compare_root : root -> root -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val root_to_string : root -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
val append : t -> string -> t

val depth : t -> int
(** Number of field dereferences. *)

val strip_prefix : prefix:t -> t -> string list option
(** Remaining fields after removing [prefix] (same root). *)
