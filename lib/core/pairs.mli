(** Potential racy access pair generation (§3.3): an unprotected access
    can race with a concurrent execution of its own label or with any
    conflicting access to the same field of a potentially-aliased owner.
    Constructor accesses are discarded (§4). *)

(** One side of a pair: the client method a thread must invoke and where
    the racy field's owner sits relative to it. *)
type endpoint = {
  ep_qname : string;
  ep_cls : Jir.Ast.id;
  ep_meth : Jir.Ast.id;
  ep_occurrence : int;  (** which seed invocation to replay for objects *)
  ep_owner_path : Sym.t;
  ep_owner_cls : string option;
  ep_root_cls : string option;
  ep_site : Runtime.Event.site;
  ep_kind : Access.kind;
  ep_label : Runtime.Event.label;
}

type pair = { p_field : Jir.Ast.id; p_a : endpoint; p_b : endpoint }

val pair_to_string : pair -> string

val key_of : pair -> Runtime.Event.site * Runtime.Event.site * Jir.Ast.id
(** Static identity (unordered site pair, in
    {!Runtime.Event.compare_site} order, + field), for dedup. *)

val generate : ?fields:Jir.Ast.id list -> Access.result -> pair list
(** The deduplicated racy pairs of a trace analysis (Table 4's
    "Race Pairs" column), in generation order.  [fields] keeps only the
    pairs on those fields; as a pair joins accesses of one field, that
    is the full list filtered by field. *)
