(** Lock-order extraction from sequential traces, after the authors'
    companion deadlock-synthesis work (Samak & Ramanathan, OOPSLA'14;
    §6 of the racy-tests paper).

    Every monitor acquisition performed while another monitor is held
    yields a nesting {!edge} localized to its client-level invocation;
    cross-unifiable edges form ABBA {!pair}s. *)

type edge = {
  ed_qname : string;
  ed_cls : Jir.Ast.id;
  ed_meth : Jir.Ast.id;
  ed_occurrence : int;
  ed_outer : Narada_core.Sym.t;  (** I-path of the already-held lock *)
  ed_outer_cls : string option;
  ed_inner : Narada_core.Sym.t;  (** I-path of the lock being acquired *)
  ed_inner_cls : string option;
}

val edge_to_string : edge -> string

type pair = { dl_a : edge; dl_b : edge }

val pair_to_string : pair -> string

val analyze :
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  seed_cls:Jir.Ast.id ->
  seed_meth:Jir.Ast.id ->
  (edge list * pair list, string) result
