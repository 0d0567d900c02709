(** Pretty-printer for Jir programs.

    The output is valid Jir source: [Parser.parse_program
    (program_to_string p)] succeeds and yields a program that prints
    identically — the round-trip property checked by the test-suite. *)

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_lvalue : Format.formatter -> Ast.lvalue -> unit
val pp_stmt : Format.formatter -> Ast.stmt -> unit
val pp_class : Format.formatter -> Ast.class_decl -> unit
val pp_program : Format.formatter -> Ast.program -> unit

val expr_to_string : Ast.expr -> string
val class_to_string : Ast.class_decl -> string
val program_to_string : Ast.program -> string
