(** Type checking and lowering of MiniC to the IR.

    Lowering performs light constant folding, inserts implicit int/float
    conversions, and gives every loop a dedicated preheader, header, latch
    and exit block so that loops form clean single-entry-single-exit
    regions. Loop labels ([linear: for (...)]) become block-name prefixes
    and thus readable region names. *)

(** A lowering invariant was violated: a bug in the frontend itself, not
    in the user's program. The message names the offending construct and
    source line. *)
exception Internal_error of string

(** Lower a parsed program. The entry function must be called [main].
    @raise Diag.Error on type errors (phase ["lower"], line-located). *)
val lower : Ast.program -> Cayman_ir.Program.t

(** [compile src] parses, lowers, and validates: the result is the
    checked program, with each function's index.
    @raise Diag.Error on lexical, syntax, type, or internal validation
    errors — phases ["lex"], ["parse"], ["lower"], ["validate"]. *)
val compile : string -> Cayman_ir.Validate.t
