(** If-conversion: speculate short side-effect-free conditional arms into
    straight-line code with select instructions.

    Mirrors the select formation the paper's -O3 LLVM front end performs.
    Inner loops whose bodies contain small pure conditionals (min/max
    updates, clamping) collapse to a single basic block, which is what
    lets the accelerator model pipeline them. Arms containing loads,
    stores, calls, or trapping integer division are never speculated, and
    every value an arm reads or conditionally overwrites must be defined
    on all paths, so observable behaviour is preserved exactly. *)

(** An if-conversion invariant was violated: a bug in this pass, not in
    the input program. The message names the offending block or
    register. *)
exception Internal_error of string

(** Whole program, each function to a bounded fixpoint. The first round
    on a function reads the index and solution [p] carries; a function
    it rewrites is indexed again for the next round. *)
val run : Cayman_ir.Cfg.program -> Cayman_ir.Program.t
