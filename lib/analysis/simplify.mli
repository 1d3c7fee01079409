(** CFG simplification: fuse straight-line block chains (a block ending in
    an unconditional jump absorbs a successor whose only predecessor it
    is). Run after {!Ifconv} to restore canonical single-block loop
    bodies. *)

val merge_chains : Cayman_ir.Program.t -> Cayman_ir.Program.t
