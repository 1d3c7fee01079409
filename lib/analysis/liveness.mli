(** Classic backward liveness analysis on registers, over an index's
    block ids.

    Registers are numbered as {!Cayman_ir.Cfg.Must_defined} numbers them
    (parameters, then definitions in block order) and sets are
    {!Cayman_ir.Cfg.Bits} words; a register that is neither a parameter
    nor written by any block is never live. *)

type t

val compute : Cayman_ir.Cfg.t -> Cayman_ir.Cfg.Must_defined.t -> t

(** [live_in t label reg]: whether register [reg] is live at the entry
    of block [label] ([false] for an unknown label). *)
val live_in : t -> string -> string -> bool
