(** Well-formedness checks for IR programs.

    Checks per function: non-empty body, unique labels, branch targets
    exist, operand and instruction typing, known globals and callees, and
    a forward must-defined data-flow analysis that flags registers possibly
    read before written. Program-level: main exists, globals are unique
    with positive sizes and int or float elements, function names are
    unique. A program that passes comes back as a {!t}, with the indices
    the check built ({!Cfg.of_program}); only this module makes one, so
    a stage that takes it needs no check and no index of its own. *)

type error = { where : string; message : string }

val pp_error : Format.formatter -> error -> unit

type t = private Cfg.program

val check : Program.t -> (t, error list) result

(** @raise Invalid_argument listing all errors if the program is ill-formed. *)
val check_exn : Program.t -> t

(** The checked IR. *)
val program : t -> Program.t
