(** The whole-application program structure tree (wPST).

    Extends the per-function PST with a root vertex representing the
    entire application whose children are the functions reachable from
    [main]. Region vertices are addressed by [(function, region id)]
    pairs. *)

type vref = { vfunc : string; vid : int }

(** A function's region tree and the index it was built from, with the
    index's must-defined solution, which the accelerator model's
    per-function context reads again. *)
type func_tree = {
  fname : string;
  root : Region.t;
  cfg : Cayman_ir.Cfg.t;
  md : Cayman_ir.Cfg.Must_defined.t;
}

type t = { program : Cayman_ir.Program.t; funcs : func_tree list }

(** Functions reachable from main through direct calls, main first. *)
val reachable_funcs : Cayman_ir.Program.t -> string list

(** The wPST of a program, over the indices it carries. *)
val build : Cayman_ir.Cfg.program -> t
val func_tree : t -> string -> func_tree option
val region : t -> vref -> Region.t option

(** Total number of region vertices across all functions. *)
val region_count : t -> int

val iter : (string -> Region.t -> unit) -> t -> unit
val pp : Format.formatter -> t -> unit
