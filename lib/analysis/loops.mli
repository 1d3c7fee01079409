(** Natural loop detection from back edges. *)

module String_set :
  Set.S with type elt = string and type t = Set.Make(String).t

type loop = {
  header : string;
  latches : string list;  (** sources of back edges to [header] *)
  blocks : String_set.t;  (** loop body including the header *)
  exits : (string * string) list;  (** [(from, to)] edges leaving the loop *)
  preheader : string option;  (** the unique outside predecessor, if unique *)
  parent : string option;  (** header of the innermost enclosing loop *)
}

type t = loop list

(** Loops of an index; outer loops first (headers in reverse
    postorder). *)
val of_cfg : Cayman_ir.Cfg.t -> t
val loop_of : t -> string -> loop option

(** Loops containing the given block, innermost first. *)
val enclosing : t -> string -> loop list

val is_innermost : t -> loop -> bool

(** Nesting depth, 1 for outermost loops. *)
val depth : t -> loop -> int
