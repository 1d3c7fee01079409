(** Dominator and postdominator trees by block label, read from the
    function's {!Cayman_ir.Cfg} index (which computes both trees with
    Cooper-Harvey-Kennedy over int arrays). *)

type t

(** Dominator tree of a function (builds its index). *)
val dominators : Cayman_ir.Func.t -> t

(** Label of the virtual exit node used by {!postdominators}. *)
val virtual_exit : string

(** Postdominators over the reversed CFG with a virtual exit collecting all
    [Return] terminators. Blocks that cannot reach a return are absent.
    Builds the function's index. *)
val postdominators : Cayman_ir.Func.t -> t

(** The index the tree was read from. *)
val cfg : t -> Cayman_ir.Cfg.t

(** Whether a node was reachable from the tree's entry. *)
val reachable : t -> string -> bool

(** Reflexive dominance: [dominates t a b] iff [a] dominates [b]. Returns
    [false] if either node is unreachable. *)
val dominates : t -> string -> string -> bool

(** Immediate dominator; [None] for the entry or unreachable nodes. *)
val idom : t -> string -> string option
