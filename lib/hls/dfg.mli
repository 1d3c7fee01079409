(** Per-block data-flow graphs.

    {!of_block} computes every per-block summary ({!mem_nodes},
    {!unit_counts}, {!n_defs}, {!has_call}) once; the accessors return
    the stored values.

    Nodes are the block's instructions (by index). Edges are register
    def-use dependencies plus conservative ordering between same-base
    memory accesses. Registers read before any local definition are the
    DFG's live-in inputs. *)

type t = {
  block : Cayman_ir.Block.t;
  instrs : Cayman_ir.Instr.t array;
  preds : int list array;
  live_in_uses : (string, int list) Hashtbl.t;
  last_def : (string, int) Hashtbl.t;
  mem : int list;  (** see {!mem_nodes} *)
  units : int array;
      (** count of each datapath unit kind used by compute nodes, in
          [Cayman_ir.Op.all_unit_kinds] order *)
  n_defs : int;  (** see {!n_defs} *)
  has_call : bool;  (** see {!has_call} *)
}

val of_block : Cayman_ir.Block.t -> t
val size : t -> int

(** Indices of load/store nodes, in program order. *)
val mem_nodes : t -> int list

val has_call : t -> bool

(** Multiset of datapath unit kinds used by compute nodes, in
    [Cayman_ir.Op.all_unit_kinds] order (the nonzero entries of
    [units]). *)
val unit_counts : t -> (Cayman_ir.Op.unit_kind * int) list

(** [unit_list counts]: the nonzero entries of a count array in
    [Cayman_ir.Op.all_unit_kinds] order, as [(kind, count)] pairs. *)
val unit_list : int array -> (Cayman_ir.Op.unit_kind * int) list

(** Registers the block defines ([List.length (Block.defs block)]). *)
val n_defs : t -> int

(** Longest path from any of [sources] to [sink] (inclusive of both ends'
    weights); [None] if unreachable. Used for recurrence-MII queries. *)
val longest_path :
  t -> weight:(int -> float) -> sources:int list -> sink:int -> float option

val uses_of_live_in : t -> string -> int list
val def_of : t -> string -> int option
