(** A dense control-flow index of one function.

    Blocks get ids [0 .. size - 1] in the order of their first
    occurrence in the function, so the entry is id 0. Edges, reverse
    postorder and both dominator trees are int arrays over those ids,
    and block sets are {!Bits} words. String labels are only looked up
    at its boundary. {!Validate.check} indexes each function of the
    program it accepts once ({!of_program}); if-conversion reads those
    indices for its first round, and the program structure tree, loop
    detection, the accelerator model's context, both interpreter
    engines and the co-simulation read those of the checked,
    if-converted program.

    A label names one node: edges to an unknown label are dropped, and
    a label given to several blocks (which {!Validate} rejects) is the
    first such block, with the edges of all of them. The index is
    immutable once built, so several domains may read it at once. *)

(** Fixed-capacity sets of small non-negative ints, packed in words.
    Every operation on two sets needs them to be made with the same
    capacity. *)
module Bits : sig
  type t

  (** The empty set over [0 .. n - 1]. *)
  val create : int -> t

  (** The set [{0 .. n - 1}]. *)
  val full : int -> t

  val copy : t -> t

  (** Removes every member. *)
  val clear : t -> unit

  val mem : t -> int -> bool
  val add : t -> int -> unit
  val remove : t -> int -> unit

  (** [inter_into ~dst src]: [dst] becomes [dst ∩ src]. *)
  val inter_into : dst:t -> t -> unit

  (** [union_into ~dst src]: [dst] becomes [dst ∪ src]. *)
  val union_into : dst:t -> t -> unit

  (** [blit ~dst src]: [dst] becomes a copy of [src]. *)
  val blit : dst:t -> t -> unit

  val inter : t -> t -> t
  val equal : t -> t -> bool
  val subset : t -> t -> bool
  val disjoint : t -> t -> bool
  val is_empty : t -> bool
  val cardinal : t -> int

  (** Members in increasing order. *)
  val iter : (int -> unit) -> t -> unit
end

(** Tables keyed by labels or register names. *)
module String_tbl : Hashtbl.S with type key = string

type t = private {
  func : Func.t;
  size : int;  (** number of nodes (distinct labels) *)
  blocks : Block.t array;  (** id -> block *)
  labels : string array;  (** id -> label *)
  index : int String_tbl.t;  (** label -> id *)
  succs : int array array;  (** targets in branch order, one per edge *)
  preds : int array array;  (** sources, one per edge *)
  returning : int array;  (** ids of blocks ending in [Return] *)
  rpo : int array;  (** reverse postorder of the blocks reachable from 0 *)
  rpo_index : int array;  (** id -> position in [rpo], [-1] if unreachable *)
  idom : int array;
      (** immediate dominator; [idom.(0) = 0], [-1] if unreachable *)
  depth : int array;  (** depth in the dominator tree, [-1] if unreachable *)
  ipdom : int array;
      (** immediate postdominator over ids [0 .. size]: node [size] is
          the virtual exit that every returning block jumps to;
          [ipdom.(size) = size], [-1] for a block that reaches no return *)
}

(** @raise Invalid_argument if the function has no blocks. *)
val of_func : Func.t -> t

(** The virtual exit node of the postdominator tree ([size]). *)
val exit_node : t -> int

val id_opt : t -> string -> int option

(** @raise Not_found for an unknown label. *)
val id : t -> string -> int

(** Reflexive dominance; [false] when either block is unreachable. *)
val dominates : t -> int -> int -> bool

(** The one forward must-defined analysis: a register is defined at a
    block's entry when every path from the function entry writes it
    first. The entry starts from the parameters, a block without
    predecessors from the parameters too, every other block from every
    register the function writes; in-sets only shrink, so the fixpoint
    reached in reverse postorder is the greatest one. Registers are
    interned to ints, parameters first and then definitions in block
    order. *)
module Must_defined : sig
  type cfg := t
  type t

  val solve : cfg -> t

  (** Interned id of a register, [-1] for one that is never written
      (and so never defined). *)
  val reg : t -> string -> int

  (** Number of interned registers: ids are [0 .. size - 1], and every
      {!at_entry} set has this capacity. *)
  val size : t -> int

  (** Registers defined at the entry of a block id. The set is shared:
      copy it before changing it. *)
  val at_entry : t -> int -> Bits.t
end

(** A program with each function's index and must-defined solution, in
    program order; [None] for a function with no blocks. *)
type program = private {
  program : Program.t;
  funcs : (t * Must_defined.t) option list;
}

(** Indexes and solves every function of a program. *)
val of_program : Program.t -> program

(** The index and solution of the first function with blocks called
    [name]. *)
val find : program -> string -> (t * Must_defined.t) option
