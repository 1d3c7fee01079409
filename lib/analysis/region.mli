(** Single-entry-single-exit regions and the program structure tree (PST).

    Mirrors LLVM's RegionInfo / the PST of Johnson, Pearson and Pingali
    that the paper builds on: control-flow regions are SESE at block
    granularity (all outside edges enter at the entry block, all leaving
    edges target the exit block), so an offloaded region can synchronize
    with the host at exactly two points. Every basic block additionally
    forms a [Basic_block] leaf region, matching the paper's *bb* region
    vertices. *)

module String_set :
  Set.S with type elt = string and type t = Set.Make(String).t

type kind =
  | Whole_function
  | Loop_region
  | Cond_region
  | Basic_block

type t = {
  id : int;  (** preorder id, unique within one PST *)
  kind : kind;
  entry : string;  (** entry block label *)
  exit : string option;
      (** block where control resumes after the region; [None] for the
          function root and basic blocks *)
  blocks : String_set.t;
  children : t list;
}

val kind_to_string : kind -> string

(** [Loop_region] or [Cond_region]. *)
val is_ctrl_flow : t -> bool

(** Human-readable name derived from the entry label. *)
val name : t -> string

(** Program structure tree of an indexed function; the root is the whole
    function. *)
val pst_of_cfg : Cayman_ir.Cfg.t -> t

val iter : (t -> unit) -> t -> unit
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
val find_by_id : t -> int -> t option
val pp : Format.formatter -> t -> unit
