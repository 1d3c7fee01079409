(** Datapath-level merging support: the operation nodes of a kernel's
    synthesized datapath (with pipeline levels), held as a per-kind
    level profile, and the greedy mux-inserting pairing of Section
    III-E. *)

type node = {
  n_kind : Cayman_ir.Op.unit_kind;
  n_level : int;  (** ASAP issue cycle within its block *)
}

(** A datapath's level profile: for each unit kind, in
    {!Cayman_ir.Op.all_unit_kinds} order, the ascending levels of its
    nodes. Immutable. *)
type t

(** The profile of a node multiset (any order). *)
val of_nodes : node list -> t

(** The nodes of a profile: kinds in {!Cayman_ir.Op.all_unit_kinds}
    order, levels ascending within a kind. *)
val nodes : t -> node list

(** [iter f p] calls [f kind level] once per node, in {!nodes} order. *)
val iter : (Cayman_ir.Op.unit_kind -> int -> unit) -> t -> unit

(** Number of nodes. *)
val size : t -> int

(** Profile of a synthesis plan (unrolled bodies replicated). *)
val of_plan : Ctx.t -> Kernel.plan -> t

(** Profile of a selected kernel's synthesis plan.
    @raise Invalid_argument if the kernel is not synthesizable. *)
val of_kernel : Kernel.spec -> t

type pairing = {
  n_shared : int;  (** unit instances kept once instead of twice *)
  n_only_a : int;
  n_only_b : int;
  saved_area : float;
  merged : t;  (** datapath of the merged accelerator *)
}

(** Overhead of sharing one unit between two uses [level_gap] pipeline
    stages apart (muxes + configuration bits + balance registers). *)
val share_overhead : level_gap:int -> float

(** Greedy level-aware matching per unit kind: the i-th node of a kind
    in one profile is matched with the i-th in the other, and a match
    is kept when the unit's area exceeds its sharing overhead. The
    saving sums kinds in {!Cayman_ir.Op.all_unit_kinds} order, then
    matches in level order. *)
val pair : t -> t -> pairing

(** [(pair a b).saved_area], bit for bit, without building the merged
    profile. *)
val saved_area : t -> t -> float

val area : t -> float

(** Node count per unit kind, in {!Cayman_ir.Op.all_unit_kinds} order,
    zero counts omitted. *)
val counts : t -> (Cayman_ir.Op.unit_kind * int) list
