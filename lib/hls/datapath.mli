(** Datapath-level merging support: operation nodes of a kernel's
    synthesized datapath (with pipeline levels) and the greedy
    mux-inserting pairing of Section III-E. *)

type node = {
  n_kind : Cayman_ir.Op.unit_kind;
  n_level : int;  (** ASAP issue cycle within its block *)
}

(** Compute nodes of a synthesis plan (unrolled bodies replicated). *)
val of_plan : Ctx.t -> Kernel.plan -> node list

(** Compute nodes of a selected kernel's synthesis plan.
    @raise Invalid_argument if the kernel is not synthesizable. *)
val of_kernel : Kernel.spec -> node list

type pairing = {
  n_shared : int;  (** unit instances kept once instead of twice *)
  n_only_a : int;
  n_only_b : int;
  saved_area : float;
  merged : node list;  (** datapath of the merged accelerator *)
}

(** Overhead of sharing one unit between two uses [level_gap] pipeline
    stages apart (muxes + configuration bits + balance registers). *)
val share_overhead : level_gap:int -> float

(** Greedy level-aware matching per unit kind. *)
val pair : node list -> node list -> pairing

val area : node list -> float
val counts : node list -> (Cayman_ir.Op.unit_kind * int) list
