(** Accelerator merging (Section III-E): share reconfigurable datapath
    units between accelerators by inserting multiplexers with
    configuration registers, keeping one FSM per covered program region
    plus a global Ctrl unit. The heuristic repeatedly merges the pair with
    the highest estimated area saving until none remains positive. *)

type res = {
  units : (Cayman_ir.Op.unit_kind * int) list;
  r_coupled : int;
  r_decoupled : int;
  r_sp_words : int;
  r_regs : int;
}

type accel = {
  regions : string list;  (** program regions this accelerator serves *)
  res : res;
  area : float;
  fsms : int;
  nodes : Cayman_hls.Datapath.node list;
      (** datapath operation nodes, which {!pair_saving} matches (the
          paper's DFG-level matching) *)
}

type result = {
  accels : accel list;
  area_before : float;
  area_after : float;
  saving_pct : float;
  n_reusable : int;
  regions_per_reusable : float;
}

(** Lift one selected accelerator, given its datapath nodes
    ({!Cayman_hls.Datapath.of_kernel}), into a mergeable unit. *)
val accel_of : Cayman_hls.Datapath.node list -> Solution.accel -> accel

(** Estimated saving of merging two accelerators (can be negative). *)
val pair_saving : accel -> accel -> float

(** Merge two accelerators whose estimated saving is [saving] (from
    {!pair_saving}): paired datapaths, max-shared interfaces,
    concatenated region lists, summed FSM counts. *)
val merge_pair : accel -> accel -> saving:float -> accel

(** The greedy max-saving merging loop over an arbitrary accelerator
    population — not necessarily one program's solution, which is how
    the fleet subsystem shares accelerators across programs. Quadratic
    in the population size: fleet-scale callers pre-cluster and run it
    within clusters only. *)
val merge_accels : accel list -> accel list

(** {!merge_accels} over one program's lifted accelerators, with the
    area totals before and after (see {!Cayman.merge} for the full-flow
    wiring). *)
val run : accel list -> result

(** Verilog skeleton of one merged accelerator (Fig. 5); the index names
    the module. *)
val netlist_of : int -> accel -> Cayman_hls.Netlist.t
