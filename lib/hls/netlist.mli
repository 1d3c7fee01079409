(** Structural Verilog netlist generation for kernel accelerators.

    Shares the synthesis {!Kernel.plan} with the estimator, so the
    emitted instance counts match the modelled area exactly: one
    primitive instance per operation (replicated by the unroll factor in
    pipelined bodies), one architectural register per IR register, an FSM
    state per block, interface instances per memory access, scratchpad
    banks and a DMA engine when the plan uses them.

    {!of_kernel} additionally returns a {!structure}: the same netlist
    as data, annotated with the schedule-derived per-state timing the
    estimator charges. [Rtl.Sim] executes it, [Rtl.Lint] checks it. *)

type stats = {
  n_compute : int;  (** datapath unit instances *)
  n_mem : int;  (** interface instances *)
  n_regs : int;  (** architectural registers *)
  n_states : int;  (** FSM states (including IDLE/DONE) *)
  n_wires : int;
}

type port_dir =
  | Input
  | Output

(** One primitive instance. Datapath/interface instances carry the IR
    instruction they implement ([i_block]/[i_pos] into the block's DFG)
    and the FSM state whose datapath owns them; scratchpad banks and the
    DMA engine belong to no state. *)
type instance = {
  i_name : string;
  i_module : string;
  i_params : (string * string) list;
  i_ports : (string * string) list;  (** formal -> actual expression *)
  i_state : string option;
  i_block : string option;
  i_pos : int option;
}

(** One FSM edge. [t_guard] is the Verilog condition under which it is
    taken ([None] = unconditional); [t_label] is the IR successor label
    the edge realizes — present even when the successor lies outside the
    region and the edge therefore targets [S_DONE]. *)
type transition = {
  t_from : string;
  t_guard : string option;
  t_to : string;
  t_label : string option;
}

type state_kind =
  | S_idle
  | S_seq  (** sequential block datapath *)
  | S_pipe  (** pipeline controller of a pipelined loop *)
  | S_done

type fsm_state = {
  s_name : string;
  s_index : int;  (** the localparam encoding *)
  s_kind : state_kind;
  s_block : string option;  (** IR block of a datapath state *)
  s_cycles : int;
      (** cycles per visit of a sequential state: schedule length plus
          {!Tech.seq_ctrl_cycles} — exactly what the estimator charges.
          0 for idle/done/pipelined states. *)
}

(** The pipeline controller a pipelined loop's blocks collapse into:
    header compare and induction update are absorbed, the body datapath
    is replicated [pc_unroll] times, and one loop entry costs
    [pc_depth + pc_ii * (groups - 1) + 2] cycles for
    [groups = ceil(trip / pc_unroll)] — the estimator's model. *)
type pipe_ctrl = {
  pc_state : string;
  pc_header : string;
  pc_body : string;
  pc_latch : string;
  pc_blocks : string list;
  pc_unroll : int;
  pc_depth : int;
  pc_ii : int;
}

type structure = {
  nl_name : string;
  nl_ports : (string * port_dir * int) list;
  nl_params : (string * int) list;
  nl_regs : (string * int) list;  (** declared regs, including "state" *)
  nl_wires : (string * int) list;
  nl_assigns : (string * string) list;
  nl_instances : instance list;
  nl_states : fsm_state list;
  nl_transitions : transition list;
  nl_entry : string;  (** state entered from S_IDLE on start *)
  nl_commits : (string * (Cayman_ir.Instr.reg * string) list) list;
      (** per state: architectural registers latched when the state's
          activation ends, with their driving wires *)
  nl_pipes : pipe_ctrl list;
  nl_sp : Kernel.sp_info list;
  nl_dma_per_inv : int;
  nl_region_entry : string;
  nl_region_exit : string option;
  nl_arch_regs : (string * Cayman_ir.Types.t) list;
      (** IR register id -> type, sorted by id *)
}

type t = {
  module_name : string;
  verilog : string;
  stats : stats;
  structure : structure option;
      (** present for {!of_kernel} netlists; [None] for {!of_reusable} *)
}

(** Netlist register name of an IR register id. *)
val reg_name : string -> string

(** [None] when the kernel is not synthesizable (same condition as
    {!Kernel.estimate}). *)
val of_kernel :
  Ctx.t ->
  Cayman_analysis.Region.t ->
  ?beta:float ->
  Kernel.config ->
  t option

(** {!of_kernel} of a selected kernel, whose design point shows it is
    synthesizable.
    @raise Invalid_argument if it is not. *)
val of_spec : Kernel.spec -> t

(** The {!structure} of {!of_spec}.
    @raise Invalid_argument if the kernel is not synthesizable. *)
val structure_of : Kernel.spec -> structure

(** Reusable (merged) accelerator skeleton: a shared reconfigurable
    datapath bank with muxed inputs and configuration registers, one FSM
    per covered region, and a global Ctrl unit (the paper's Fig. 5).
    Takes the merged resource vector so it stays independent of the
    selection layer. *)
val of_reusable :
  name:string ->
  units:(Cayman_ir.Op.unit_kind * int) list ->
  n_coupled:int ->
  n_decoupled:int ->
  sp_words:int ->
  fsms:int ->
  regions:string list ->
  t

(** Behavioural stub library for the emitted primitives. *)
val primitives : string
