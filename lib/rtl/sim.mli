(** Deterministic cycle-stepped simulator for structured kernel netlists.

    Executes one accelerator invocation of a {!Cayman_hls.Netlist.structure}:
    the FSM walk, per-state datapath evaluation into block-local wires,
    nonblocking register commits, pipelined-loop controllers, and the
    scratchpad/DMA shadow memory. Timing follows the schedule annotations
    embedded in the structure, so simulated cycles reproduce the
    estimator's model applied to the dynamic execution (actual trip
    counts instead of profiled averages).

    Datapath unit bodies are evaluated behaviourally via the IR operation
    each instance implements (through {!Cayman_sim.Interp.eval_bin} and
    friends), because the Verilog primitive library deliberately stubs
    the floating-point units. Sequencing, commits, interface selection
    and timing all come from the netlist structure itself. *)

(** Simulation-level failure: undriven register, call in a datapath,
    malformed FSM, or an exceeded cycle budget. *)
exception Rtl_error of string

(** {1 Register fault models}

    A fault targets one architectural register and corrupts values
    written to it during simulation. Register writes are counted per
    invocation — power-up initialization is write 1, then every FSM
    commit increments — so [f_nth] pins the fault to a deterministic
    point of the walk. Every fault class remains active from the
    [f_nth] write onward: a stuck cell never recovers, and a shorted
    bit line or mis-selected commit mux corrupts every write through
    it. A fault whose register is never written [f_nth] times simply
    never fires (see {!outcome.o_fault_fired}). *)

type fault_kind =
  | Stuck_zero  (** writes become the all-zero pattern of their type *)
  | Stuck_one
      (** writes become the all-ones pattern (int -1, bool true, float
          NaN — the bit pattern, not a numeric value) *)
  | Flip_bit of int  (** XOR bit [k mod 62] of the written value *)
  | Swap_with of string
      (** write the current value of another register instead *)

type fault = {
  f_reg : string;  (** targeted architectural register id *)
  f_kind : fault_kind;
  f_nth : int;  (** 1-based write occurrence at which the fault activates *)
}

type outcome = {
  o_regs : (string * Cayman_sim.Value.t) list;
      (** architectural register file at S_DONE, sorted by IR id *)
  o_mem : Cayman_sim.Memory.t;
      (** the memory image handed in, after scratchpad write-back *)
  o_exit : string option;
      (** IR label control left the region to; [None] when the region
          returned from the function instead *)
  o_return : Cayman_sim.Value.t option;
  o_cycles : int;
      (** invocation cycles: FSM states + pipeline entries + DMA bursts
          + {!Cayman_hls.Tech.invoke_overhead_cycles} *)
  o_iterations : int;  (** pipelined-loop iterations executed *)
  o_activations : int;  (** FSM state activations *)
  o_fault_fired : bool;
      (** the injected fault corrupted at least one register write this
          invocation; always [false] without [?fault] *)
}

(** {1 Compiled netlists}

    A structure is compiled once and then executed once per invocation.
    Compiling resolves every register, wire, state, successor label,
    commit and array base to a slot, so an invocation does no name
    lookup beyond resolving each array base once. Malformed structure
    is not rejected by {!compile}: each error is raised by {!exec} when
    the FSM walk reaches it, with the same text, and a broken state the
    walk never visits never fails. *)

type compiled

(** [compile ctx nl] stages [nl]'s FSM and datapath. [?max_cycles]
    bounds every invocation (default 2e9); [?fault] injects a register
    fault into every invocation (fault campaigns). The result holds
    mutable banks reused by every {!exec}: it belongs to one caller and
    must not be executed from two domains at once. *)
val compile :
  ?max_cycles:int ->
  ?fault:fault ->
  Cayman_hls.Ctx.t ->
  Cayman_hls.Netlist.structure ->
  compiled

(** Sorted names of every array an invocation can write in the memory
    handed to {!exec}: the bases of the datapath's stores and the
    scratchpad arrays written back at S_DONE. *)
val writes : compiled -> string list

(** [exec c ~env ~mem] simulates one invocation. [env] supplies the
    incoming value of each live-in architectural register ([None] powers
    the register up at zero of its type); [mem] is mutated in place by
    direct-interface stores and by the scratchpad write-back; arrays
    outside {!writes} are only read.
    @raise Rtl_error on simulation failure (never on a well-formed
    netlist driven with well-typed inputs). *)
val exec :
  compiled ->
  env:(string -> Cayman_sim.Value.t option) ->
  mem:Cayman_sim.Memory.t ->
  outcome

(** [run ctx nl ~env ~mem] is [exec (compile ctx nl) ~env ~mem]: one
    invocation of a freshly compiled netlist. *)
val run :
  ?max_cycles:int ->
  ?fault:fault ->
  Cayman_hls.Ctx.t ->
  Cayman_hls.Netlist.structure ->
  env:(string -> Cayman_sim.Value.t option) ->
  mem:Cayman_sim.Memory.t ->
  outcome
