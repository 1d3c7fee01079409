(** Deterministic cycle-stepped simulator for structured kernel netlists.

    Executes one accelerator invocation of a {!Cayman_hls.Netlist.structure}:
    the FSM walk, per-state datapath evaluation into block-local wires,
    nonblocking register commits, pipelined-loop controllers, and the
    scratchpad/DMA shadow memory. Timing follows the schedule annotations
    embedded in the structure, so simulated cycles reproduce the
    estimator's model applied to the dynamic execution (actual trip
    counts instead of profiled averages).

    Datapath unit bodies are evaluated behaviourally via the IR operation
    each instance implements, because the Verilog primitive library
    deliberately stubs the floating-point units: each operator computes
    exactly what {!Cayman_sim.Interp.eval_bin} and friends compute, over
    unboxed typed register banks. Sequencing, commits, interface
    selection and timing all come from the netlist structure itself. *)

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
  o_mem : Cayman_sim.Memory.t;
      (** the memory image handed in, after scratchpad write-back *)
  o_stores : Cayman_sim.Memory.Log.t;
      (** the invocation's completed stores, in order, scratchpad
          stores included: [o_mem] differs from the image handed in at
          most at these elements. The log belongs to the compiled
          netlist and is cleared by its next {!exec}. *)
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
    Compiling resolves every register, wire, immediate, state, successor
    label, commit and array base to a slot, and every IR instruction to
    one closure over an [int] bank (I32 and Bool) or a [float] bank
    (F32), so an invocation does no name lookup beyond resolving each
    array base once, and a datapath instruction allocates nothing.
    The architectural registers arrive from a watch point's declared
    registers ({!Cayman_sim.Interp.regs}) and are compared with them
    by position, typed: the caller resolves each register's position
    once per declaration ({!positions}), so neither power-up nor
    read-out looks a name up or builds a {!Cayman_sim.Value.t} (the
    boxed bank of a cross-type fault, and a mismatch found, excepted).
    Malformed structure is not rejected by {!compile}: each error is
    raised by {!exec} when the FSM walk reaches it, with the same text,
    and a broken state the walk never visits never fails. *)

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

(** Where each architectural register of a netlist sits among the
    registers a watch point declares. *)
type positions

(** [positions c names]: the positions of [c]'s architectural registers
    among [names], a watch point's declared registers ([w_reads]), in
    order. Resolve it once per declaration. *)
val positions : compiled -> string list -> positions

(** [exec c ~env ~at ~mem] simulates one invocation. [env] supplies the
    incoming value of each architectural register: the declared register
    of the same name, when it is defined; any other powers up at zero of
    its type. [at] is {!positions} of [c] and the names [env] declares.
    The golden run's registers have the netlist's types (they are the
    same function's). [mem] is mutated in place by
    direct-interface stores and by the scratchpad write-back; arrays
    outside {!writes} are only read. Each invocation is one ["rtl.sim"]
    trace span, so a traced co-simulation books netlist time apart from
    the golden interpreter's ["sim.interp"] span it runs inside, and
    adds the datapath instructions it executed (each state activation
    and pipeline step counts its block's instructions) to the
    ["rtl.sim_instrs"] counter.
    @raise Rtl_error on a malformed structure (an undriven register, a
    commit without a driving wire, an undefined state, a missing
    pipeline controller or data-flow graph, a call in a datapath) or an
    exceeded cycle or activation budget.
    @raise Cayman_sim.Interp.Runtime_error on integer division or
    remainder by zero.
    @raise Cayman_sim.Memory.Fault on an out-of-bounds index, an unknown
    array, or a store of a value of the wrong kind.
    @raise Cayman_sim.Value.Type_error when an operator reads a value of
    the wrong type, which only a [Swap_with] fault between registers of
    different types can produce.
    @raise Invalid_argument when a declared register in [env] has
    another type than the architectural register of its name, or [at]
    was resolved for another netlist.
    None of these is raised on a well-formed netlist of a validated
    program driven with well-typed inputs and no fault. *)
val exec :
  compiled ->
  env:Cayman_sim.Interp.regs ->
  at:positions ->
  mem:Cayman_sim.Memory.t ->
  outcome

(** [reg_mismatches c golden at] compares the architectural registers
    after the last {!exec} of [c] with the same-named registers [golden]
    declares and defines, [at] being {!positions} of [c] and [golden]'s
    names (registers the golden run has not defined are unobservable and
    skipped): the differing ones, as (id, golden value, netlist value),
    sorted by id.
    @raise Invalid_argument if [at] was resolved for another netlist. *)
val reg_mismatches :
  compiled ->
  Cayman_sim.Interp.regs ->
  positions ->
  (string * Cayman_sim.Value.t * Cayman_sim.Value.t) list

(** [run ctx nl ~env ~mem]: one invocation of a freshly compiled
    netlist, its registers powered up from the bindings [env]. *)
val run :
  ?max_cycles:int ->
  ?fault:fault ->
  Cayman_hls.Ctx.t ->
  Cayman_hls.Netlist.structure ->
  env:(string * Cayman_sim.Value.t) list ->
  mem:Cayman_sim.Memory.t ->
  outcome
