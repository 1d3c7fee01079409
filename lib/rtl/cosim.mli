(** Differential co-simulation of kernel netlists against the golden IR
    interpreter.

    One observed interpreter run of the whole program; at every dynamic
    entry of a kernel's region the netlist simulator ({!Sim}, compiled
    once per kernel per call) is replayed from the same state, and at the
    region's dynamic exit the two are compared exactly — architectural
    registers, every array the invocation can have changed (those the
    netlist or the golden region stores to; no other array can differ),
    the exit edge, and the return value. Simulated cycles are summed
    across invocations and compared to the estimator's [accel_cycles]
    under {!tolerance}; functional equivalence is always exact.

    The golden run ends as soon as no kernel can act again: at a block
    from which neither the current activation nor any caller waiting on
    the stack can reach a kernel's region again (once that kernel has no
    pending invocation), or at the entry that finds a kernel's
    [max_invocations] reached, whichever makes the last kernel done. A
    run ended there publishes no profile, like any run that raises, and
    counts in [rtl.cosim_golden_stops]; what the program would have done
    afterwards, a fault or fuel exhaustion included, is not seen. *)

(** Cycle-agreement bound: [|est - sim| <= tol_abs + tol_rel * sim].
    The estimator rounds profiled average trip counts; the simulator
    executes actual per-entry trips. The two agree exactly when every
    loop entry runs the same trip count (the Table II kernels) and drift
    by at most the averaging error otherwise. *)
type tolerance = {
  tol_rel : float;
  tol_abs : int;
}

(** [{ tol_rel = 0.10; tol_abs = 16 }]. Kernels with uniform trip
    counts agree exactly; the 10% headroom covers loops whose trip
    counts vary per invocation (worst observed: fft's butterfly loop at
    +8.4%), where average-trip estimation and per-trip simulation
    legitimately diverge. *)
val default_tolerance : tolerance

(** A harness invariant of this module was violated — a co-simulation
    bug, not a netlist/golden mismatch (those are reported). *)
exception Internal_error of string

type mismatch = {
  m_invocation : int;  (** 1-based golden invocation index *)
  m_kind : string;  (** ["register"], ["memory"], ["control"], ["sim-error"] *)
  m_detail : string;
}

type report = {
  r_kernel : string;  (** [func/region] *)
  r_config : string;
  r_invocations : int;  (** invocations co-simulated *)
  r_capped : bool;  (** [max_invocations] reached; cycle check skipped *)
  r_sim_cycles : int;
  r_est_cycles : float;
  r_cycles_checked : bool;
  r_cycles_ok : bool;  (** vacuously true when not checked *)
  r_iterations : int;  (** pipelined-loop iterations simulated *)
  r_mismatches : mismatch list;  (** first 8, in execution order *)
  r_n_mismatches : int;  (** total, including those past the cap *)
  r_fault_fired : bool;
      (** an injected register fault activated in at least one
          invocation; always [false] without [?faults] *)
}

val functional_ok : report -> bool

(** Deterministic multi-line rendering (used by the CLI and bench). *)
val report_to_string : report -> string

type spec = Cayman_hls.Kernel.spec = {
  k_ctx : Cayman_hls.Ctx.t;
  k_region : Cayman_analysis.Region.t;
  k_config : Cayman_hls.Kernel.config;
}

(** [run_many program specs] co-simulates every kernel in one observed
    interpreter pass over [program], the analyzed (if-converted) one;
    reports come back in [specs] order. Regions may
    belong to different functions; nested specs are handled
    independently.

    [?faults] supports fault-injection campaigns: one slot per spec
    (positionally), each carrying an optional pre-mutated netlist
    structure that replaces the freshly built one, and/or an optional
    {!Sim.fault} injected into every simulated invocation of that
    kernel. Batching many mutants of the same program into one call
    amortizes the single golden interpreter pass over all of them.

    [?max_cycles] bounds each simulated invocation (default: the
    netlist simulator's own large budget). A mutant that corrupts its
    loop registers can otherwise spin its FSM for billions of cycles;
    exceeding the budget raises inside the simulator and is reported
    as a ["sim-error"] mismatch, i.e. the fault counts as detected.
    @raise Invalid_argument if a spec's kernel is not synthesizable, or
    if [faults] has a different length than [specs].
    @raise Cayman_sim.Interp.Runtime_error if the golden program itself
    faults before every kernel is done.
    @raise Cayman_sim.Interp.Out_of_fuel if the golden program runs out
    of [fuel] before every kernel is done. *)
val run_many :
  ?fuel:int ->
  ?tolerance:tolerance ->
  ?max_invocations:int ->
  ?max_cycles:int ->
  ?faults:(Cayman_hls.Netlist.structure option * Sim.fault option) list ->
  Cayman_ir.Validate.t ->
  spec list ->
  report list

(** [run_built program built] is [run_many program (List.map fst built)]
    for a caller that has built each spec's netlist structure already
    ([Hls.Netlist.structure_of spec], to lint it): an uncached spec is
    co-simulated on the structure given, not on a second build. *)
val run_built :
  ?fuel:int ->
  ?tolerance:tolerance ->
  ?max_invocations:int ->
  Cayman_ir.Validate.t ->
  (spec * Cayman_hls.Netlist.structure) list ->
  report list

val run :
  ?fuel:int ->
  ?tolerance:tolerance ->
  ?max_invocations:int ->
  Cayman_ir.Validate.t ->
  spec ->
  report
