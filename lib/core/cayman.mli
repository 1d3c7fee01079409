(** End-to-end Cayman driver: compile/validate, profile by interpretation,
    build the wPST and analysis contexts, run DP selection, and score
    solutions under area budgets. *)

type analyzed = {
  program : Cayman_ir.Validate.t;  (** the profiled program, indexed *)
  profile : Cayman_sim.Profile.t;
  wpst : Cayman_analysis.Wpst.t;
  ctxs : (string, Cayman_hls.Ctx.t) Hashtbl.t;
  t_all : float;  (** profiled whole-program duration in seconds *)
}

(** Profile a checked program and gather all analyses. By default the
    program is first if-converted (see {!Cayman_analysis.Ifconv}), the
    control-flow optimization a -O3 front end would apply, and checked
    again. When [fuel] is absent it is resolved through
    {!Engine.Config.fuel} (the [--fuel] flag / [CAYMAN_FUEL] / finite
    default), so a diverging program raises [Out_of_fuel] instead of
    hanging.
    @raise Invalid_argument if the if-converted program is ill-formed.
    @raise Cayman_sim.Interp.Out_of_fuel when the budget is exhausted.
    @raise Cayman_sim.Interp.Runtime_error on dynamic errors. *)
val analyze :
  ?fuel:int -> ?if_convert:bool -> Cayman_ir.Validate.t -> analyzed

(** Memo-store key of the profiling pass that {!analyze} runs over
    [program] (the validated, if-converted program) with [fuel]: the
    digest of its exact listing ({!Memo.Hash.program_code}), the fuel,
    and the name of the profile's stored layout. *)
val profile_key : fuel:int -> Cayman_ir.Program.t -> string

(** [analyze_source src] compiles MiniC source first.
    @raise Cayman_frontend.Diag.Error on frontend errors. *)
val analyze_source : ?fuel:int -> ?if_convert:bool -> string -> analyzed

(** Cayman's accelerator model packaged as a selection plug-in. *)
val gen : ?beta:float -> Cayman_hls.Kernel.mode -> Select.accel_gen

(** Stable identity of {!gen}'s knobs (mode, beta, config list), for
    memo-store keys of results that depend on the generator (the fleet
    merge's per-program key). *)
val gen_key : ?beta:float -> Cayman_hls.Kernel.mode -> string

type run_result = {
  frontier : Solution.t list;  (** filtered Pareto frontier F(root) *)
  stats : Select.stats;
  runtime_s : float;  (** selection runtime, wall-clock seconds *)
}

(** Run selection; [jobs] is forwarded to {!Select.select}'s parallel
    candidate-generation phase (the frontier is identical for every job
    count — see the engine's determinism contract). It neither reads
    nor writes the memo store; only {!analyze} does. *)
val run :
  ?params:Select.params ->
  ?beta:float ->
  ?jobs:int ->
  mode:Cayman_hls.Kernel.mode ->
  analyzed ->
  run_result

(** Best solution within [budget_ratio] x CVA6 tile area;
    {!Solution.empty} if nothing fits. *)
val best_under_ratio : run_result -> budget_ratio:float -> Solution.t

val speedup : analyzed -> Solution.t -> float

(** The kernel a selected accelerator implements: the analysis context
    of its function, its wPST region and its configuration. Both are
    looked up once; no plan, netlist or datapath is built.
    @raise Invalid_argument if [analyzed] has no context or region for
    the accelerator (it was selected from another analysis). *)
val kernel_of : analyzed -> Solution.accel -> Cayman_hls.Kernel.spec

(** {!kernel_of} every accelerator of a solution, in its order. *)
val kernels : analyzed -> Solution.t -> Cayman_hls.Kernel.spec list

(** {!Merge.run} over the solution's accelerators, each lifted with the
    datapath nodes of its {!kernel_of} (the DFG-level matching of
    Section III-E).
    @raise Invalid_argument if a kernel cannot be resolved or is not
    synthesizable. *)
val merge : analyzed -> Solution.t -> Merge.result
