(** The accelerator model: configuration generation plus performance/area
    estimation for a kernel (a wPST region), per Section III-C of the
    paper.

    A configuration fixes the control-flow optimization (loop pipelining
    and an unroll factor applied to innermost loops without carried
    dependencies) and the interface policy. Estimation schedules each
    synthesized block, applies the pipeline model to innermost loops, and
    accumulates latency and area bottom-up, using profiled execution
    counts. *)

(** A synthesis-planning invariant was violated: a bug in this module,
    not in the input region. The message names the offending
    construct. *)
exception Internal_error of string

type mode =
  | Heuristic  (** the paper's interface specialization heuristic *)
  | Coupled_only  (** ablation: coupled interfaces everywhere *)
  | Scan_only  (** QsCores-style scan-chain interfaces (baseline) *)
  | Scratchpad_preferred
      (** scratchpad for every statically-analyzable access (used by the
          Fig. 4 study) *)
  | Decoupled_preferred
      (** decoupled for every stream access, even outside pipelined loops
          (used by the Fig. 4 study) *)

type config = {
  unroll : int;
  pipeline : bool;
  mode : mode;
}

(** One kernel as netlist generation, datapath merging and
    co-simulation see it: the analysis context of its function, its
    wPST region and the configuration chosen for it. *)
type spec = {
  k_ctx : Ctx.t;
  k_region : Cayman_analysis.Region.t;
  k_config : config;
}

(** [func/region], the name reports give a kernel. *)
val spec_name : spec -> string

type iface_counts = {
  n_coupled : int;
  n_decoupled : int;
  n_scratchpad : int;
}

val no_ifaces : iface_counts

(** One design point of a synthesized kernel accelerator. *)
type point = {
  config : config;
  accel_cycles : float;
      (** accelerator cycles over the whole run, including DMA and
          invocation synchronization *)
  cpu_cycles : int;  (** profiled host cycles of the region ([T_cand]) *)
  invocations : int;
  area : float;  (** um^2 *)
  n_seq_blocks : int;  (** #SB *)
  n_pipelined : int;  (** #PR *)
  ifaces : iface_counts;  (** #C / #D / #S *)
  units : (Cayman_ir.Op.unit_kind * int) list;
      (** datapath unit multiset, consumed by accelerator merging *)
  sp_words : int;  (** total scratchpad buffer words *)
  n_regs : int;  (** datapath registers *)
}

val mode_to_string : mode -> string
val config_to_string : config -> string

(** The fast exploration strategy: sequential, pipelined, and pipelined
    with unroll factors 2, 4, 8. *)
val default_configs : mode -> config list

val max_scratchpad_words : int
val default_beta : float

(** The structural synthesis decisions for one kernel configuration,
    shared by the estimator and the RTL netlist backend. *)
type plan = {
  p_region : Cayman_analysis.Region.t;
  p_config : config;
  p_pipelined : (Cayman_analysis.Loops.loop * string * int) list;
      (** pipelined loop, its body block, unroll factor *)
  p_assignment : assignment;
  p_seq_blocks : string list;
}

and assignment

val plan :
  Ctx.t -> Cayman_analysis.Region.t -> ?beta:float -> config -> plan option

(** Interface chosen for the memory node [i] of block [label]. *)
val plan_iface : plan -> string -> int -> Iface.kind

(** Scratchpad arrays of the plan: [(array, buffer words)]. *)
val plan_sp_arrays : plan -> (string * int) list

(** Full scratchpad decision per array, for the netlist backend and the
    RTL simulator's DMA model. Sorted by array name. *)
type sp_info = {
  spi_base : string;
  spi_words : int;
  spi_loaded : bool;  (** DMA-in before the kernel body runs *)
  spi_stored : bool;  (** DMA-out (write-back) after it finishes *)
  spi_banks : int;
}

val plan_sp_info : plan -> sp_info list

(** DMA cycles charged per kernel invocation (the exact term the
    estimator adds to [accel_cycles]). *)
val plan_dma_per_inv : plan -> int

(** [estimate ctx region config] is the design point for one
    configuration, or [None] when the region is not synthesizable (it
    contains calls, or never executed). *)
val estimate :
  Ctx.t -> Cayman_analysis.Region.t -> ?beta:float -> config -> point option

(** Design points for several configurations, deduplicated by
    (cycles, area). The same points, bit for bit and [config] fields
    included, as one {!estimate} per configuration, but computed as one
    sweep:
    - the region's configuration-independent facts (memory accesses
      with their footprints and Scev patterns, per-array scratchpad
      inputs, pipelineable loops, sequential-block lists, profiled
      cycles and entries) are projected once for the whole list from
      the context's per-function tables;
    - each distinct plan, keyed by the mode and the unroll factor of
      each pipelineable loop, is evaluated once: a later configuration
      with the same key would price to the same cycles and area, which
      the dedup drops, so it gives no point. [hls.kernel_plans] counts
      the plans evaluated;
    - each distinct block plan (block, scratchpad banks, interface
      vector) is scheduled once, and its summary (schedule length,
      initiation interval, interface area and counts) is kept in a
      table local to the sweep; a plan sums its blocks' summaries.
      [hls.schedules_run] therefore counts distinct block plans per
      sweep.
    [hls.kernel_estimates] and the [schedule] fault point still count
    one per configuration, skipped or not. *)
val estimate_all :
  Ctx.t ->
  Cayman_analysis.Region.t ->
  ?beta:float ->
  config list ->
  point list

(** Host seconds saved by offloading this kernel (negative when the
    accelerator loses to the host). *)
val saved_seconds : point -> float
