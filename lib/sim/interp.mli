(** Deterministic IR interpreter with built-in profiling.

    Executes [main] of a program, recording block, edge and call counts
    plus host cycles (per {!Cpu_model}) into a {!Profile.t}. This replaces
    the paper's native instrumented execution; being deterministic, it
    makes the entire evaluation reproducible.

    Two engines implement the same observable semantics:
    {!Interp_reference} (tree-walking ground truth) and {!Interp_staged}
    (closure-compiled fast path, the default). They produce byte-identical
    profiles, memories, return values, observer callback sequences and
    exceptions — a contract enforced by test/test_interp_diff.ml. *)

exception Runtime_error of string
exception Out_of_fuel

type result = {
  return_value : Value.t option;
  memory : Memory.t;
  profile : Profile.t;
  cache_stats : Cache.stats option;
      (** present when [cache_config] was given *)
}

(** {1 Watch points}

    An observer is a set of watch points and a set of logged blocks,
    resolved once per run. Before the run starts, {!run} calls
    [obs_block ~func ~label] once for every block of every function:
    [Some w] makes the block a watch point, and [w.w_run] then fires on
    every entry of the block, before its instructions execute; [None]
    leaves the block to run exactly as in an unobserved run.
    [obs_return ~func] resolves one handler per function in the same
    way, fired whenever the function returns. A resolver must not
    depend on when or how often it is called. To observe every block,
    return [Some] for every label.

    {b Declared reads.} A watch point declares in [w_reads] the
    registers its handler reads, and the handler reads them, and only
    them, through its [regs]: by name ({!read}) or by position in
    [w_reads], typed ({!reg_defined}, {!reg_int}, {!reg_float}), which
    needs no name lookup and builds no {!Value.t}. A register counts as
    defined once the current call has written it; one the function does
    not have is never defined. Reading a register the point did not
    declare raises [Invalid_argument], with the same text in both
    engines, and so does a typed read of an undefined register or of one
    of another type. A declaration costs only where it is needed: the
    staged engine keeps a register's def byte (see DESIGN.md §11) only
    for a register that some watch point declares and cannot prove
    written there, so a handler that reads nothing declares nothing.
    A [regs] reads the live frame while its handler runs, and only then.

    {b Logged stores.} [obs_logged ~func ~label], called once per block,
    marks the blocks whose stores are logged: each completed store of a
    marked block appends its (array, index) to [obs_log], in execution
    order, in both engines. A store that faults is not logged, and a
    store in an unmarked block costs nothing extra. Handlers may read and
    clear the log; the engines only append to it.

    Handlers read memory through [mem]. [Rtl.Cosim] watches only its
    kernels' region entries, the blocks control leaves a region to, the
    returns of their functions, and the blocks past which no kernel can
    be entered again, declares there the architectural registers of the
    kernels acting, and marks its regions' blocks, so an invocation's
    memory check reads only the elements it stored. It ends the run by
    raising from a handler: {!run} lets an exception a handler raises
    through unchanged, and both engines run the same handlers, and log
    the same stores, before it. *)

(** A watch point's declared registers, as its handler sees them. *)
type regs = Interp_common.regs

(** [read regs rid]: the value of declared register [rid], [None] while
    undefined.
    @raise Invalid_argument if the watch point did not declare [rid]. *)
val read : regs -> string -> Value.t option

(** The position of [rid] among the declared registers, [-1] when
    undeclared. *)
val reg_position : regs -> string -> int

(** Whether the declared register at a position is defined. *)
val reg_defined : regs -> int -> bool

(** The defined I32 (or Bool, as 0/1) register at a position.
    @raise Invalid_argument if it is undefined or F32. *)
val reg_int : regs -> int -> int

(** The defined F32 register at a position.
    @raise Invalid_argument if it is undefined or not F32. *)
val reg_float : regs -> int -> float

(** The register at a position, boxed; [None] while undefined. *)
val reg_value : regs -> int -> Value.t option

(** Registers given by value, all defined, for a caller that drives a
    consumer of {!regs} (the RTL netlist simulator) without a run. *)
val regs_of_list : (string * Value.t) list -> regs

type block_watch = regs:regs -> mem:Memory.t -> unit

type return_watch = regs:regs -> value:Value.t option -> mem:Memory.t -> unit

(** A watch point's handler and the registers it reads. *)
type 'h watch = 'h Interp_common.watch = {
  w_reads : string list;
  w_run : 'h;
}

type observer = Interp_common.observer = {
  obs_block : func:string -> label:string -> block_watch watch option;
  obs_return : func:string -> return_watch watch option;
  obs_logged : func:string -> label:string -> bool;
  obs_log : Memory.Log.t;
}

(** {1 Engine selection}

    Resolution order: explicit [?engine] argument to {!run}, then the
    process-wide override ({!set_engine} / {!with_engine}), then the
    [CAYMAN_INTERP] environment variable ("reference" or "staged"),
    then the built-in default (staged). *)

type engine =
  | Reference  (** original tree-walking interpreter, semantic ground truth *)
  | Staged  (** closure-compiled fast path (default) *)

(** Name of the selecting environment variable: ["CAYMAN_INTERP"]. *)
val engine_env_var : string

val default_engine : engine
val engine_of_string : string -> engine option
val engine_name : engine -> string

(** Process-wide override (thread-safe), taking precedence over the
    environment. *)

val set_engine : engine -> unit

val clear_engine : unit -> unit

(** Engine that {!run} would use right now if called without [?engine]. *)
val current_engine : unit -> engine

(** [with_engine e f] runs [f] with the override set to [e], restoring
    the previous override afterwards (also on exceptions). *)
val with_engine : engine -> (unit -> 'a) -> 'a

(** [run ?engine ?fuel p] interprets [p] from [main] over the indices
    [p] carries (a checked program or {!Cayman_ir.Cfg.of_program} of a
    raw one). [fuel] bounds the number of dynamic instructions (default
    2e9). [cache_config] additionally drives a {!Cache} simulator with
    the access trace.
    @raise Runtime_error on dynamic errors (division by zero, bad memory
    access, unknown callee, uninitialized register).
    @raise Out_of_fuel when the budget is exhausted. *)
val run :
  ?engine:engine ->
  ?fuel:int ->
  ?cache_config:Cache.config ->
  ?observer:observer ->
  Cayman_ir.Cfg.program ->
  result

(** Value semantics of the IR operators, shared with the RTL netlist
    simulator so both sides of the co-simulation compute bit-identical
    results.
    @raise Runtime_error on division/remainder by zero. *)

val eval_bin : Cayman_ir.Op.bin -> Value.t -> Value.t -> Value.t
val eval_cmp : Cayman_ir.Op.cmp -> Value.t -> Value.t -> Value.t
val eval_un : Cayman_ir.Op.un -> Value.t -> Value.t
