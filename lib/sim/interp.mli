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

    An observer is a set of watch points, resolved once per run.
    Before the run starts, {!run} calls [obs_block ~func ~label] once for
    every block of every function: [Some h] makes the block a watch
    point, and [h] then fires on every entry of the block, before its
    instructions execute; [None] leaves the block to run exactly as in
    an unobserved run. [obs_return ~func] resolves one handler per
    function in the same way, fired whenever the function returns.
    Handlers read the live register environment ([read] answers [None]
    for a register the current call has not written) and the program
    memory. A resolver must not depend on when or how often it is
    called. To observe every block, return [Some] for every label.
    [Rtl.Cosim] watches only its kernels' region entries, the blocks
    control leaves a region to, the returns of their functions, and
    the blocks past which no kernel can be entered again; it ends the
    run by raising from a handler: {!run} lets an exception a handler
    raises through unchanged, and both engines run the same handlers
    before it. *)

type block_watch =
  read:(string -> Value.t option) -> mem:Memory.t -> unit

type return_watch =
  read:(string -> Value.t option) ->
  value:Value.t option ->
  mem:Memory.t ->
  unit

type observer = {
  obs_block : func:string -> label:string -> block_watch option;
  obs_return : func:string -> return_watch option;
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
