(** Execution profile: block, edge and call counts gathered by the
    interpreter.

    Stands in for the paper's LLVM instrumentation pass, and keeps its
    layout: one counter array per function. It yields, for every wPST
    region, its execution count and duration ([Hls.Ctx] sums them),
    which feed kernel selection and Eq. (1).

    The layout depends only on the program: one {!counts} per function,
    in program order, whose ids are those of {!Cayman_ir.Cfg.of_func} on
    the profiled function. Both engines bind their counters when they
    compile a function, so a profile's Marshal bytes do not depend on
    the engine or on the order in which counters are first used. The
    reference engine bumps a block's counter as the block runs; the
    staged engine bumps only edges and calls, and derives each block's
    count from its incoming edges (plus the calls, for the entry) once
    the run completes, which gives the same integers. *)

(** The counters of one function. *)
type counts = {
  name : string;
  blocks : int array;  (** executions, by block id *)
  edges : int array array;
      (** [edges.(v).(k)]: exits of block [v] through its [k]th successor
          slot, in the order of the index's [succs] (a branch with the same
          target on both arms has two slots) *)
  mutable calls : int;
}

type t

(** Zeroed counters over a function's index. *)
val counts : Cayman_ir.Cfg.t -> counts

(** The profile of a program from its functions' counters, in program
    order, with both totals at 0. *)
val create : counts list -> t

(** The counters of the function called [name]: the last of that name,
    the one both engines call.
    @raise Invalid_argument when no function has that name. *)
val find : t -> string -> counts

(** Add to the run's host cycles and executed instructions. *)

val add_cycles : t -> int -> unit
val add_instrs : t -> int -> unit

val total_cycles : t -> int
val total_instrs : t -> int

(** Whole-program duration in seconds ([T_all] of Eq. (1)). *)
val total_seconds : t -> float

(** Re-export this run's aggregate totals (cycles, instructions, calls,
    block executions — the Eq. (1) inputs) through {!Obs.Metrics} so
    they appear in [cayman stats]. Called by {!Interp.run} once per
    completed profiling run. *)
val publish_metrics : t -> unit
