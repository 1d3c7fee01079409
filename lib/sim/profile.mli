(** Execution profile: block, edge and call counts gathered by the
    interpreter, with region-level aggregation.

    Stands in for the paper's LLVM instrumentation pass: it yields, for
    every wPST region, its execution count and duration, which feed kernel
    selection and Eq. (1). *)

type t

val create : unit -> t

(** Recording (used by the interpreter). *)

val note_block : t -> func:string -> label:string -> unit
val note_edge : t -> func:string -> src:string -> dst:string -> unit
val note_call : t -> string -> unit
val add_cycles : t -> int -> unit
val add_instrs : t -> int -> unit

(** Counter slots (used by the staged interpreter): return the live
    counter for a key, creating it at 0 if absent, so the caller can
    cache the [ref] and bump it without further hash lookups. *)

val block_slot : t -> func:string -> label:string -> int ref
val edge_slot : t -> func:string -> src:string -> dst:string -> int ref
val call_slot : t -> string -> int ref

(** Queries. *)

val block_exec : t -> func:string -> label:string -> int
val edge_exec : t -> func:string -> src:string -> dst:string -> int
val func_calls : t -> string -> int
val total_cycles : t -> int
val total_instrs : t -> int

(** Whole-program duration in seconds ([T_all] of Eq. (1)). *)
val total_seconds : t -> float

(** Re-export this run's aggregate totals (cycles, instructions, calls,
    block executions — the Eq. (1) inputs) through {!Obs.Metrics} so
    they appear in [cayman stats]. Called by {!Interp.run} once per
    completed profiling run. *)
val publish_metrics : t -> unit

(** Host cycles of one block across the run: its executions times its
    static cost. *)
val cycles_of_block : t -> func:string -> Cayman_ir.Block.t -> int

(** {!cycles_of_block} of the block [label] of the function (a scan of
    its block list; per-block callers go through a label table, such as
    [Hls.Ctx.block_cycles]). *)
val block_cycles : Cayman_ir.Func.t -> t -> label:string -> int

(** Host cycles spent in the region's own blocks across the run (one
    pass over the function's blocks). *)
val region_cycles : Cayman_ir.Func.t -> t -> Cayman_analysis.Region.t -> int

(** Executions of the region (entries from outside), with the
    predecessors read from the function's index. *)
val region_entries :
  Cayman_ir.Cfg.t ->
  t ->
  Cayman_analysis.Region.t ->
  int

(** Average body iterations per loop entry, for the loop with header
    block [header] in function [func] that was entered [entries] times
    from outside ([0.0] when it never was). *)
val avg_trip :
  t ->
  func:string ->
  header:Cayman_ir.Block.t ->
  entries:int ->
  Cayman_analysis.Loops.loop ->
  float
