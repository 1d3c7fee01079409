(** The reference interpreter engine: per-instruction match dispatch over
    a string-keyed register environment. Slow, simple, and the semantic
    ground truth that {!Interp_staged} is differentially tested against.
    Use {!Interp.run} (which dispatches on the selected engine) rather
    than calling this directly. *)

(** [run] inside the ["sim.interp"] trace span. *)

val run :
  ?fuel:int ->
  ?cache_config:Cache.config ->
  ?observer:Interp_common.observer ->
  Cayman_ir.Cfg.program ->
  Interp_common.result

(** [run] without opening the ["sim.interp"] span, for the staged
    engine's fallback, which runs inside its own. *)
val exec :
  ?fuel:int ->
  ?cache_config:Cache.config ->
  ?observer:Interp_common.observer ->
  Cayman_ir.Cfg.program ->
  Interp_common.result
