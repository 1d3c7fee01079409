(** Types, exceptions and operator semantics shared by the interpreter
    engines ({!Interp_reference}, {!Interp_staged}) and re-exported
    through the public {!Interp} front. *)

exception Runtime_error of string
exception Out_of_fuel

type result = {
  return_value : Value.t option;
  memory : Memory.t;
  profile : Profile.t;
  cache_stats : Cache.stats option;
}

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

val eval_bin : Cayman_ir.Op.bin -> Value.t -> Value.t -> Value.t
val eval_cmp : Cayman_ir.Op.cmp -> Value.t -> Value.t -> Value.t
val eval_un : Cayman_ir.Op.un -> Value.t -> Value.t

(** Default fuel budget shared by both engines (2e9 executed
    instructions). *)
val default_fuel : int
