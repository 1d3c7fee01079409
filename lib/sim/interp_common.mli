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

(** A watch point's declared registers in the live frame, by position
    in [w_reads]. See {!Interp} for the accessors. *)
type regs

type block_watch = regs:regs -> mem:Memory.t -> unit

type return_watch = regs:regs -> value:Value.t option -> mem:Memory.t -> unit

type 'h watch = {
  w_reads : string list;
  w_run : 'h;
}

type observer = {
  obs_block : func:string -> label:string -> block_watch watch option;
  obs_return : func:string -> return_watch watch option;
  obs_logged : func:string -> label:string -> bool;
  obs_log : Memory.Log.t;
}

(** [regs ~func ~label names ~defined ~int ~float ~value]: the
    declared registers [names] of the watch point at [func]/[label]
    ([label = None] for its returns), read through the given accessors,
    each by position. An engine builds one per watch point and makes
    the accessors read the frame it hands to the handler. *)
val regs :
  func:string ->
  label:string option ->
  string list ->
  defined:(int -> bool) ->
  int:(int -> int) ->
  float:(int -> float) ->
  value:(int -> Value.t option) ->
  regs

(** The [Invalid_argument] both engines raise when a typed accessor
    ([fn] names it) reads declared register [k] while it is undefined
    or of another type. *)
val bad_typed_read : string -> int -> 'a

(** [boxed_regs ~func ~label names value]: {!regs} over boxed values,
    [value k] being the register at position [k] ([None] while
    undefined); the typed accessors unbox it, or raise as
    {!bad_typed_read} does. *)
val boxed_regs :
  func:string ->
  label:string option ->
  string list ->
  (int -> Value.t option) ->
  regs

val read : regs -> string -> Value.t option
val reg_position : regs -> string -> int
val reg_defined : regs -> int -> bool
val reg_int : regs -> int -> int
val reg_float : regs -> int -> float
val reg_value : regs -> int -> Value.t option
val regs_of_list : (string * Value.t) list -> regs

val eval_bin : Cayman_ir.Op.bin -> Value.t -> Value.t -> Value.t
val eval_cmp : Cayman_ir.Op.cmp -> Value.t -> Value.t -> Value.t
val eval_un : Cayman_ir.Op.un -> Value.t -> Value.t

(** Default fuel budget shared by both engines (2e9 executed
    instructions). *)
val default_fuel : int
