module Ir = Cayman_ir

exception Runtime_error of string
exception Out_of_fuel

type result = {
  return_value : Value.t option;
  memory : Memory.t;
  profile : Profile.t;
  cache_stats : Cache.stats option;
}

(* Execution observer (Rtl.Cosim, differential tests): a set of watch
   points, resolved once per run. [obs_block ~func ~label] is called
   once per block before the run starts; [Some h] makes the block a
   watch point, and [h] then fires on every entry of that block, before
   its instructions execute. [obs_return ~func] likewise resolves one
   handler per function, fired on each of its returns. Handlers get read
   access to the live register environment and memory. Both engines
   fire the handlers at exactly the same points, so an observed run is
   engine-independent; a block or function resolved to [None] runs as
   it would without an observer. *)
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

(* Value semantics of the IR operators, as the reference engine runs
   them. The staged engine and the RTL netlist simulator (Rtl.Sim) spell
   out typed specialisations of these per operator, which must stay
   semantically in lockstep (see Interp_staged); the netlist simulator
   also calls them on the boxed path a cross-type register fault
   needs. *)

let eval_bin (op : Ir.Op.bin) a b =
  match op with
  | Ir.Op.Add -> Value.Vint (Value.to_int a + Value.to_int b)
  | Ir.Op.Sub -> Value.Vint (Value.to_int a - Value.to_int b)
  | Ir.Op.Mul -> Value.Vint (Value.to_int a * Value.to_int b)
  | Ir.Op.Div ->
    let d = Value.to_int b in
    if d = 0 then raise (Runtime_error "integer division by zero")
    else Value.Vint (Value.to_int a / d)
  | Ir.Op.Rem ->
    let d = Value.to_int b in
    if d = 0 then raise (Runtime_error "integer remainder by zero")
    else Value.Vint (Value.to_int a mod d)
  | Ir.Op.And -> Value.Vint (Value.to_int a land Value.to_int b)
  | Ir.Op.Or -> Value.Vint (Value.to_int a lor Value.to_int b)
  | Ir.Op.Xor -> Value.Vint (Value.to_int a lxor Value.to_int b)
  | Ir.Op.Shl -> Value.Vint (Value.to_int a lsl Value.to_int b)
  | Ir.Op.Shr -> Value.Vint (Value.to_int a asr Value.to_int b)
  | Ir.Op.Fadd -> Value.Vfloat (Value.to_float a +. Value.to_float b)
  | Ir.Op.Fsub -> Value.Vfloat (Value.to_float a -. Value.to_float b)
  | Ir.Op.Fmul -> Value.Vfloat (Value.to_float a *. Value.to_float b)
  | Ir.Op.Fdiv -> Value.Vfloat (Value.to_float a /. Value.to_float b)

let eval_cmp (op : Ir.Op.cmp) a b =
  let r =
    match op with
    | Ir.Op.Eq -> Value.to_int a = Value.to_int b
    | Ir.Op.Ne -> Value.to_int a <> Value.to_int b
    | Ir.Op.Lt -> Value.to_int a < Value.to_int b
    | Ir.Op.Le -> Value.to_int a <= Value.to_int b
    | Ir.Op.Gt -> Value.to_int a > Value.to_int b
    | Ir.Op.Ge -> Value.to_int a >= Value.to_int b
    | Ir.Op.Feq -> Value.to_float a = Value.to_float b
    | Ir.Op.Fne -> Value.to_float a <> Value.to_float b
    | Ir.Op.Flt -> Value.to_float a < Value.to_float b
    | Ir.Op.Fle -> Value.to_float a <= Value.to_float b
    | Ir.Op.Fgt -> Value.to_float a > Value.to_float b
    | Ir.Op.Fge -> Value.to_float a >= Value.to_float b
  in
  Value.Vbool r

let eval_un (op : Ir.Op.un) a =
  match op with
  | Ir.Op.Neg -> Value.Vint (-Value.to_int a)
  | Ir.Op.Fneg -> Value.Vfloat (-.Value.to_float a)
  | Ir.Op.Not -> Value.Vbool (not (Value.to_bool a))
  | Ir.Op.Int_of_float -> Value.Vint (int_of_float (Value.to_float a))
  | Ir.Op.Float_of_int -> Value.Vfloat (float_of_int (Value.to_int a))

let default_fuel = 2_000_000_000
