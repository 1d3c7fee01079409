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
   once per block before the run starts; [Some w] makes the block a
   watch point, and [w.w_run] then fires on every entry of that block,
   before its instructions execute. [obs_return ~func] likewise resolves
   one handler per function, fired on each of its returns. Handlers read
   the registers their watch point declares in [w_reads], through
   [regs], and memory. [obs_logged ~func ~label], also called once per
   block, marks the blocks whose completed stores are appended to
   [obs_log]. Both engines fire the handlers and log the stores at
   exactly the same points, so an observed run is engine-independent; a
   block or function resolved to [None] and left unmarked runs as it
   would without an observer. *)

(* A watch point's declared registers in the live frame, by position in
   [w_reads]. Each engine builds one per watch point, once per run: its
   accessors read whichever frame the engine last handed to the
   point's handler. *)
type regs = {
  r_names : string array;
  r_index : (string, int) Hashtbl.t;  (* name -> position *)
  r_func : string;
  r_label : string option;  (* [None] at a return *)
  r_defined : int -> bool;
  r_int : int -> int;
  r_float : int -> float;
  r_value : int -> Value.t option;
}

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

let regs ~func ~label names ~defined ~int ~float ~value =
  let r_names = Array.of_list names in
  let r_index = Hashtbl.create (Array.length r_names) in
  Array.iteri (fun k rid -> Hashtbl.replace r_index rid k) r_names;
  { r_names;
    r_index;
    r_func = func;
    r_label = label;
    r_defined = defined;
    r_int = int;
    r_float = float;
    r_value = value }

(* The error both engines raise for a read of a register the watch
   point did not declare. *)
let undeclared_read ~func ~label rid =
  invalid_arg
    (Printf.sprintf "Interp: the watch point at %s/%s reads undeclared \
                     register %%%s"
       func
       (Option.value label ~default:"<return>")
       rid)

(* The error both engines raise for a typed read of a declared register
   that is undefined, or of another type. *)
let bad_typed_read fn k =
  invalid_arg
    (Printf.sprintf
       "Interp.%s: declared register %d is not a defined register of that \
        type"
       fn k)

let read r rid =
  match Hashtbl.find_opt r.r_index rid with
  | Some k -> r.r_value k
  | None -> undeclared_read ~func:r.r_func ~label:r.r_label rid

let reg_position r rid =
  match Hashtbl.find_opt r.r_index rid with
  | Some k -> k
  | None -> -1

let reg_defined r k = r.r_defined k
let reg_int r k = r.r_int k
let reg_float r k = r.r_float k
let reg_value r k = r.r_value k

let boxed_regs ~func ~label names value =
  let typed fn ok k =
    match Option.bind (value k) ok with
    | Some x -> x
    | None -> bad_typed_read fn k
  in
  regs ~func ~label names
    ~defined:(fun k -> Option.is_some (value k))
    ~int:
      (typed "reg_int" (function
        | Value.Vint n -> Some n
        | Value.Vbool b -> Some (Bool.to_int b)
        | Value.Vfloat _ -> None))
    ~float:
      (typed "reg_float" (function
        | Value.Vfloat x -> Some x
        | Value.Vint _ | Value.Vbool _ -> None))
    ~value

let regs_of_list bindings =
  let values = Array.of_list (List.map snd bindings) in
  boxed_regs ~func:"<bindings>" ~label:None (List.map fst bindings) (fun k ->
      Some values.(k))

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
