(* Engine-dispatching front for the interpreter. The actual execution
   engines live in Interp_reference (the original tree-walking
   interpreter, kept as semantic ground truth) and Interp_staged (the
   closure-compiled fast path). This module re-exports the shared types
   and picks an engine per run through an Engine.Config knob. *)

(* Re-export the shared exceptions and types with their identities
   preserved, so [try ... with Interp.Out_of_fuel] keeps matching
   whichever engine raised. *)
exception Runtime_error = Interp_common.Runtime_error
exception Out_of_fuel = Interp_common.Out_of_fuel

type result = Interp_common.result = {
  return_value : Value.t option;
  memory : Memory.t;
  profile : Profile.t;
  cache_stats : Cache.stats option;
}

type regs = Interp_common.regs

let read = Interp_common.read
let reg_position = Interp_common.reg_position
let reg_defined = Interp_common.reg_defined
let reg_int = Interp_common.reg_int
let reg_float = Interp_common.reg_float
let reg_value = Interp_common.reg_value
let regs_of_list = Interp_common.regs_of_list

type block_watch = Interp_common.block_watch

type return_watch = Interp_common.return_watch

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

let eval_bin = Interp_common.eval_bin
let eval_cmp = Interp_common.eval_cmp
let eval_un = Interp_common.eval_un

(* ------------------------------------------------------------------ *)
(* Engine selection                                                   *)
(* ------------------------------------------------------------------ *)

type engine =
  | Reference
  | Staged

let engine_env_var = "CAYMAN_INTERP"
let default_engine = Staged

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "reference" | "ref" -> Some Reference
  | "staged" -> Some Staged
  | _ -> None

let engine_name = function
  | Reference -> "reference"
  | Staged -> "staged"

(* The Engine.Config knob rule: explicit [?engine] > override >
   CAYMAN_INTERP > staged. *)
let knob =
  Engine.Config.knob ~env:engine_env_var ~parse:engine_of_string
    ~default:(fun () -> default_engine)

let set_engine e = Engine.Config.set knob e
let clear_engine () = Engine.Config.clear knob
let current_engine () = Engine.Config.get knob
let with_engine e f = Engine.Config.with_ knob e f

let run ?engine ?fuel ?cache_config ?observer p =
  match Engine.Config.get ?explicit:engine knob with
  | Reference -> Interp_reference.run ?fuel ?cache_config ?observer p
  | Staged -> Interp_staged.run ?fuel ?cache_config ?observer p
