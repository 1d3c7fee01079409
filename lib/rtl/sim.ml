module Ir = Cayman_ir
module Hls = Cayman_hls
module Value = Cayman_sim.Value
module Memory = Cayman_sim.Memory
module Interp = Cayman_sim.Interp

(* Deterministic simulator for the structured netlists of
   {!Hls.Netlist.of_kernel}: one kernel invocation is an FSM run from
   the entry state to S_DONE.

   Sequencing, register commits, interface selection and timing come
   from the netlist structure; datapath unit *bodies* are evaluated
   behaviourally, with the IR operation each instance implements (the
   Verilog stub library deliberately fakes the floating-point units).
   Each operator computes exactly what {!Interp.eval_bin} and friends
   compute, so both sides of a co-simulation agree bit for bit.

   - A sequential state evaluates its block's datapath into block-local
     wires (reads of registers defined earlier in the same block go
     through the wire, as in the emitted Verilog), latches the state's
     commit list at the end of the activation, and pays the
     schedule-annotated cycles ([s_cycles] = schedule length +
     FSM control), which embed the interface load/store latencies and
     shared-port occupancy of {!Hls.Schedule}.
   - A pipelined state runs its loop (header -> body -> latch) to
     completion, counting header-to-body iterations, and pays
     [depth + II * (ceil(trip / unroll) - 1) + 2] cycles per entry with
     the netlist's annotated depth/II — the estimator's model applied
     to the *dynamic* trip count.
   - Scratchpad arrays live in a private shadow memory: DMA fills it
     at invocation start and writes stored arrays back at the end;
     every invocation additionally pays the DMA burst cycles and the
     invocation overhead, exactly as {!Hls.Kernel.estimate} charges
     them.

   The simulator is staged: {!compile} resolves a structure once and
   {!exec} runs one invocation over what it built. Registers, the wires
   of the block being evaluated and the immediates live in two unboxed
   banks fixed at compile time: an [int array] for I32 and Bool (0/1),
   a [float array] for F32. Every IR instruction compiles to one
   closure spelled out per operator over bank slots, so a datapath step
   allocates nothing and calls no shared evaluator; commits are slot
   copies. Whether an operand reads a wire or a register is decided
   statically: the wire when an earlier instruction of the same block
   defines it, the register otherwise. Every architectural register is
   written at power-up, so only a read of another register (possible in
   a hand-damaged structure) gets an undriven-register check: a closure
   of its own, placed where the operand is read (a binary operator's
   right operand before its left, a store's value before its index,
   only the arm a select takes).

   One fault breaks the typing: [Swap_with] between registers of
   different types (I32 and Bool count as different) writes a value of
   the other type into its target, and the value travels on through
   assigns, selects and commits until an operator rejects it with a
   type error. [compile] sees the fault, so it finds every register an
   assign or select can copy the target's value into (a fixpoint over
   register ids) and gives those registers and their wires slots of a
   third, boxed [Value.t] bank; an instruction that touches a boxed slot
   evaluates through [Interp.eval_*] as a boxed simulator would.
   Without such a fault the boxed bank is empty.

   Malformed structure found while compiling (an undefined state, a
   commit with no driving wire, ...) compiles to a node that raises the
   error when the walk reaches it, so a broken state the walk never
   visits never fails. *)

exception Rtl_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Rtl_error m)) fmt

(* --- register fault models ---

   A fault targets one architectural register and corrupts the value
   written to it. Writes are counted per invocation — power-up
   initialization is write 1, then every commit increments — so a
   given [f_nth] activates at a deterministic point of the FSM walk
   and stays active from that write onward: a stuck cell never
   recovers, and a shorted bit line or mis-selected commit mux
   corrupts every write through it. *)

type fault_kind =
  | Stuck_zero
  | Stuck_one
  | Flip_bit of int
  | Swap_with of string

type fault = {
  f_reg : string;
  f_kind : fault_kind;
  f_nth : int;
}

let stuck_zero = function
  | Value.Vint _ -> Value.Vint 0
  | Value.Vbool _ -> Value.Vbool false
  | Value.Vfloat _ -> Value.Vfloat 0.0

(* all-ones bit pattern of the value's storage (NaN for floats) *)
let stuck_one = function
  | Value.Vint _ -> Value.Vint (-1)
  | Value.Vbool _ -> Value.Vbool true
  | Value.Vfloat _ -> Value.Vfloat (Int64.float_of_bits (-1L))

let flip_bit k = function
  | Value.Vint n -> Value.Vint (n lxor (1 lsl (k mod 62)))
  | Value.Vbool b -> Value.Vbool (not b)
  | Value.Vfloat x ->
    Value.Vfloat
      (Int64.float_of_bits
         (Int64.logxor (Int64.bits_of_float x)
            (Int64.shift_left 1L (k mod 62))))

type outcome = {
  o_mem : Memory.t;  (* the simulator's memory image, write-back done *)
  o_stores : Memory.Log.t;  (* this invocation's stores, in order *)
  o_exit : string option;  (* IR label control left to; None = return *)
  o_return : Value.t option;
  o_cycles : int;  (* invocation cycles incl. DMA + invoke overhead *)
  o_iterations : int;  (* pipelined-loop iterations executed *)
  o_activations : int;  (* FSM state activations *)
  o_fault_fired : bool;  (* the injected fault corrupted at least one write *)
}

(* Where a value lives: a slot of the int bank (I32, and Bool as 0/1),
   of the float bank, or of the boxed bank (cross-type swap faults
   only). *)
type loc =
  | I of int
  | F of int
  | B of int

(* An operand resolved at compile time: its slot, its IR type, and for
   a register no power-up write covers, its def byte and id. *)
type src = {
  loc : loc;
  ty : Ir.Types.t;
  undriven : (int * string) option;
}

(* A register the netlist can read or write; [uid] indexes the def
   bytes. *)
type reg = {
  id : string;
  uid : int;
  rty : Ir.Types.t;
  rloc : loc;
  arch : bool;
}

(* A block's terminator, its operand resolved the way the terminator
   sees it: after every instruction of the block. *)
type term =
  | Jump of string
  | Branch of src * string * string
  | Return of src option

(* One block's compiled datapath. *)
type block = {
  b_body : (unit -> unit) array;  (* the instructions' closures, in order *)
  b_size : int;  (* datapath instructions, for [rtl.sim_instrs] *)
  b_final : string -> loc option;  (* wire of a register's last definition *)
  b_def_commits : (unit -> unit) Lazy.t;  (* each definition, committed *)
  b_term : term;
}

(* Each architectural register's position among a watch point's
   declared registers, in [nl_arch_regs] order; [-1] for one not
   declared. *)
type positions = int array

type compiled = {
  c_writes : string list;
  c_arch : string array;  (* the architectural registers' ids, sorted *)
  c_exec : env:Interp.regs -> at:positions -> mem:Memory.t -> outcome;
  c_mismatches : Interp.regs -> positions -> (string * Value.t * Value.t) list;
}

let writes c = c.c_writes

let positions c names =
  let index = Hashtbl.create 16 in
  List.iteri (fun k rid -> Hashtbl.replace index rid k) names;
  Array.map
    (fun rid -> Option.value (Hashtbl.find_opt index rid) ~default:(-1))
    c.c_arch

let check_positions c at =
  if Array.length at <> Array.length c.c_arch then
    invalid_arg "Rtl.Sim: positions of another netlist"

let reg_mismatches c golden at =
  check_positions c at;
  c.c_mismatches golden at

let exec c ~env ~at ~mem =
  check_positions c at;
  Obs.Trace.span ~cat:"rtl" "rtl.sim" (fun () -> c.c_exec ~env ~at ~mem)

let m_instrs = Obs.Metrics.counter "rtl.sim_instrs"

(* The dense index of [key] in [tbl], assigned on first sight. *)
let intern tbl key =
  match Hashtbl.find_opt tbl key with
  | Some i -> i
  | None ->
    let i = Hashtbl.length tbl in
    Hashtbl.replace tbl key i;
    i

(* The keys of an [intern] table, by index. *)
let keys_by_index tbl dummy =
  let a = Array.make (Hashtbl.length tbl) dummy in
  Hashtbl.iter (fun k i -> a.(i) <- k) tbl;
  a

(* Successor encoding of a compiled FSM node: [>= 0] is the node to
   activate next, [stop] ends the walk (S_IDLE/S_DONE or a return), and
   [exit_code k] leaves the region through the [k]-th exit label. *)
let stop = -1

let exit_code k = -2 - k

let iter_operands f (instr : Ir.Instr.t) =
  match instr with
  | Ir.Instr.Assign (_, o) | Ir.Instr.Unary (_, _, o) -> f o
  | Ir.Instr.Binary (_, _, a, b) | Ir.Instr.Compare (_, _, a, b) ->
    f a;
    f b
  | Ir.Instr.Select (_, c, a, b) ->
    f c;
    f a;
    f b
  | Ir.Instr.Load (_, m) -> f m.Ir.Instr.index
  | Ir.Instr.Store (m, v) ->
    f m.Ir.Instr.index;
    f v
  | Ir.Instr.Call (_, _, args) -> List.iter f args

let run_body (body : (unit -> unit) array) =
  for k = 0 to Array.length body - 1 do
    (Array.unsafe_get body k) ()
  done

(* --- typed datapath closures ---

   One closure per operator over bank slots [d] (result) and [a]/[b]
   (operands), reading and writing the banks [r] (ints) and [f]
   (floats) it captured at compile time. The bodies are spelled out
   operator by operator on purpose, as in {!Cayman_sim.Interp_staged}:
   a shared higher-order helper would put a call per operand, and a box
   per float, back on the path. Each computes what {!Interp.eval_bin},
   {!Interp.eval_cmp} and {!Interp.eval_un} compute. *)

let int_binary (op : Ir.Op.bin) (r : int array) d a b : unit -> unit =
  match op with
  | Ir.Op.Add ->
    fun () ->
      Array.unsafe_set r d (Array.unsafe_get r a + Array.unsafe_get r b)
  | Ir.Op.Sub ->
    fun () ->
      Array.unsafe_set r d (Array.unsafe_get r a - Array.unsafe_get r b)
  | Ir.Op.Mul ->
    fun () ->
      Array.unsafe_set r d (Array.unsafe_get r a * Array.unsafe_get r b)
  | Ir.Op.Div ->
    fun () ->
      let y = Array.unsafe_get r b in
      if y = 0 then raise (Interp.Runtime_error "integer division by zero");
      Array.unsafe_set r d (Array.unsafe_get r a / y)
  | Ir.Op.Rem ->
    fun () ->
      let y = Array.unsafe_get r b in
      if y = 0 then raise (Interp.Runtime_error "integer remainder by zero");
      Array.unsafe_set r d (Array.unsafe_get r a mod y)
  | Ir.Op.And ->
    fun () ->
      Array.unsafe_set r d (Array.unsafe_get r a land Array.unsafe_get r b)
  | Ir.Op.Or ->
    fun () ->
      Array.unsafe_set r d (Array.unsafe_get r a lor Array.unsafe_get r b)
  | Ir.Op.Xor ->
    fun () ->
      Array.unsafe_set r d (Array.unsafe_get r a lxor Array.unsafe_get r b)
  | Ir.Op.Shl ->
    fun () ->
      Array.unsafe_set r d (Array.unsafe_get r a lsl Array.unsafe_get r b)
  | Ir.Op.Shr ->
    fun () ->
      Array.unsafe_set r d (Array.unsafe_get r a asr Array.unsafe_get r b)
  | Ir.Op.Fadd | Ir.Op.Fsub | Ir.Op.Fmul | Ir.Op.Fdiv ->
    invalid_arg "Sim.int_binary"

let float_binary (op : Ir.Op.bin) (f : float array) d a b : unit -> unit =
  match op with
  | Ir.Op.Fadd ->
    fun () ->
      Array.unsafe_set f d (Array.unsafe_get f a +. Array.unsafe_get f b)
  | Ir.Op.Fsub ->
    fun () ->
      Array.unsafe_set f d (Array.unsafe_get f a -. Array.unsafe_get f b)
  | Ir.Op.Fmul ->
    fun () ->
      Array.unsafe_set f d (Array.unsafe_get f a *. Array.unsafe_get f b)
  | Ir.Op.Fdiv ->
    fun () ->
      Array.unsafe_set f d (Array.unsafe_get f a /. Array.unsafe_get f b)
  | Ir.Op.Add | Ir.Op.Sub | Ir.Op.Mul | Ir.Op.Div | Ir.Op.Rem | Ir.Op.And
  | Ir.Op.Or | Ir.Op.Xor | Ir.Op.Shl | Ir.Op.Shr ->
    invalid_arg "Sim.float_binary"

let int_compare (op : Ir.Op.cmp) (r : int array) d a b : unit -> unit =
  match op with
  | Ir.Op.Eq ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a = Array.unsafe_get r b))
  | Ir.Op.Ne ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a <> Array.unsafe_get r b))
  | Ir.Op.Lt ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a < Array.unsafe_get r b))
  | Ir.Op.Le ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a <= Array.unsafe_get r b))
  | Ir.Op.Gt ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a > Array.unsafe_get r b))
  | Ir.Op.Ge ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a >= Array.unsafe_get r b))
  | Ir.Op.Feq | Ir.Op.Fne | Ir.Op.Flt | Ir.Op.Fle | Ir.Op.Fgt | Ir.Op.Fge ->
    invalid_arg "Sim.int_compare"

let float_compare (op : Ir.Op.cmp) (r : int array) (f : float array) d a b
    : unit -> unit =
  match op with
  | Ir.Op.Feq ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get f a = Array.unsafe_get f b))
  | Ir.Op.Fne ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get f a <> Array.unsafe_get f b))
  | Ir.Op.Flt ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get f a < Array.unsafe_get f b))
  | Ir.Op.Fle ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get f a <= Array.unsafe_get f b))
  | Ir.Op.Fgt ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get f a > Array.unsafe_get f b))
  | Ir.Op.Fge ->
    fun () ->
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get f a >= Array.unsafe_get f b))
  | Ir.Op.Eq | Ir.Op.Ne | Ir.Op.Lt | Ir.Op.Le | Ir.Op.Gt | Ir.Op.Ge ->
    invalid_arg "Sim.float_compare"

(* [None] when the operand and result slots are not the banks the
   operator works on (a boxed slot): the caller then evaluates it
   boxed. *)
let unary (op : Ir.Op.un) (r : int array) (f : float array) d a :
    (unit -> unit) option =
  match op, d, a with
  | Ir.Op.Neg, I d, I a ->
    Some (fun () -> Array.unsafe_set r d (-Array.unsafe_get r a))
  | Ir.Op.Not, I d, I a ->
    Some (fun () -> Array.unsafe_set r d (Array.unsafe_get r a lxor 1))
  | Ir.Op.Fneg, F d, F a ->
    Some (fun () -> Array.unsafe_set f d (-.Array.unsafe_get f a))
  | Ir.Op.Int_of_float, I d, F a ->
    Some (fun () -> Array.unsafe_set r d (int_of_float (Array.unsafe_get f a)))
  | Ir.Op.Float_of_int, F d, I a ->
    Some (fun () -> Array.unsafe_set f d (float_of_int (Array.unsafe_get r a)))
  | (Ir.Op.Neg | Ir.Op.Not | Ir.Op.Fneg | Ir.Op.Int_of_float
    | Ir.Op.Float_of_int), _, _ ->
    None

let compile ?(max_cycles = 2_000_000_000) ?fault (ctx : Hls.Ctx.t)
    (nl : Hls.Netlist.structure) =
  let open Hls.Netlist in
  (* index the structure; duplicate names resolve as a Hashtbl.replace
     walk over the lists would *)
  let state_by_name = Hashtbl.create 16 in
  List.iter
    (fun (s : fsm_state) -> Hashtbl.replace state_by_name s.s_name s)
    nl.nl_states;
  let pipe_by_state = Hashtbl.create 4 in
  List.iter
    (fun (pc : pipe_ctrl) -> Hashtbl.replace pipe_by_state pc.pc_state pc)
    nl.nl_pipes;
  let commits_by_state = Hashtbl.create 16 in
  List.iter
    (fun (s, cs) -> Hashtbl.replace commits_by_state s cs)
    nl.nl_commits;
  (* IR label -> FSM state (pipelined headers/latches alias to their
     controller's state) *)
  let state_of_label = Hashtbl.create 16 in
  List.iter
    (fun (s : fsm_state) ->
      match s.s_block with
      | Some l -> Hashtbl.replace state_of_label l s.s_name
      | None -> ())
    nl.nl_states;
  List.iter
    (fun (pc : pipe_ctrl) ->
      List.iter
        (fun l ->
          if not (Hashtbl.mem state_of_label l) then
            Hashtbl.replace state_of_label l pc.pc_state)
        pc.pc_blocks)
    nl.nl_pipes;
  (* the DFG of every block a state or controller can evaluate; a label
     without one fails when the walk reaches it *)
  let dfgs = Hashtbl.create 16 in
  let add_label l =
    if not (Hashtbl.mem dfgs l) then
      Hashtbl.replace dfgs l
        (try Some (Hls.Ctx.dfg ctx l) with Not_found -> None)
  in
  List.iter (fun (s : fsm_state) -> Option.iter add_label s.s_block)
    nl.nl_states;
  List.iter
    (fun (pc : pipe_ctrl) ->
      add_label pc.pc_header;
      List.iter add_label pc.pc_blocks)
    nl.nl_pipes;
  (* every register the netlist can read or write, with the type it is
     first seen at; the immediates of each bank, counted *)
  let reg_ids = Hashtbl.create 32 in
  let reg_tys = ref [] in
  let add_reg id ty =
    if not (Hashtbl.mem reg_ids id) then begin
      Hashtbl.replace reg_ids id (Hashtbl.length reg_ids);
      reg_tys := ty :: !reg_tys
    end
  in
  let add_ir_reg (r : Ir.Instr.reg) = add_reg r.Ir.Instr.id r.Ir.Instr.ty in
  let n_int_imms = ref 0 and n_float_imms = ref 0 in
  let count_imm (o : Ir.Instr.operand) =
    match o with
    | Ir.Instr.Imm_int _ | Ir.Instr.Imm_bool _ -> incr n_int_imms
    | Ir.Instr.Imm_float _ -> incr n_float_imms
    | Ir.Instr.Reg _ -> ()
  in
  (* array bases, each resolved once per invocation *)
  let base_slots = Hashtbl.create 8 in
  let add_base base = ignore (intern base_slots base : int) in
  let stored = ref [] in
  let max_wires = ref 0 in
  List.iter (fun (rid, ty) -> add_reg rid ty) nl.nl_arch_regs;
  (* the architectural registers take the first uids *)
  let n_arch = Hashtbl.length reg_ids in
  Hashtbl.iter
    (fun _ dfg ->
      match dfg with
      | None -> ()
      | Some (dfg : Hls.Dfg.t) ->
        max_wires := max !max_wires (Array.length dfg.Hls.Dfg.instrs);
        Array.iter
          (fun instr ->
            Option.iter add_ir_reg (Ir.Instr.def instr);
            List.iter add_ir_reg (Ir.Instr.uses instr);
            iter_operands count_imm instr;
            match instr with
            | Ir.Instr.Load (_, m) -> add_base m.Ir.Instr.base
            | Ir.Instr.Store (m, _) ->
              add_base m.Ir.Instr.base;
              stored := m.Ir.Instr.base :: !stored
            | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
            | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Call _ ->
              ())
          dfg.Hls.Dfg.instrs;
        (match dfg.Hls.Dfg.block.Ir.Block.term with
         | Ir.Instr.Branch (c, _, _) -> count_imm c
         | Ir.Instr.Return (Some o) -> count_imm o
         | Ir.Instr.Jump _ | Ir.Instr.Return None -> ());
        List.iter add_ir_reg
          (Ir.Instr.term_uses dfg.Hls.Dfg.block.Ir.Block.term))
    dfgs;
  List.iter
    (fun (_, cs) -> List.iter (fun (r, _) -> add_ir_reg r) cs)
    nl.nl_commits;
  let n_regs = Hashtbl.length reg_ids in
  let reg_tys = Array.of_list (List.rev !reg_tys) in
  (* A cross-type swap: the registers an assign or select can copy the
     target's value into, up to a fixpoint, live boxed. Registers of the
     same id share the status of their wires, so a commit copies within
     one bank. *)
  let boxed =
    match fault with
    | Some { f_reg; f_kind = Swap_with other; _ } -> (
      match Hashtbl.find_opt reg_ids f_reg, Hashtbl.find_opt reg_ids other with
      | Some t, Some o when not (Ir.Types.equal reg_tys.(t) reg_tys.(o)) ->
        let boxed = Hashtbl.create 8 in
        Hashtbl.replace boxed f_reg ();
        let carries (o : Ir.Instr.operand) =
          match o with
          | Ir.Instr.Reg r -> Hashtbl.mem boxed r.Ir.Instr.id
          | Ir.Instr.Imm_int _ | Ir.Instr.Imm_float _ | Ir.Instr.Imm_bool _ ->
            false
        in
        let grew = ref true in
        while !grew do
          grew := false;
          Hashtbl.iter
            (fun _ dfg ->
              Option.iter
                (fun (dfg : Hls.Dfg.t) ->
                  Array.iter
                    (fun (instr : Ir.Instr.t) ->
                      match instr with
                      | Ir.Instr.Assign (r, a) | Ir.Instr.Select (r, _, a, _)
                        when carries a && not (Hashtbl.mem boxed r.Ir.Instr.id)
                        ->
                        Hashtbl.replace boxed r.Ir.Instr.id ();
                        grew := true
                      | Ir.Instr.Select (r, _, _, b)
                        when carries b && not (Hashtbl.mem boxed r.Ir.Instr.id)
                        ->
                        Hashtbl.replace boxed r.Ir.Instr.id ();
                        grew := true
                      | Ir.Instr.Assign _ | Ir.Instr.Select _
                      | Ir.Instr.Unary _ | Ir.Instr.Binary _
                      | Ir.Instr.Compare _ | Ir.Instr.Load _
                      | Ir.Instr.Store _ | Ir.Instr.Call _ ->
                        ())
                    dfg.Hls.Dfg.instrs)
                dfg)
            dfgs
        done;
        Hashtbl.mem boxed
      | _ -> fun _ -> false)
    | Some _ | None -> fun _ -> false
  in
  (* the banks: each holds its registers, then its immediates, then the
     wires of the block being evaluated (blocks never overlap, so one
     stretch serves them all) *)
  let n_int_regs = ref 0 and n_float_regs = ref 0 and n_boxed_regs = ref 0 in
  let ids = keys_by_index reg_ids "" in
  let regs =
    Array.mapi
      (fun uid id ->
        let rty = reg_tys.(uid) in
        let rloc =
          if boxed id then (
            incr n_boxed_regs;
            B uid)
          else
            match rty with
            | Ir.Types.I32 | Ir.Types.Bool ->
              incr n_int_regs;
              I (!n_int_regs - 1)
            | Ir.Types.F32 ->
              incr n_float_regs;
              F (!n_float_regs - 1)
        in
        { id; uid; rty; rloc; arch = uid < n_arch })
      ids
  in
  let find_reg id = Option.map (Array.get regs) (Hashtbl.find_opt reg_ids id) in
  let reg id = regs.(Hashtbl.find reg_ids id) in
  let ints = Array.make (!n_int_regs + !n_int_imms + !max_wires) 0 in
  let flts = Array.make (!n_float_regs + !n_float_imms + !max_wires) 0.0 in
  let vals =
    if !n_boxed_regs = 0 then [||]
    else Array.make (n_regs + !max_wires) (Value.Vint 0)
  in
  (* an immediate's slot, one per occurrence *)
  let next_int_imm = ref !n_int_regs and next_float_imm = ref !n_float_regs in
  let int_imm n =
    let k = !next_int_imm in
    incr next_int_imm;
    ints.(k) <- n;
    k
  in
  let float_imm x =
    let k = !next_float_imm in
    incr next_float_imm;
    flts.(k) <- x;
    k
  in
  let int_wires = !n_int_regs + !n_int_imms
  and float_wires = !n_float_regs + !n_float_imms in
  let defined = Bytes.make n_regs '\000' in
  (* per-invocation state *)
  let fault_writes = ref 0 in
  let fault_fired = ref false in
  let cycles = ref 0 in
  let iterations = ref 0 in
  let activations = ref 0 in
  let instrs = ref 0 in
  let stores = Memory.Log.create () in
  let exit_label = ref None in
  let return_value = ref None in
  let name = nl.nl_name in
  (* boxed access, for slots of the boxed bank and the rare paths that
     hand a value across the [Value.t] interface *)
  let box loc (ty : Ir.Types.t) : unit -> Value.t =
    match loc, ty with
    | I k, Ir.Types.Bool -> fun () -> Value.Vbool (Array.unsafe_get ints k <> 0)
    | I k, (Ir.Types.I32 | Ir.Types.F32) ->
      fun () -> Value.Vint (Array.unsafe_get ints k)
    | F k, _ -> fun () -> Value.Vfloat (Array.unsafe_get flts k)
    | B k, _ -> fun () -> Array.unsafe_get vals k
  in
  let unbox loc (ty : Ir.Types.t) : Value.t -> unit =
    match loc, ty with
    | I k, Ir.Types.Bool ->
      fun v -> Array.unsafe_set ints k (Bool.to_int (Value.to_bool v))
    | I k, (Ir.Types.I32 | Ir.Types.F32) ->
      fun v -> Array.unsafe_set ints k (Value.to_int v)
    | F k, _ -> fun v -> Array.unsafe_set flts k (Value.to_float v)
    | B k, _ -> fun v -> Array.unsafe_set vals k v
  in
  let get where (s : src) : unit -> Value.t =
    let read = box s.loc s.ty in
    match s.undriven with
    | None -> read
    | Some (uid, id) ->
      fun () ->
        if Bytes.unsafe_get defined uid <> '\000' then read ()
        else fail "undriven register %%%s in %s" id where
  in
  let check where (s : src) =
    match s.undriven with
    | None -> None
    | Some (uid, id) ->
      Some
        (fun () ->
          if Bytes.unsafe_get defined uid = '\000' then
            fail "undriven register %%%s in %s" id where)
  in
  (* every register write funnels through [write_reg] (or the typed
     copies of [commit], for registers other than the fault's target) so
     the injected fault sees a deterministic write count *)
  let target =
    Option.bind fault (fun f -> find_reg f.f_reg)
  in
  let is_target (r : reg) =
    match target with
    | Some t -> t.uid = r.uid
    | None -> false
  in
  let write_reg =
    match fault, target with
    | None, _ | Some _, None -> fun r -> unbox r.rloc r.rty
    | Some f, Some t ->
      let corrupt =
        match f.f_kind with
        | Stuck_zero -> stuck_zero
        | Stuck_one -> stuck_one
        | Flip_bit k -> flip_bit k
        | Swap_with other ->
          (match find_reg other with
           | None -> Fun.id
           | Some o ->
             let read = box o.rloc o.rty in
             fun v ->
               if Bytes.unsafe_get defined o.uid <> '\000' then read () else v)
      in
      let set = unbox t.rloc t.rty in
      fun r ->
        if r.uid <> t.uid then unbox r.rloc r.rty
        else fun v ->
          incr fault_writes;
          (* every fault class is persistent from the [f_nth] write on:
             a flipped bit or swapped commit source models a shorted
             line or wrong mux select, which corrupts every write
             through it, not just one *)
          if !fault_writes < f.f_nth then set v
          else begin
            fault_fired := true;
            set (corrupt v)
          end
  in
  (* The commit of [pairs], (register, wire) in program order, at the end
     of an activation: a slot copy and a def byte each. A list that
     writes the fault's target, or copies across banks, runs pair by
     pair through [write_reg], in order: a swapped target reads a
     register the same list may have written first. *)
  let commit (pairs : (reg * loc) list) : unit -> unit =
    let same_bank (r, w) =
      match r.rloc, w with
      | I _, I _ | F _, F _ | B _, B _ -> not (is_target r)
      | (I _ | F _ | B _), _ -> false
    in
    if List.for_all same_bank pairs then begin
      (* each bank's (destination, source) slots, and the def bytes of
         the registers outside the architectural set *)
      let count f =
        List.fold_left (fun n p -> if f p then n + 1 else n) 0 pairs
      in
      let n_int = count (function { rloc = I _; _ }, _ -> true | _ -> false)
      and n_flt = count (function { rloc = F _; _ }, _ -> true | _ -> false)
      and n_box = count (function { rloc = B _; _ }, _ -> true | _ -> false)
      and n_def = count (fun (r, _) -> not r.arch) in
      let int_dst = Array.make n_int 0 and int_src = Array.make n_int 0
      and flt_dst = Array.make n_flt 0 and flt_src = Array.make n_flt 0
      and box_dst = Array.make n_box 0 and box_src = Array.make n_box 0
      and defs = Array.make n_def 0 in
      let ki = ref 0 and kf = ref 0 and kb = ref 0 and kd = ref 0 in
      let add dst src k d s =
        dst.(!k) <- d;
        src.(!k) <- s;
        incr k
      in
      List.iter
        (fun (r, w) ->
          (match r.rloc, w with
           | I d, I s -> add int_dst int_src ki d s
           | F d, F s -> add flt_dst flt_src kf d s
           | B d, B s -> add box_dst box_src kb d s
           | (I _ | F _ | B _), _ -> ());
          if not r.arch then begin
            defs.(!kd) <- r.uid;
            incr kd
          end)
        pairs;
      fun () ->
        for k = 0 to Array.length int_dst - 1 do
          Array.unsafe_set ints (Array.unsafe_get int_dst k)
            (Array.unsafe_get ints (Array.unsafe_get int_src k))
        done;
        for k = 0 to Array.length flt_dst - 1 do
          Array.unsafe_set flts (Array.unsafe_get flt_dst k)
            (Array.unsafe_get flts (Array.unsafe_get flt_src k))
        done;
        for k = 0 to Array.length box_dst - 1 do
          Array.unsafe_set vals (Array.unsafe_get box_dst k)
            (Array.unsafe_get vals (Array.unsafe_get box_src k))
        done;
        for k = 0 to Array.length defs - 1 do
          Bytes.unsafe_set defined (Array.unsafe_get defs k) '\001'
        done
    end
    else begin
      let steps =
        Array.of_list
          (List.map
             (fun (r, w) ->
               let read = box w r.rty and write = write_reg r in
               fun () ->
                 write (read ());
                 Bytes.unsafe_set defined r.uid '\001')
             pairs)
      in
      fun () -> Array.iter (fun step -> step ()) steps
    end
  in
  let charge n =
    cycles := !cycles + n;
    if !cycles > max_cycles then
      fail "cycle budget exceeded (%d cycles) in %s" !cycles name
  in
  (* scratchpad arrays resolve to the private shadow, the rest to the
     memory handed in; each base's typed array is bound once per
     invocation, and an empty array stands for a base that is absent or
     of the other kind, so every access to it takes the slow path, which
     raises the memory's own error *)
  let sp_bases =
    List.map (fun (sp : Hls.Kernel.sp_info) -> sp.Hls.Kernel.spi_base) nl.nl_sp
  in
  let bases = keys_by_index base_slots "" in
  let is_sp = Array.map (fun base -> List.mem base sp_bases) bases in
  let cells = Array.make (Array.length bases) None in
  let int_cells = Array.make (Array.length bases) [||] in
  let float_cells = Array.make (Array.length bases) [||] in
  let cell b base =
    match Array.unsafe_get cells b with
    | Some c -> c
    | None -> raise (Memory.Fault ("unknown array " ^ base))
  in
  let compile_block label (dfg : Hls.Dfg.t) =
    let wire_of = Hashtbl.create 8 in
    let n_int_wires = ref 0 and n_float_wires = ref 0 in
    let n_boxed_wires = ref 0 in
    let where = "block " ^ label in
    let src (o : Ir.Instr.operand) =
      match o with
      | Ir.Instr.Reg r ->
        let id = r.Ir.Instr.id in
        (match Hashtbl.find_opt wire_of id with
         | Some w -> { loc = w; ty = r.Ir.Instr.ty; undriven = None }
         | None ->
           let g = reg id in
           { loc = g.rloc;
             ty = g.rty;
             undriven = (if g.arch then None else Some (g.uid, id)) })
      | Ir.Instr.Imm_int n ->
        { loc = I (int_imm n); ty = Ir.Types.I32; undriven = None }
      | Ir.Instr.Imm_bool b ->
        { loc = I (int_imm (Bool.to_int b));
          ty = Ir.Types.Bool;
          undriven = None }
      | Ir.Instr.Imm_float x ->
        { loc = F (float_imm x); ty = Ir.Types.F32; undriven = None }
    in
    (* the wire of [r] in this block, allocated at its first definition *)
    let def (r : Ir.Instr.reg) =
      let id = r.Ir.Instr.id in
      match Hashtbl.find_opt wire_of id with
      | Some w -> w
      | None ->
        let w =
          match (reg id).rloc with
          | B _ ->
            incr n_boxed_wires;
            B (n_regs + !n_boxed_wires - 1)
          | I _ ->
            incr n_int_wires;
            I (int_wires + !n_int_wires - 1)
          | F _ ->
            incr n_float_wires;
            F (float_wires + !n_float_wires - 1)
        in
        Hashtbl.replace wire_of id w;
        w
    in
    (* The block's closures, in order: per instruction, its
       undriven-register checks where the operands are read, then the
       instruction itself. An instruction that touches a boxed slot
       evaluates boxed, reading its operands where the checks would
       be. *)
    let body = ref (Array.make (Array.length dfg.Hls.Dfg.instrs) ignore) in
    let len = ref 0 in
    let emit f =
      if !len = Array.length !body then begin
        let grown = Array.make ((2 * !len) + 1) ignore in
        Array.blit !body 0 grown 0 !len;
        body := grown
      end;
      Array.unsafe_set !body !len f;
      incr len
    in
    let checked s = Option.iter emit (check where s) in
    let compile_instr (instr : Ir.Instr.t) =
      match instr with
      | Ir.Instr.Assign (r, o) ->
        let o = src o in
        let d = def r in
        (match d, o.loc with
         | I d, I a ->
           checked o;
           emit (fun () -> Array.unsafe_set ints d (Array.unsafe_get ints a))
         | F d, F a ->
           checked o;
           emit (fun () -> Array.unsafe_set flts d (Array.unsafe_get flts a))
         | _ ->
           let a = get where o and set = unbox d r.Ir.Instr.ty in
           emit (fun () -> set (a ())))
      | Ir.Instr.Unary (r, op, o) ->
        let o = src o in
        let d = def r in
        (match unary op ints flts d o.loc with
         | Some run -> checked o; emit run
         | None ->
           let a = get where o and set = unbox d r.Ir.Instr.ty in
           emit (fun () -> set (Interp.eval_un op (a ()))))
      | Ir.Instr.Binary (r, op, a, b) ->
        let a = src a and b = src b in
        let d = def r in
        (match d, a.loc, b.loc with
         | I d, I x, I y when not (Ir.Op.bin_is_float op) ->
           checked b; checked a; emit (int_binary op ints d x y)
         | F d, F x, F y when Ir.Op.bin_is_float op ->
           checked b; checked a; emit (float_binary op flts d x y)
         | _ ->
           let a = get where a and b = get where b
           and set = unbox d r.Ir.Instr.ty in
           emit (fun () ->
               let y = b () in
               set (Interp.eval_bin op (a ()) y)))
      | Ir.Instr.Compare (r, op, a, b) ->
        let a = src a and b = src b in
        let d = def r in
        (match d, a.loc, b.loc with
         | I d, I x, I y when not (Ir.Op.cmp_is_float op) ->
           checked b; checked a; emit (int_compare op ints d x y)
         | I d, F x, F y when Ir.Op.cmp_is_float op ->
           checked b; checked a; emit (float_compare op ints flts d x y)
         | _ ->
           let a = get where a and b = get where b
           and set = unbox d r.Ir.Instr.ty in
           emit (fun () ->
               let y = b () in
               set (Interp.eval_cmp op (a ()) y)))
      | Ir.Instr.Select (r, c, a, b) ->
        let c = src c and a = src a and b = src b in
        let d = def r in
        (* each arm's check runs only when the select takes that arm *)
        let guard (s : src) = Option.value (check where s) ~default:ignore in
        (match d, c.loc, a.loc, b.loc with
         | I d, I c', I x, I y when a.undriven = None && b.undriven = None ->
           checked c;
           emit (fun () ->
                 Array.unsafe_set ints d
                   (if Array.unsafe_get ints c' <> 0 then
                      Array.unsafe_get ints x
                    else Array.unsafe_get ints y))
         | F d, I c', F x, F y when a.undriven = None && b.undriven = None ->
           checked c;
           emit (fun () ->
                 Array.unsafe_set flts d
                   (if Array.unsafe_get ints c' <> 0 then
                      Array.unsafe_get flts x
                    else Array.unsafe_get flts y))
         | I d, I c', I x, I y ->
           let ka = guard a and kb = guard b in
           checked c;
           emit (fun () ->
                 Array.unsafe_set ints d
                   (if Array.unsafe_get ints c' <> 0 then begin
                      ka ();
                      Array.unsafe_get ints x
                    end
                    else begin
                      kb ();
                      Array.unsafe_get ints y
                    end))
         | F d, I c', F x, F y ->
           let ka = guard a and kb = guard b in
           checked c;
           emit (fun () ->
                 Array.unsafe_set flts d
                   (if Array.unsafe_get ints c' <> 0 then begin
                      ka ();
                      Array.unsafe_get flts x
                    end
                    else begin
                      kb ();
                      Array.unsafe_get flts y
                    end))
         | _ ->
           let c = get where c and a = get where a and b = get where b
           and set = unbox d r.Ir.Instr.ty in
           emit (fun () -> set (if Value.to_bool (c ()) then a () else b ())))
      | Ir.Instr.Load (r, m) ->
        let base = m.Ir.Instr.base in
        let bs = Hashtbl.find base_slots base in
        let i = src m.Ir.Instr.index in
        let d = def r in
        let set = unbox d r.Ir.Instr.ty in
        (* out of bounds, or an absent or other-kind array *)
        let slow index = set (Memory.load_cell (cell bs base) ~base ~index) in
        (match d, i.loc with
         | I d, I x ->
           checked i;
           emit (fun () ->
                 let a = Array.unsafe_get int_cells bs
                 and k = Array.unsafe_get ints x in
                 if k < 0 || k >= Array.length a then slow k
                 else Array.unsafe_set ints d (Array.unsafe_get a k))
         | F d, I x ->
           checked i;
           emit (fun () ->
                 let a = Array.unsafe_get float_cells bs
                 and k = Array.unsafe_get ints x in
                 if k < 0 || k >= Array.length a then slow k
                 else Array.unsafe_set flts d (Array.unsafe_get a k))
         | _ ->
           let i = get where i in
           emit (fun () -> slow (Value.to_int (i ()))))
      | Ir.Instr.Store (m, v) ->
        let base = m.Ir.Instr.base in
        let bs = Hashtbl.find base_slots base in
        let log = Memory.Log.id stores base in
        let i = src m.Ir.Instr.index and v = src v in
        let slow index v =
          Memory.store_cell (cell bs base) ~base ~index v;
          Memory.Log.add stores log index
        in
        (match v.loc, v.ty, i.loc with
         | I y, Ir.Types.I32, I x ->
           checked v;
           checked i;
           emit (fun () ->
                 let a = Array.unsafe_get int_cells bs
                 and k = Array.unsafe_get ints x in
                 if k < 0 || k >= Array.length a then
                   slow k (Value.Vint (Array.unsafe_get ints y))
                 else begin
                   Array.unsafe_set a k (Array.unsafe_get ints y);
                   Memory.Log.add stores log k
                 end)
         | F y, _, I x ->
           checked v;
           checked i;
           emit (fun () ->
                 let a = Array.unsafe_get float_cells bs
                 and k = Array.unsafe_get ints x in
                 if k < 0 || k >= Array.length a then
                   slow k (Value.Vfloat (Array.unsafe_get flts y))
                 else begin
                   Array.unsafe_set a k (Array.unsafe_get flts y);
                   Memory.Log.add stores log k
                 end)
         | _ ->
           let i = get where i and v = get where v in
           emit (fun () ->
               let v = v () in
               slow (Value.to_int (i ())) v))
      | Ir.Instr.Call _ ->
        emit (fun () ->
            fail "call reached the datapath of block %s (unsynthesizable)"
              label)
    in
    (* in program order: [src] depends on the definitions before it *)
    Array.iter compile_instr dfg.Hls.Dfg.instrs;
    let body =
      if !len = Array.length !body then !body else Array.sub !body 0 !len
    in
    let final_def = Hashtbl.find_opt wire_of in
    let def_commits =
      lazy
        (commit
           (List.filter_map
              (fun instr ->
                match Ir.Instr.def instr with
                | Some (r : Ir.Instr.reg) ->
                  Option.map
                    (fun w -> reg r.Ir.Instr.id, w)
                    (final_def r.Ir.Instr.id)
                | None -> None)
              (Array.to_list dfg.Hls.Dfg.instrs)))
    in
    { b_body = body;
      b_size = Array.length dfg.Hls.Dfg.instrs;

      b_final = final_def;
      b_def_commits = def_commits;
      b_term =
        (match dfg.Hls.Dfg.block.Ir.Block.term with
         | Ir.Instr.Jump l -> Jump l
         | Ir.Instr.Branch (c, t, e) -> Branch (src c, t, e)
         | Ir.Instr.Return o -> Return (Option.map src o)) }
  in
  let blocks = Hashtbl.create 16 in
  let block label =
    match Hashtbl.find_opt blocks label with
    | Some b -> b
    | None ->
      let b =
        Option.map (compile_block label)
          (Option.join (Hashtbl.find_opt dfgs label))
      in
      Hashtbl.replace blocks label b;
      b
  in
  (* A branch on a condition, read where the terminator reads it. *)
  let branch where (c : src) t e : unit -> int =
    match c.loc, c.undriven with
    | I k, None -> fun () -> if Array.unsafe_get ints k <> 0 then t else e
    | _ ->
      let c = get where c in
      fun () -> if Value.to_bool (c ()) then t else e
  in
  (* FSM nodes: every state a label can lead to, plus the entry *)
  let node_names = Hashtbl.create 16 in
  let exits = Hashtbl.create 4 in
  let target_of_label l =
    match Hashtbl.find_opt state_of_label l with
    | Some n -> intern node_names n
    | None ->
      (* edge leaves the region: the netlist transitions to S_DONE *)
      exit_code (intern exits l)
  in
  let entry =
    match Hashtbl.find_opt state_by_name nl.nl_entry with
    | Some { s_kind = S_done; _ } | None -> stop
    | Some _ -> intern node_names nl.nl_entry
  in
  Hashtbl.iter (fun _ n -> ignore (intern node_names n : int)) state_of_label;
  (* nonblocking commits in program order: the final wire value of a
     register id wins, matching the emitted commit block *)
  let compile_commits state final_def =
    let pairs =
      List.map
        (fun ((r : Ir.Instr.reg), _) ->
          reg r.Ir.Instr.id, final_def r.Ir.Instr.id)
        (Option.value ~default:[] (Hashtbl.find_opt commits_by_state state))
    in
    match List.find_opt (fun (_, w) -> w = None) pairs with
    | Some (r, _) ->
      fun () -> fail "commit of %%%s has no driving wire in %s" r.id name
    | None -> commit (List.map (fun (r, w) -> r, Option.get w) pairs)
  in
  let compile_seq state label cost =
    match block label with
    | None ->
      fun () ->
        fail "state %s evaluates block %s, which has no data-flow graph, in %s"
          state label name
    | Some b ->
      let next =
        match b.b_term with
        | Jump l ->
          let t = target_of_label l in
          fun () -> t
        | Branch (c, tl, el) ->
          branch ("branch of " ^ label) c (target_of_label tl)
            (target_of_label el)
        | Return None -> fun () -> stop
        | Return (Some o) ->
          let o = get ("return of " ^ label) o in
          fun () ->
            return_value := Some (o ());
            stop
      in
      let body = b.b_body and size = b.b_size
      and commit = compile_commits state b.b_final in
      fun () ->
        run_body body;
        instrs := !instrs + size;
        charge cost;
        let t = next () in
        commit ();
        t
  in
  (* One activation of a pipeline controller: run the loop to
     completion, return the successor of its exit edge. *)
  let compile_pipe (pc : pipe_ctrl) =
    (* the loop blocks get the first indices; the header is stepped
       first even when it is not one of them *)
    let stepped = Hashtbl.create 8 in
    List.iter (fun l -> ignore (intern stepped l : int)) pc.pc_blocks;
    let n_loop = Hashtbl.length stepped in
    let header = intern stepped pc.pc_header in
    let labels = keys_by_index stepped pc.pc_header in
    let pipe_exits = Hashtbl.create 4 in
    (* [>= 0]: the loop block to step next; [-1 - k]: leave through the
       [k]-th exit label *)
    let next_of l =
      match Hashtbl.find_opt stepped l with
      | Some i when i < n_loop -> i
      | Some _ | None -> -1 - intern pipe_exits l
    in
    let compile_step label =
      match block label with
      | None ->
        fun () ->
          fail
            "pipelined loop %s steps block %s, which has no data-flow graph, \
             in %s"
            pc.pc_header label name
      | Some b ->
        let body = b.b_body and size = b.b_size
        and def_commits = Lazy.force b.b_def_commits in
        let next =
          match b.b_term with
          | Jump l ->
            let n = next_of l in
            fun () -> n
          | Branch (c, tl, el) ->
            branch ("branch of " ^ label) c (next_of tl) (next_of el)
          | Return _ ->
            fun () ->
              fail "return terminator inside pipelined loop %s" pc.pc_header
        in
        fun () ->
          run_body body;
          instrs := !instrs + size;
          let n = next () in
          def_commits ();
          n
    in
    let steps = Array.map compile_step labels in
    let pipe_exits =
      Array.map target_of_label (keys_by_index pipe_exits pc.pc_header)
    in
    fun () ->
      let trip = ref 0 in
      let walked = ref 0 in
      let cur = ref header in
      let next = ref 0 in
      while !next >= 0 do
        (* cycles are charged only once the loop converges, so bound the
           walk itself: an injected fault that corrupts the loop counter
           must hit the budget, not spin forever *)
        incr walked;
        if !walked > max_cycles then
          fail "cycle budget exceeded (pipelined loop %s walked %d blocks) \
                in %s"
            pc.pc_header !walked name;
        next := (Array.unsafe_get steps !cur) ();
        (* iterations as the profile counts them: header edges into the
           loop body *)
        if !cur = header && !next >= 0 then incr trip;
        if !next >= 0 then cur := !next
      done;
      let groups =
        max 1 ((!trip + pc.pc_unroll - 1) / pc.pc_unroll)
      in
      charge (pc.pc_depth + (pc.pc_ii * (groups - 1)) + 2);
      iterations := !iterations + !trip;
      pipe_exits.(-1 - !next)
  in
  let compile_node n : unit -> int =
    match Hashtbl.find_opt state_by_name n with
    | None -> fun () -> fail "undefined FSM state %s in %s" n name
    | Some st ->
      (match st.s_kind with
       | S_idle | S_done -> fun () -> stop
       | S_pipe ->
         (match Hashtbl.find_opt pipe_by_state n with
          | Some pc -> compile_pipe pc
          | None -> fun () -> fail "state %s has no pipeline controller" n)
       | S_seq ->
         (match st.s_block with
          | Some l -> compile_seq n l st.s_cycles
          | None -> fun () -> fail "sequential state %s has no block" n))
  in
  (* compiling a node can only name states already indexed above *)
  let nodes = Array.map compile_node (keys_by_index node_names "") in
  let exit_labels =
    Array.map Option.some (keys_by_index exits nl.nl_region_entry)
  in
  (* Power-up and read-out of the architectural registers, in
     [nl_arch_regs] order (sorted by id). A watch point's declared
     registers are read by position ({!positions}, resolved once per
     kernel and watch point), so an invocation looks no name up, and an
     I32, Bool or F32 register in its bank moves typed, with no
     [Value.t]. The fault's target and boxed registers take the boxed
     path. *)
  let c_arch = Array.of_list (List.map fst nl.nl_arch_regs) in
  let power_up =
    Array.of_list
      (List.map
         (fun (rid, ty) ->
           let r = reg rid in
           let set : Interp.regs -> int -> unit =
             match r.rloc with
             | I k when not (is_target r) ->
               fun env p ->
                 Array.unsafe_set ints k
                   (if p >= 0 && Interp.reg_defined env p then
                      Interp.reg_int env p
                    else 0)
             | F k when not (is_target r) ->
               fun env p ->
                 Array.unsafe_set flts k
                   (if p >= 0 && Interp.reg_defined env p then
                      Interp.reg_float env p
                    else 0.0)
             | I _ | F _ | B _ ->
               let write = write_reg r in
               fun env p ->
                 write
                   (match if p >= 0 then Interp.reg_value env p else None with
                    | Some v -> v
                    | None -> Value.zero_of ty)
           in
           fun env p ->
             set env p;
             Bytes.unsafe_set defined r.uid '\001')
         nl.nl_arch_regs)
  in
  let read_out =
    Array.of_list
      (List.map
         (fun (rid, _) ->
           let r = reg rid in
           let netlist = box r.rloc r.rty in
           let equal : Interp.regs -> int -> bool =
             match r.rloc with
             | I k -> fun env p -> Interp.reg_int env p = Array.unsafe_get ints k
             | F k ->
               fun env p ->
                 let a = Interp.reg_float env p and b = Array.unsafe_get flts k in
                 a = b || (a <> a && b <> b)
             | B _ ->
               fun env p ->
                 Value.equal (Option.get (Interp.reg_value env p)) (netlist ())
           in
           rid, netlist, equal)
         nl.nl_arch_regs)
  in
  (* registers the golden run defines at the exit and the netlist holds
     otherwise: (id, golden, netlist), in order *)
  let c_mismatches env pos =
    let found = ref [] in
    for j = Array.length read_out - 1 downto 0 do
      let p = pos.(j) in
      if p >= 0 && Interp.reg_defined env p then begin
        let rid, netlist, equal = read_out.(j) in
        if not (equal env p) then
          found :=
            (rid, Option.get (Interp.reg_value env p), netlist ()) :: !found
      end
    done;
    !found
  in
  let sp_shadow = Memory.shadow sp_bases in
  let rec walk t =
    if t >= 0 then begin
      incr activations;
      if !activations > 1_000_000_000 then
        fail "FSM activation budget exceeded in %s" name;
      walk ((Array.unsafe_get nodes t) ())
    end
    else if t <> stop then exit_label := exit_labels.(-2 - t)
  in
  let c_exec ~env ~at ~mem =
    Bytes.fill defined 0 n_regs '\000';
    fault_writes := 0;
    fault_fired := false;
    cycles := 0;
    iterations := 0;
    activations := 0;
    instrs := 0;
    Memory.Log.clear stores;
    exit_label := None;
    return_value := None;
    (* unwritten registers power up at the invocation's incoming values
       (zero of their type if the host never defined them — the netlist
       reads them only on paths where the golden model defined them
       first, or not at all) *)
    Array.iteri (fun j set -> set env (Array.unsafe_get at j)) power_up;
    (* scratchpad shadow: DMA-in every cached array (store-only arrays
       are also fetched so partial write-back cannot clobber untouched
       words), write back the stored ones at S_DONE *)
    let shadow =
      if nl.nl_sp = [] then None else Some (Memory.view sp_shadow mem)
    in
    for b = 0 to Array.length bases - 1 do
      let c =
        Memory.find_cell
          (match shadow with
           | Some s when is_sp.(b) -> s
           | Some _ | None -> mem)
          bases.(b)
      in
      cells.(b) <- c;
      (match c with
       | Some (Memory.Ints a) ->
         int_cells.(b) <- a;
         float_cells.(b) <- [||]
       | Some (Memory.Floats a) ->
         int_cells.(b) <- [||];
         float_cells.(b) <- a
       | None ->
         int_cells.(b) <- [||];
         float_cells.(b) <- [||])
    done;
    (* invocation prologue/epilogue: synchronization + DMA *)
    charge (nl.nl_dma_per_inv + Hls.Tech.invoke_overhead_cycles);
    (match walk entry with
     | () -> Obs.Metrics.add m_instrs !instrs
     | exception e ->
       Obs.Metrics.add m_instrs !instrs;
       raise e);
    (* write-back of stored scratchpad arrays *)
    (match shadow with
     | Some s ->
       List.iter
         (fun (sp : Hls.Kernel.sp_info) ->
           if sp.Hls.Kernel.spi_stored then
             Memory.blit ~src:s ~dst:mem sp.Hls.Kernel.spi_base)
         nl.nl_sp
     | None -> ());
    { o_mem = mem;
      o_stores = stores;
      o_exit = !exit_label;
      o_return = !return_value;
      o_cycles = !cycles;
      o_iterations = !iterations;
      o_activations = !activations;
      o_fault_fired = !fault_fired }
  in
  let c_writes =
    List.sort_uniq String.compare
      (!stored
       @ List.filter_map
           (fun (sp : Hls.Kernel.sp_info) ->
             if sp.Hls.Kernel.spi_stored then Some sp.Hls.Kernel.spi_base
             else None)
           nl.nl_sp)
  in
  { c_writes; c_arch; c_exec; c_mismatches }

let run ?max_cycles ?fault ctx nl ~env ~mem =
  let c = compile ?max_cycles ?fault ctx nl in
  exec c ~env:(Interp.regs_of_list env) ~at:(positions c (List.map fst env))
    ~mem
