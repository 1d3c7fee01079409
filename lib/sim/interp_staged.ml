module Ir = Cayman_ir
open Interp_common

(* Staged (closure-compiled) interpreter engine.

   Each basic block is pre-compiled once per run into one chain of
   closures of type [frame -> sblock]: every instruction closure does
   its work and tail-calls the next link, and the last link is the
   block's terminator, which counts the edge it takes and returns the
   next block (or the [halt] sentinel on a return). Executing a block is
   one call into its chain, with no per-instruction array load, loop
   test or match dispatch, and no terminator match. Some instruction
   sequences are one link: an integer compare feeding the block's
   branch, or an integer add before its jump, fuse into the terminator
   link; an integer mul feeding the add right after it is one link, with
   the load that add indexes if one follows. A jump into a bare loop
   header (a block that holds only such a fused compare, with no check,
   def-byte or watch link) is threaded into it: its link also charges the
   header's fuel, where the fuel covers it, and runs the header, so the
   block loop is not re-entered. The block loop only charges fuel; a
   watched block's handler is the head link of its chain.
   Registers live in typed, integer-indexed banks
   ([ints] holds both I32 and Bool — booleans as 0/1 — [flts] holds
   F32), and immediates in constant slots of the same banks, so each
   closure reads its operands and writes its result in the banks
   directly and a float is never boxed. Memory bases are resolved to
   their raw arrays at compile time. Control flow comes from the
   function's {!Ir.Cfg} index: blocks are compiled into an array over
   its ids, and "uninitialized register" checks are compiled only where
   {!Ir.Cfg.Must_defined} cannot prove the read safe. Def bytes are kept
   only for registers such a check reads, or that an observer's watch
   point reads without that proof.
   Profile counters are bound at codegen: an edge bumps its successor
   slot's cell of its function's {!Profile.counts}. Block counts are not
   bumped at all: once a run completes, each is derived from the block's
   incoming edges, plus the calls for the entry. What still allocates is
   per call (a frame) or per run (codegen, the profile's counter
   arrays), not per instruction.

   None of this is allowed to be observable: the engine is only used for
   programs that pass a whole-program static cleanliness check
   ([analyze] below) ruling out every dynamic type error the reference
   engine could raise. Anything unclean — type-inconsistent registers,
   unknown labels/arrays/callees, arity or return-kind mismatches —
   falls back wholesale to {!Interp_reference.run}, which then fails (or
   runs) in exactly the reference way. On the clean subset, profiles,
   observer callbacks, memory effects, return values and exceptions
   (including the exact [Out_of_fuel] boundary and error message bytes)
   match the reference engine operation-for-operation; the differential
   harness in test/test_interp_diff.ml holds both engines to that. *)

(* ------------------------------------------------------------------ *)
(* Static cleanliness analysis                                        *)
(* ------------------------------------------------------------------ *)

exception Unclean

type ret_kind = R_int | R_bool | R_float | R_void

(* Per-register interning record: [uid] indexes the def-bytes, [bidx]
   the typed bank picked by [rty]. A written register's uid is its
   {!Ir.Cfg.Must_defined} id, so the solver's sets answer for it
   directly; registers that are only read are numbered after those. *)
type rinfo = { uid : int; bidx : int; rty : Ir.Types.t }

type fmeta = {
  fm_func : Ir.Func.t;
  fm_cfg : Ir.Cfg.t;
  fm_md : Ir.Cfg.Must_defined.t;
  fm_regs : rinfo Ir.Cfg.String_tbl.t;
  fm_nregs : int;
  fm_nints : int;
  fm_nflts : int;
  fm_ret : ret_kind;
}

type pmeta = {
  pm_funcs : (string, fmeta) Hashtbl.t;
  pm_globals : (string, Ir.Types.t * int) Hashtbl.t; (* elem type, size *)
  pm_main : fmeta;
}

let ret_kind_of (ret : Ir.Types.t option) =
  match ret with
  | None -> R_void
  | Some Ir.Types.I32 -> R_int
  | Some Ir.Types.Bool -> R_bool
  | Some Ir.Types.F32 -> R_float

let bank_of (ty : Ir.Types.t) =
  match ty with
  | Ir.Types.I32 | Ir.Types.Bool -> `Int
  | Ir.Types.F32 -> `Float

(* Intern a register occurrence; the same id must always carry the same
   type annotation or the function is unclean. [next_uid] counts from
   the solver's register count up, for registers it does not know. *)
let intern md fm_regs next_uid next_int next_flt (r : Ir.Instr.reg) =
  match Ir.Cfg.String_tbl.find_opt fm_regs r.Ir.Instr.id with
  | Some ri ->
    if not (Ir.Types.equal ri.rty r.Ir.Instr.ty) then raise Unclean;
    ri
  | None ->
    let uid =
      match Ir.Cfg.Must_defined.reg md r.Ir.Instr.id with
      | -1 ->
        let u = !next_uid in
        incr next_uid;
        u
      | u -> u
    in
    let bidx =
      match bank_of r.Ir.Instr.ty with
      | `Int ->
        let i = !next_int in
        incr next_int;
        i
      | `Float ->
        let i = !next_flt in
        incr next_flt;
        i
    in
    let ri = { uid; bidx; rty = r.Ir.Instr.ty } in
    Ir.Cfg.String_tbl.replace fm_regs r.Ir.Instr.id ri;
    ri

let operand_ty (o : Ir.Instr.operand) = Ir.Instr.operand_ty o

(* Check one function: intern every register, enforce full type/arity/
   label consistency. [fsigs] maps callee name to (param types, ret).
   The function's control-flow index and must-defined facts come with
   the program ([None] for a function with no blocks): a label given to
   two blocks leaves the index smaller than the block list, and a
   target the index does not know is an unknown label. *)
let check_func fsigs pm_globals (f : Ir.Func.t) index : fmeta =
  let cfg, md = match index with Some ix -> ix | None -> raise Unclean in
  if cfg.Ir.Cfg.size < List.length f.Ir.Func.blocks then raise Unclean;
  let fm_regs = Ir.Cfg.String_tbl.create 32 in
  let next_uid = ref (Ir.Cfg.Must_defined.size md) in
  let next_int = ref 0 and next_flt = ref 0 in
  let intern r = intern md fm_regs next_uid next_int next_flt r in
  (* Parameters are interned first, so a repeated one is already known. *)
  List.iter
    (fun (r : Ir.Instr.reg) ->
      if Ir.Cfg.String_tbl.mem fm_regs r.Ir.Instr.id then raise Unclean;
      ignore (intern r : rinfo))
    f.Ir.Func.params;
  let check_operand (o : Ir.Instr.operand) (want : Ir.Types.t) =
    (match o with
     | Ir.Instr.Reg r -> ignore (intern r : rinfo)
     | Ir.Instr.Imm_int _ | Ir.Instr.Imm_float _ | Ir.Instr.Imm_bool _ -> ());
    if not (Ir.Types.equal (operand_ty o) want) then raise Unclean
  in
  let check_mem (m : Ir.Instr.mem_ref) : Ir.Types.t =
    check_operand m.Ir.Instr.index Ir.Types.I32;
    match Hashtbl.find_opt pm_globals m.Ir.Instr.base with
    | Some ((Ir.Types.I32 | Ir.Types.F32) as elem, _) -> elem
    | Some (Ir.Types.Bool, _) | None -> raise Unclean
  in
  let check_instr (i : Ir.Instr.t) =
    match i with
    | Ir.Instr.Assign (r, o) ->
      let ri = intern r in
      check_operand o ri.rty
    | Ir.Instr.Unary (r, op, o) ->
      let ity, oty = Ir.Op.un_sig op in
      let ri = intern r in
      if not (Ir.Types.equal ri.rty oty) then raise Unclean;
      check_operand o ity
    | Ir.Instr.Binary (r, op, a, b) ->
      let ty = Ir.Op.bin_operand_ty op in
      let ri = intern r in
      if not (Ir.Types.equal ri.rty ty) then raise Unclean;
      check_operand a ty;
      check_operand b ty
    | Ir.Instr.Compare (r, op, a, b) ->
      let ty = Ir.Op.cmp_operand_ty op in
      let ri = intern r in
      if not (Ir.Types.equal ri.rty Ir.Types.Bool) then raise Unclean;
      check_operand a ty;
      check_operand b ty
    | Ir.Instr.Select (r, c, a, b) ->
      let ri = intern r in
      check_operand c Ir.Types.Bool;
      check_operand a ri.rty;
      check_operand b ri.rty
    | Ir.Instr.Load (r, m) ->
      let ri = intern r in
      let elem = check_mem m in
      if not (Ir.Types.equal ri.rty elem) then raise Unclean
    | Ir.Instr.Store (m, v) ->
      let elem = check_mem m in
      check_operand v elem
    | Ir.Instr.Call (dest, callee, args) ->
      let ptys, ret =
        match Hashtbl.find_opt fsigs callee with
        | Some s -> s
        | None -> raise Unclean
      in
      (try List.iter2 check_operand args ptys
       with Invalid_argument _ -> raise Unclean);
      (match dest with
       | None -> ()
       | Some r ->
         let ri = intern r in
         (match ret with
          | Some ty when Ir.Types.equal ri.rty ty -> ()
          | Some _ | None -> raise Unclean))
  in
  let check_label l = if Ir.Cfg.id_opt cfg l = None then raise Unclean in
  let check_term (t : Ir.Instr.term) =
    match t with
    | Ir.Instr.Jump l -> check_label l
    | Ir.Instr.Branch (c, tl, fl) ->
      check_operand c Ir.Types.Bool;
      check_label tl;
      check_label fl
    | Ir.Instr.Return o ->
      (match o, f.Ir.Func.ret with
       | None, None -> ()
       | Some o, Some ty -> check_operand o ty
       | Some _, None | None, Some _ -> raise Unclean)
  in
  List.iter
    (fun (b : Ir.Block.t) ->
      List.iter check_instr b.Ir.Block.instrs;
      check_term b.Ir.Block.term)
    f.Ir.Func.blocks;
  { fm_func = f;
    fm_cfg = cfg;
    fm_md = md;
    fm_regs;
    fm_nregs = !next_uid;
    fm_nints = !next_int;
    fm_nflts = !next_flt;
    fm_ret = ret_kind_of f.Ir.Func.ret }

(* [analyze p] is [Some meta] when [p] is statically clean (no dynamic
   type error is reachable), [None] when the staged engine must fall
   back to the reference engine. *)
let analyze (ix : Ir.Cfg.program) : pmeta option =
  let p = ix.Ir.Cfg.program in
  try
    let pm_globals = Hashtbl.create 16 in
    List.iter
      (fun (g : Ir.Program.global) ->
        let n = Ir.Program.global_size g in
        if n < 0 then raise Unclean;
        (* Last definition wins, matching Memory.create. *)
        Hashtbl.replace pm_globals g.Ir.Program.gname (g.Ir.Program.elem, n))
      p.Ir.Program.globals;
    (* A name given to two functions is unclean, so the profile has one
       counter set per name, in program order. *)
    let fsigs = Hashtbl.create 8 in
    List.iter
      (fun (f : Ir.Func.t) ->
        if Hashtbl.mem fsigs f.Ir.Func.name then raise Unclean;
        Hashtbl.replace fsigs f.Ir.Func.name
          ( List.map (fun (r : Ir.Instr.reg) -> r.Ir.Instr.ty)
              f.Ir.Func.params,
            f.Ir.Func.ret ))
      p.Ir.Program.funcs;
    let pm_funcs = Hashtbl.create 8 in
    List.iter2
      (fun (f : Ir.Func.t) index ->
        Hashtbl.replace pm_funcs f.Ir.Func.name
          (check_func fsigs pm_globals f index))
      p.Ir.Program.funcs ix.Ir.Cfg.funcs;
    let pm_main =
      match Hashtbl.find_opt pm_funcs p.Ir.Program.main with
      | Some fm -> fm
      | None -> raise Unclean
    in
    if pm_main.fm_func.Ir.Func.params <> [] then raise Unclean;
    Some { pm_funcs; pm_globals; pm_main }
  with Unclean -> None

(* ------------------------------------------------------------------ *)
(* Compiled representation                                            *)
(* ------------------------------------------------------------------ *)

(* A function's banks hold its registers first ([rinfo.bidx]), then one
   constant slot per distinct immediate it reads, so every operand —
   register or immediate — is a bank slot. *)
type frame = {
  ints : int array; (* I32 and Bool (0/1) registers, then int constants *)
  flts : float array; (* F32 registers, then float constants *)
  def : Bytes.t; (* per register uid: '\001' once written, where tracked *)
  mutable reti : int; (* int/bool return slot *)
  mutable retf : float; (* float return slot *)
}

(* The fields the block loop reads come first, in the order it reads
   them: the fuel charge and the chain. *)
type sblock = {
  sb_fuel : int; (* the block's instructions, plus one *)
  (* The block's code: the watch handler if the block is a watch point,
     its instructions, then the def bytes it keeps, then its terminator,
     which returns the next block ([halt] after a return). Set by
     [codegen] once every block has its shell. *)
  mutable sb_run : frame -> sblock;
  (* The observer's block handler, resolved once per run. It is the
     head link of [sb_run]; the block loop calls it itself only when the
     fuel runs out at this block, just before it raises. *)
  mutable sb_watch : (frame -> unit) option;
  (* Static costs, read once the run completes: host cycles, and the
     links of [sb_run] (one indirect call each). *)
  sb_cycles : int;
  mutable sb_links : int;
}

(* A control-flow edge as its terminator link holds it: the block it
   enters, and its counter as cell [e_slot] of its source's edge
   counters. *)
type sedge = {
  e_target : sblock;
  e_cnt : int array;
  e_slot : int;
}

type sfunc = {
  sf_entry : sblock;
  (* Fresh-frame images: registers zero, constant slots filled, the
     parameters' def bytes set (a call writes every parameter). *)
  mutable sf_ints0 : int array;
  mutable sf_flts0 : float array;
  sf_def0 : Bytes.t;
  sf_regs : rinfo Ir.Cfg.String_tbl.t;
  sf_ret : ret_kind;
  sf_counts : Profile.counts;
  sf_blocks : sblock array; (* by {!Ir.Cfg} id; the entry is id 0 *)
  sf_succs : int array array; (* the index's [succs] *)
  (* The blocks whose jump is threaded into its target, a bare header. *)
  mutable sf_threads : int array;
}

type ctx = {
  mutable cx_fuel : int;
  cx_mem : Memory.t;
}

let new_frame (sf : sfunc) =
  { ints = Array.copy sf.sf_ints0;
    flts = Array.copy sf.sf_flts0;
    def = Bytes.copy sf.sf_def0;
    reti = 0;
    retf = 0.0 }

(* A watch point's declared registers in the frame [cur] holds, which
   its handler sets to the live frame before it runs. Each position
   resolves to its register, if the function has one, and whether
   {!Ir.Cfg.Must_defined} proves it written there; an unproven one keeps
   its def byte (see [codegen]). *)
let declared_regs ~func ~label (decl : (string * (rinfo * bool) option) list)
    (cur : frame ref) : regs =
  let infos = Array.of_list (List.map snd decl) in
  let n = Array.length infos in
  let slot = Array.make n (-1) and uid = Array.make n 0
  and proven = Array.make n false and rty = Array.make n Ir.Types.I32 in
  Array.iteri
    (fun k info ->
      Option.iter
        (fun (ri, p) ->
          slot.(k) <- ri.bidx;
          uid.(k) <- ri.uid;
          proven.(k) <- p;
          rty.(k) <- ri.rty)
        info)
    infos;
  let defined k =
    slot.(k) >= 0
    && (Array.unsafe_get proven k
       || Bytes.unsafe_get !cur.def (Array.unsafe_get uid k) <> '\000')
  in
  let is_float k = Ir.Types.equal (Array.unsafe_get rty k) Ir.Types.F32 in
  Interp_common.regs ~func ~label (List.map fst decl) ~defined
    ~int:(fun k ->
      if defined k && not (is_float k) then
        Array.unsafe_get !cur.ints (Array.unsafe_get slot k)
      else bad_typed_read "reg_int" k)
    ~float:(fun k ->
      if defined k && is_float k then
        Array.unsafe_get !cur.flts (Array.unsafe_get slot k)
      else bad_typed_read "reg_float" k)
    ~value:(fun k ->
      if not (defined k) then None
      else
        let fr = !cur and s = slot.(k) in
        Some
          (match rty.(k) with
           | Ir.Types.I32 -> Value.Vint fr.ints.(s)
           | Ir.Types.Bool -> Value.Vbool (fr.ints.(s) <> 0)
           | Ir.Types.F32 -> Value.Vfloat fr.flts.(s)))

(* What [cur] holds before a watch point's handler first runs. *)
let no_frame =
  { ints = [||]; flts = [||]; def = Bytes.empty; reti = 0; retf = 0.0 }

(* What a return link hands back to the block loop, which stops at it.
   It is never run and never written. *)
let halt =
  { sb_fuel = 0;
    sb_run = (fun _ -> assert false);
    sb_watch = None;
    sb_cycles = 0;
    sb_links = 0 }

(* Fuel ran out on entry to [b]. The reference engine calls a block's
   watch handler before it charges the block's fuel, so the handler the
   chain would have run first runs here, then the run stops. *)
let out_of_fuel b fr =
  (match b.sb_watch with
   | Some w -> w fr
   | None -> ());
  raise Out_of_fuel

(* The block loop charges each block's fuel, then one call runs the
   block's chain, which returns the next block. It counts nothing: the
   edges count themselves in the terminator links, and [run] derives
   the block counts and the run's totals from them once the run
   completes. *)
let exec_sfunc (cx : ctx) (sf : sfunc) (fr : frame) : unit =
  let c = sf.sf_counts in
  c.Profile.calls <- c.Profile.calls + 1;
  let cur = ref sf.sf_entry in
  while !cur != halt do
    let b = !cur in
    let fuel = cx.cx_fuel - b.sb_fuel in
    cx.cx_fuel <- fuel;
    if fuel < 0 then out_of_fuel b fr;
    cur := b.sb_run fr
  done

(* ------------------------------------------------------------------ *)
(* Instruction links                                                  *)
(* ------------------------------------------------------------------ *)

(* A link of a block's chain. Each IR instruction compiles to one link
   over bank slots [d] (destination) and [a]/[b]/[c] (operands) that
   reads and writes the frame's banks directly and then tail-calls [k],
   the rest of the block, fixed at codegen: one indirect jump per
   instruction, and a float never crosses a closure boundary, so it is
   never boxed. The bodies are spelled out operator by operator on
   purpose: OCaml without flambda does not inline a function passed as
   an argument, so a shared higher-order helper would put a call per
   operand (and a box per float) back on the hot path. Operand reads are
   unchecked; an operand {!Ir.Cfg.Must_defined} does not prove gets a
   separate [check] link before the instruction (see [codegen]). *)
type link = frame -> sblock

let[@inline] require fr uid msg =
  if Bytes.unsafe_get fr.def uid = '\000' then raise (Runtime_error msg)

let check uid msg (k : link) : link =
 fun fr ->
  require fr uid msg;
  k fr

let binary (op : Ir.Op.bin) d a b (k : link) : link =
  match op with
  | Ir.Op.Add ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d (Array.unsafe_get r a + Array.unsafe_get r b);
      k fr
  | Ir.Op.Sub ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d (Array.unsafe_get r a - Array.unsafe_get r b);
      k fr
  | Ir.Op.Mul ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d (Array.unsafe_get r a * Array.unsafe_get r b);
      k fr
  | Ir.Op.Div ->
    fun fr ->
      let r = fr.ints in
      let y = Array.unsafe_get r b in
      if y = 0 then raise (Runtime_error "integer division by zero");
      Array.unsafe_set r d (Array.unsafe_get r a / y);
      k fr
  | Ir.Op.Rem ->
    fun fr ->
      let r = fr.ints in
      let y = Array.unsafe_get r b in
      if y = 0 then raise (Runtime_error "integer remainder by zero");
      Array.unsafe_set r d (Array.unsafe_get r a mod y);
      k fr
  | Ir.Op.And ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d (Array.unsafe_get r a land Array.unsafe_get r b);
      k fr
  | Ir.Op.Or ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d (Array.unsafe_get r a lor Array.unsafe_get r b);
      k fr
  | Ir.Op.Xor ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d (Array.unsafe_get r a lxor Array.unsafe_get r b);
      k fr
  | Ir.Op.Shl ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d (Array.unsafe_get r a lsl Array.unsafe_get r b);
      k fr
  | Ir.Op.Shr ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d (Array.unsafe_get r a asr Array.unsafe_get r b);
      k fr
  | Ir.Op.Fadd ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set f d (Array.unsafe_get f a +. Array.unsafe_get f b);
      k fr
  | Ir.Op.Fsub ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set f d (Array.unsafe_get f a -. Array.unsafe_get f b);
      k fr
  | Ir.Op.Fmul ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set f d (Array.unsafe_get f a *. Array.unsafe_get f b);
      k fr
  | Ir.Op.Fdiv ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set f d (Array.unsafe_get f a /. Array.unsafe_get f b);
      k fr

let comparison (op : Ir.Op.cmp) d a b (k : link) : link =
  match op with
  | Ir.Op.Eq ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a = Array.unsafe_get r b));
      k fr
  | Ir.Op.Ne ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a <> Array.unsafe_get r b));
      k fr
  | Ir.Op.Lt ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a < Array.unsafe_get r b));
      k fr
  | Ir.Op.Le ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a <= Array.unsafe_get r b));
      k fr
  | Ir.Op.Gt ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a > Array.unsafe_get r b));
      k fr
  | Ir.Op.Ge ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d
        (Bool.to_int (Array.unsafe_get r a >= Array.unsafe_get r b));
      k fr
  | Ir.Op.Feq ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set fr.ints d
        (Bool.to_int (Array.unsafe_get f a = Array.unsafe_get f b));
      k fr
  | Ir.Op.Fne ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set fr.ints d
        (Bool.to_int (Array.unsafe_get f a <> Array.unsafe_get f b));
      k fr
  | Ir.Op.Flt ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set fr.ints d
        (Bool.to_int (Array.unsafe_get f a < Array.unsafe_get f b));
      k fr
  | Ir.Op.Fle ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set fr.ints d
        (Bool.to_int (Array.unsafe_get f a <= Array.unsafe_get f b));
      k fr
  | Ir.Op.Fgt ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set fr.ints d
        (Bool.to_int (Array.unsafe_get f a > Array.unsafe_get f b));
      k fr
  | Ir.Op.Fge ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set fr.ints d
        (Bool.to_int (Array.unsafe_get f a >= Array.unsafe_get f b));
      k fr

let unary (op : Ir.Op.un) d a (k : link) : link =
  match op with
  | Ir.Op.Neg ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d (-Array.unsafe_get r a);
      k fr
  | Ir.Op.Not ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d (Array.unsafe_get r a lxor 1);
      k fr
  | Ir.Op.Fneg ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set f d (-.Array.unsafe_get f a);
      k fr
  | Ir.Op.Int_of_float ->
    fun fr ->
      Array.unsafe_set fr.ints d (int_of_float (Array.unsafe_get fr.flts a));
      k fr
  | Ir.Op.Float_of_int ->
    fun fr ->
      Array.unsafe_set fr.flts d (float_of_int (Array.unsafe_get fr.ints a));
      k fr

let assign ~float d a (k : link) : link =
  if float then fun fr ->
    let f = fr.flts in
    Array.unsafe_set f d (Array.unsafe_get f a);
    k fr
  else fun fr ->
    let r = fr.ints in
    Array.unsafe_set r d (Array.unsafe_get r a);
    k fr

(* [Select] evaluates only the operand it picks, so a check on [a] or
   [b] must run only on that side: [ka]/[kb] are those checks, as
   (uid, message), and the unchecked links serve the common case where
   neither needs one. *)
let select ~float d c a b ~ka ~kb (k : link) : link =
  match float, ka, kb with
  | false, None, None ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r d
        (if Array.unsafe_get r c <> 0 then Array.unsafe_get r a
         else Array.unsafe_get r b);
      k fr
  | true, None, None ->
    fun fr ->
      let f = fr.flts in
      Array.unsafe_set f d
        (if Array.unsafe_get fr.ints c <> 0 then Array.unsafe_get f a
         else Array.unsafe_get f b);
      k fr
  | _, _, _ ->
    let guard = function
      | Some (uid, msg) -> fun fr -> require fr uid msg
      | None -> ignore
    in
    let ka = guard ka and kb = guard kb in
    if float then fun fr ->
      let f = fr.flts in
      if Array.unsafe_get fr.ints c <> 0 then (
        ka fr;
        Array.unsafe_set f d (Array.unsafe_get f a))
      else (
        kb fr;
        Array.unsafe_set f d (Array.unsafe_get f b));
      k fr
    else fun fr ->
      let r = fr.ints in
      if Array.unsafe_get r c <> 0 then (
        ka fr;
        Array.unsafe_set r d (Array.unsafe_get r a))
      else (
        kb fr;
        Array.unsafe_set r d (Array.unsafe_get r b));
      k fr

let oob base n idx =
  Memory.Fault (Printf.sprintf "index %d out of bounds for %s[%d]" idx base n)

(* Memory accesses follow the reference order: the cache sees the index
   before the bounds check, and a fault carries [Memory]'s exact
   message. *)
let[@inline] touch cache base idx =
  match cache with
  | Some c -> ignore (Cache.access c ~base ~index:idx : bool)
  | None -> ()

let load mem cache base d ix (k : link) : link =
  match Memory.int_cells mem base with
  | Some arr ->
    let n = Array.length arr in
    fun fr ->
      let r = fr.ints in
      let i = Array.unsafe_get r ix in
      touch cache base i;
      if i < 0 || i >= n then raise (oob base n i);
      Array.unsafe_set r d (Array.unsafe_get arr i);
      k fr
  | None ->
    let arr = Option.get (Memory.float_cells mem base) in
    let n = Array.length arr in
    fun fr ->
      let i = Array.unsafe_get fr.ints ix in
      touch cache base i;
      if i < 0 || i >= n then raise (oob base n i);
      Array.unsafe_set fr.flts d (Array.unsafe_get arr i);
      k fr

let store mem cache base ix v (k : link) : link =
  match Memory.int_cells mem base with
  | Some arr ->
    let n = Array.length arr in
    fun fr ->
      let r = fr.ints in
      let i = Array.unsafe_get r ix in
      touch cache base i;
      if i < 0 || i >= n then raise (oob base n i);
      Array.unsafe_set arr i (Array.unsafe_get r v);
      k fr
  | None ->
    let arr = Option.get (Memory.float_cells mem base) in
    let n = Array.length arr in
    fun fr ->
      let i = Array.unsafe_get fr.ints ix in
      touch cache base i;
      if i < 0 || i >= n then raise (oob base n i);
      Array.unsafe_set arr i (Array.unsafe_get fr.flts v);
      k fr

(* A store of a block the observer marks: once the element is written,
   its (array, index) is appended to the observer's log. *)
let store_logged mem cache log base ix v (k : link) : link =
  let id = Memory.Log.id log base in
  match Memory.int_cells mem base with
  | Some arr ->
    let n = Array.length arr in
    fun fr ->
      let r = fr.ints in
      let i = Array.unsafe_get r ix in
      touch cache base i;
      if i < 0 || i >= n then raise (oob base n i);
      Array.unsafe_set arr i (Array.unsafe_get r v);
      Memory.Log.add log id i;
      k fr
  | None ->
    let arr = Option.get (Memory.float_cells mem base) in
    let n = Array.length arr in
    fun fr ->
      let i = Array.unsafe_get fr.ints ix in
      touch cache base i;
      if i < 0 || i >= n then raise (oob base n i);
      Array.unsafe_set arr i (Array.unsafe_get fr.flts v);
      Memory.Log.add log id i;
      k fr

(* Address arithmetic as one link: [%t = mul a b] and the [add] right
   after it that reads [%t] ([%u = add %t o] or [add o %t]), and, in
   [mul_add_load], the load right after that indexed by [%u]. Every
   member writes its register in program order, so a later member, a
   successor block or a watch point reads what the unfused links would
   have left, also when members share a register: [o] is read after
   [%t] is written, and the load's destination is written last. Only
   the load can raise, as the last member, after touching the cache. *)
let mul_add d1 a1 b1 d2 o (k : link) : link =
 fun fr ->
  let r = fr.ints in
  let t = Array.unsafe_get r a1 * Array.unsafe_get r b1 in
  Array.unsafe_set r d1 t;
  Array.unsafe_set r d2 (t + Array.unsafe_get r o);
  k fr

let mul_add_load mem cache base d1 a1 b1 d2 o d3 (k : link) : link =
  match Memory.int_cells mem base with
  | Some arr ->
    let n = Array.length arr in
    fun fr ->
      let r = fr.ints in
      let t = Array.unsafe_get r a1 * Array.unsafe_get r b1 in
      Array.unsafe_set r d1 t;
      let i = t + Array.unsafe_get r o in
      Array.unsafe_set r d2 i;
      touch cache base i;
      if i < 0 || i >= n then raise (oob base n i);
      Array.unsafe_set r d3 (Array.unsafe_get arr i);
      k fr
  | None ->
    let arr = Option.get (Memory.float_cells mem base) in
    let n = Array.length arr in
    fun fr ->
      let r = fr.ints in
      let t = Array.unsafe_get r a1 * Array.unsafe_get r b1 in
      Array.unsafe_set r d1 t;
      let i = t + Array.unsafe_get r o in
      Array.unsafe_set r d2 i;
      touch cache base i;
      if i < 0 || i >= n then raise (oob base n i);
      Array.unsafe_set fr.flts d3 (Array.unsafe_get arr i);
      k fr

(* The def bytes a block keeps, set in one link once its instructions
   have run (see [codegen]). *)
let set_defs defs (k : link) : link =
 fun fr ->
  let def = fr.def in
  for i = 0 to Array.length defs - 1 do
    Bytes.unsafe_set def (Array.unsafe_get defs i) '\001'
  done;
  k fr

(* ------------------------------------------------------------------ *)
(* Terminator links                                                   *)
(* ------------------------------------------------------------------ *)

(* Take an edge: bump its profile counter and return the block it
   enters. *)
let[@inline] take (e : sedge) =
  let c = e.e_cnt in
  Array.unsafe_set c e.e_slot (Array.unsafe_get c e.e_slot + 1);
  e.e_target

let jump e : link = fun _ -> take e

(* A loop latch: a block's trailing integer [add] and its [jump], in one
   link. The add still writes its register. *)
let add_jump d a b e : link =
 fun fr ->
  let r = fr.ints in
  Array.unsafe_set r d (Array.unsafe_get r a + Array.unsafe_get r b);
  take e

let branch c te fe : link =
 fun fr -> take (if Array.unsafe_get fr.ints c <> 0 then te else fe)

(* A block's trailing integer compare and the branch on its result, in
   one link: the compare still writes its register, which a successor
   or a watch point may read, and the branch tests the result without
   reading it back. Float compares are not fused. *)
let compare_branch (op : Ir.Op.cmp) d a b te fe : link =
  match op with
  | Ir.Op.Eq ->
    fun fr ->
      let r = fr.ints in
      let t = Array.unsafe_get r a = Array.unsafe_get r b in
      Array.unsafe_set r d (Bool.to_int t);
      take (if t then te else fe)
  | Ir.Op.Ne ->
    fun fr ->
      let r = fr.ints in
      let t = Array.unsafe_get r a <> Array.unsafe_get r b in
      Array.unsafe_set r d (Bool.to_int t);
      take (if t then te else fe)
  | Ir.Op.Lt ->
    fun fr ->
      let r = fr.ints in
      let t = Array.unsafe_get r a < Array.unsafe_get r b in
      Array.unsafe_set r d (Bool.to_int t);
      take (if t then te else fe)
  | Ir.Op.Le ->
    fun fr ->
      let r = fr.ints in
      let t = Array.unsafe_get r a <= Array.unsafe_get r b in
      Array.unsafe_set r d (Bool.to_int t);
      take (if t then te else fe)
  | Ir.Op.Gt ->
    fun fr ->
      let r = fr.ints in
      let t = Array.unsafe_get r a > Array.unsafe_get r b in
      Array.unsafe_set r d (Bool.to_int t);
      take (if t then te else fe)
  | Ir.Op.Ge ->
    fun fr ->
      let r = fr.ints in
      let t = Array.unsafe_get r a >= Array.unsafe_get r b in
      Array.unsafe_set r d (Bool.to_int t);
      take (if t then te else fe)
  | Ir.Op.Feq | Ir.Op.Fne | Ir.Op.Flt | Ir.Op.Fle | Ir.Op.Fgt | Ir.Op.Fge ->
    invalid_arg "Interp_staged.compare_branch: float compare"

(* Threaded loop headers. A jump into a bare header (a block that holds
   only a fused integer compare, with no check, def-byte or watch link;
   see [codegen]) runs the header in its own link: the latch's add, the
   jump's edge, the header's fuel charge where the fuel covers it, the
   compare (still writing its register) and the header's edge. Where the
   fuel does not cover the header, the link returns the header
   uncharged, and the block loop charges it and raises exactly where it
   would have. [Gt] and [Ge] arrive as [Lt] and [Le] with their operands
   swapped: a bare header has no check, so its operand order is not
   observable. A plain jump is threaded as a latch whose add is
   [%c = add %c, 0] on the header's compare register, which keeps its
   value until the compare writes it. *)
type bare = {
  h_op : Ir.Op.cmp; (* [Eq], [Ne], [Lt] or [Le] *)
  h_d : int;
  h_a : int;
  h_b : int;
  h_te : sedge;
  h_fe : sedge;
}

let[@inline] enter cx (e : sedge) hf =
  ignore (take e : sblock);
  let fuel = cx.cx_fuel - hf in
  if fuel < 0 then false
  else (
    cx.cx_fuel <- fuel;
    true)

let[@inline] decide r d t te fe =
  Array.unsafe_set r d (Bool.to_int t);
  take (if t then te else fe)

let thread cx ad aa ab e h : link =
  let hb = e.e_target and hf = e.e_target.sb_fuel in
  let d = h.h_d and a = h.h_a and b = h.h_b and te = h.h_te and fe = h.h_fe in
  match h.h_op with
  | Ir.Op.Eq ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r ad (Array.unsafe_get r aa + Array.unsafe_get r ab);
      if enter cx e hf then
        decide r d (Array.unsafe_get r a = Array.unsafe_get r b) te fe
      else hb
  | Ir.Op.Ne ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r ad (Array.unsafe_get r aa + Array.unsafe_get r ab);
      if enter cx e hf then
        decide r d (Array.unsafe_get r a <> Array.unsafe_get r b) te fe
      else hb
  | Ir.Op.Lt ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r ad (Array.unsafe_get r aa + Array.unsafe_get r ab);
      if enter cx e hf then
        decide r d (Array.unsafe_get r a < Array.unsafe_get r b) te fe
      else hb
  | Ir.Op.Le ->
    fun fr ->
      let r = fr.ints in
      Array.unsafe_set r ad (Array.unsafe_get r aa + Array.unsafe_get r ab);
      if enter cx e hf then
        decide r d (Array.unsafe_get r a <= Array.unsafe_get r b) te fe
      else hb
  | Ir.Op.Gt | Ir.Op.Ge | Ir.Op.Feq | Ir.Op.Fne | Ir.Op.Flt | Ir.Op.Fle
  | Ir.Op.Fgt | Ir.Op.Fge ->
    invalid_arg "Interp_staged.thread: unnormalised compare"

(* A return stores its value in the frame's return slot, calls the
   function's return handler, if any, and stops the block loop. *)
let return_int ~bool s on_return : link =
 fun fr ->
  fr.reti <- Array.unsafe_get fr.ints s;
  (match on_return with
   | Some w ->
     w fr
       (Some (if bool then Value.Vbool (fr.reti <> 0) else Value.Vint fr.reti))
   | None -> ());
  halt

let return_float s on_return : link =
 fun fr ->
  fr.retf <- Array.unsafe_get fr.flts s;
  (match on_return with
   | Some w -> w fr (Some (Value.Vfloat fr.retf))
   | None -> ());
  halt

let return_void on_return : link =
 fun fr ->
  (match on_return with
   | Some w -> w fr None
   | None -> ());
  halt

(* ------------------------------------------------------------------ *)
(* Code generation                                                    *)
(* ------------------------------------------------------------------ *)

(* The constant slot of an immediate [key] in a bank with [nregs]
   registers: one per distinct value, numbered past the registers in
   first-use order. *)
let const_slot tbl ~nregs key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
    let s = nregs + Hashtbl.length tbl in
    Hashtbl.replace tbl key s;
    s

(* What a block's trailing instruction hands its terminator link when
   the two are fused: a compare's or an add's destination and operand
   slots. *)
type fused_term =
  | F_none
  | F_compare of Ir.Op.cmp * int * int * int
  | F_add of int * int * int

(* Compile every function of a clean program against one run's memory,
   cache, context and observer. Everything built here belongs to this
   run: the daemon and the pool interpret on several domains at once.

   Blocks are compiled into an array over the function's {!Ir.Cfg} ids:
   the entry is id 0 and a terminator's targets are its [succs], in
   branch order. A block's chain is built back to front, each link
   taking the rest of the block as its continuation: its terminator
   first, then the def-byte link if the block keeps any, then its
   instructions' links from the last, then, for a watched block, its
   watch handler. Some instructions are not compiled alone:
   - an integer [Compare] that is the last instruction of a block whose
     [Branch] tests its register, and an integer [Add] that is the last
     instruction of a block ending in a [Jump], become part of the
     terminator link ([compare_branch], [add_jump]);
   - an integer [Mul] whose register the next instruction, an [Add],
     reads, compiles with that add into one link ([mul_add]), and with
     the [Load] right after it too when the add's register is its index
     ([mul_add_load]).
   A fused group's operand checks are emitted before its link, in the
   order the unfused links would run them; that is safe because every
   member but the last is an add, a mul or a compare, which cannot
   raise. The link still writes every member's register, in program
   order. The fuel charge and the profile see the same instructions.

   The observer's watch points are resolved here, once per block and
   once per function. Def bytes exist for def-byte checks and for a
   watch point's declared registers ([declared_regs]), so a block sets
   the def byte of a register it defines only when some read of that
   register in the function is not proven by {!Ir.Cfg.Must_defined}
   (and so compiled to a [check]), or when some watch point of the
   function declares the register and cannot prove it written there:
   at the entry of a watched block, or at a return of a function with a
   return handler. A register the solver does not know (one that is
   only read) is never proven. A watch point's [regs] trust the proof
   first and the byte second. Which bytes
   a block keeps is known only once every read of the function is
   compiled, so each block is compiled first into a list of links
   awaiting their continuation, and chained after. The bytes are set
   after the block's instructions: nothing reads them mid-block, since a
   read of a register the same block defined earlier is proven, and a
   watch point sees a frame only at block entry and return.

   A block whose only link is a fused compare-and-branch, that is not a
   watch point and that keeps no def byte, is a bare header. Whether a
   block keeps a byte is also known only after every read is compiled,
   so a jump's terminator is picked when the chains are built: a jump
   into a bare header becomes a [thread] link, which runs the header
   too; the header's own chain still serves its other
   entries. A threaded header is entered without a check or a watch
   handler, which it does not have, and without setting a def byte,
   which it does not keep. The run subtracts each threaded edge's count
   from the links and block-loop entries it reports. *)
let codegen (pm : pmeta) (cx : ctx) (cache : Cache.t option)
    (observer : observer option) : (string, sfunc) Hashtbl.t =
  let sfuncs : (string, sfunc) Hashtbl.t = Hashtbl.create 8 in
  (* Pass 1: shells, so call sites, targets and mutual recursion
     resolve. *)
  Hashtbl.iter
    (fun name (fm : fmeta) ->
      let def0 = Bytes.make fm.fm_nregs '\000' in
      List.iter
        (fun (r : Ir.Instr.reg) ->
          let ri = Ir.Cfg.String_tbl.find fm.fm_regs r.Ir.Instr.id in
          Bytes.set def0 ri.uid '\001')
        fm.fm_func.Ir.Func.params;
      let counts = Profile.counts fm.fm_cfg in
      let blocks =
        Array.map
          (fun (b : Ir.Block.t) ->
            { sb_fuel = List.length b.Ir.Block.instrs + 1;
              sb_run = halt.sb_run;
              sb_watch = None;
              sb_cycles = Cpu_model.block_cycles b;
              sb_links = 0 })
          fm.fm_cfg.Ir.Cfg.blocks
      in
      Hashtbl.replace sfuncs name
        { sf_entry = blocks.(0);
          sf_ints0 = [||];
          sf_flts0 = [||];
          sf_def0 = def0;
          sf_regs = fm.fm_regs;
          sf_ret = fm.fm_ret;
          sf_counts = counts;
          sf_blocks = blocks;
          sf_succs = fm.fm_cfg.Ir.Cfg.succs;
          sf_threads = [||] })
    pm.pm_funcs;
  (* Pass 2: code. *)
  Hashtbl.iter
    (fun fname (fm : fmeta) ->
      let sf = Hashtbl.find sfuncs fname in
      let cfg = fm.fm_cfg in
      let nproven = Ir.Cfg.Must_defined.size fm.fm_md in
      let proven set uid = uid < nproven && Ir.Cfg.Bits.mem set uid in
      let ri_of (r : Ir.Instr.reg) =
        Ir.Cfg.String_tbl.find fm.fm_regs r.Ir.Instr.id
      in
      (* Immediates by value; floats by their bits, so -0.0 and every
         NaN payload keep their own slot. *)
      let int_consts = Hashtbl.create 8 and flt_consts = Hashtbl.create 8 in
      (* [checked.(uid)]: some read of the register compiled to a check. *)
      let checked = Array.make fm.fm_nregs false in
      let blocks = sf.sf_blocks in
      (* [needed.(uid)]: some watch point declares the register and
         cannot prove it written there, so its handler needs the def
         byte. [declare] resolves a watch point's declared registers
         against [set], the registers proven written there, and gives
         the frame cell its handler reads through. *)
      let needed = Array.make fm.fm_nregs false in
      let declare ~label set (w : _ watch) =
        let cur = ref no_frame in
        let decl =
          List.map
            (fun rid ->
              ( rid,
                Option.map
                  (fun ri ->
                    let p = proven set ri.uid in
                    if not p then needed.(ri.uid) <- true;
                    ri, p)
                  (Ir.Cfg.String_tbl.find_opt fm.fm_regs rid) ))
            w.w_reads
        in
        cur, declared_regs ~func:fname ~label decl cur, w.w_run
      in
      let on_return =
        Option.bind observer (fun o -> o.obs_return ~func:fname)
      in
      (* Per block, by id: its links (last first), its terminator link
         and the uids it defines, for the def-byte pass. *)
      let compiled =
        Array.mapi
          (fun v (b : Ir.Block.t) ->
            let sb = blocks.(v) in
            let at_entry = Ir.Cfg.Must_defined.at_entry fm.fm_md v in
            (match
               Option.bind observer (fun o ->
                   o.obs_block ~func:fname ~label:b.Ir.Block.label)
             with
             | None -> ()
             | Some w ->
               let cur, regs, w =
                 declare ~label:(Some b.Ir.Block.label) at_entry w
               in
               sb.sb_watch <-
                 Some
                   (fun fr ->
                     cur := fr;
                     w ~regs ~mem:cx.cx_mem));
            (* The observer's log, if it marks this block. *)
            let log =
              match observer with
              | Some o when o.obs_logged ~func:fname ~label:b.Ir.Block.label ->
                Some o.obs_log
              | Some _ | None -> None
            in
            (* Per-position defined set: the block-entry facts, advanced
               past each instruction's destination as we compile. *)
            let defined = Ir.Cfg.Bits.copy at_entry in
            let links = ref [] and defs = ref [] in
            let emit l = links := l :: !links in
            (* The def-byte check a read of [o] needs at this point, if
               the analysis does not prove it, as the uid to test and the
               reference engine's exact message. *)
            let check_of (o : Ir.Instr.operand) =
              match o with
              | Ir.Instr.Reg r ->
                let uid = (ri_of r).uid in
                if proven defined uid then None
                else (
                  checked.(uid) <- true;
                  Some
                    ( uid,
                      Printf.sprintf "uninitialized register %%%s in %s"
                        r.Ir.Instr.id fname ))
              | Ir.Instr.Imm_int _ | Ir.Instr.Imm_float _ | Ir.Instr.Imm_bool _
                ->
                None
            in
            let raw_slot (o : Ir.Instr.operand) =
              match o with
              | Ir.Instr.Reg r -> (ri_of r).bidx
              | Ir.Instr.Imm_int n -> const_slot int_consts ~nregs:fm.fm_nints n
              | Ir.Instr.Imm_bool v ->
                const_slot int_consts ~nregs:fm.fm_nints (Bool.to_int v)
              | Ir.Instr.Imm_float x ->
                const_slot flt_consts ~nregs:fm.fm_nflts (Int64.bits_of_float x)
            in
            (* The slot of an operand read now: any check it needs is
               emitted first, so checks run in the order the reference
               engine evaluates operands. *)
            let slot o =
              Option.iter (fun (uid, msg) -> emit (check uid msg)) (check_of o);
              raw_slot o
            in
            let dst (r : Ir.Instr.reg) = (ri_of r).bidx in
            let compile_instr (i : Ir.Instr.t) : link -> link =
              match i with
              | Ir.Instr.Assign (r, o) ->
                let a = slot o in
                assign ~float:(Ir.Types.equal (ri_of r).rty Ir.Types.F32)
                  (dst r) a
              | Ir.Instr.Unary (r, op, o) -> unary op (dst r) (slot o)
              | Ir.Instr.Binary (r, op, a, b) ->
                (* The reference engine evaluates operand [b] before [a]
                   (OCaml right-to-left application), then tests a
                   divisor. *)
                let b = slot b in
                let a = slot a in
                binary op (dst r) a b
              | Ir.Instr.Compare (r, op, a, b) ->
                let b = slot b in
                let a = slot a in
                comparison op (dst r) a b
              | Ir.Instr.Select (r, c, a, b) ->
                let c = slot c in
                select
                  ~float:(Ir.Types.equal (ri_of r).rty Ir.Types.F32)
                  (dst r) c (raw_slot a) (raw_slot b) ~ka:(check_of a)
                  ~kb:(check_of b)
              | Ir.Instr.Load (r, m) ->
                load cx.cx_mem cache m.Ir.Instr.base (dst r)
                  (slot m.Ir.Instr.index)
              | Ir.Instr.Store (m, v) ->
                (* The reference engine evaluates the stored value after
                   touching the cache; a check on it may run before the
                   touch here, which only a run that then raises — and
                   so returns no cache statistics — could tell. *)
                let ix = slot m.Ir.Instr.index in
                let v = slot v in
                (match log with
                 | None -> store cx.cx_mem cache m.Ir.Instr.base ix v
                 | Some log ->
                   store_logged cx.cx_mem cache log m.Ir.Instr.base ix v)
              | Ir.Instr.Call (dest, callee, args) ->
                let csf = Hashtbl.find sfuncs callee in
                let cfm = Hashtbl.find pm.pm_funcs callee in
                (* Arguments are checked left to right (the reference
                   engine's List.map), then copied bank to bank. *)
                let isrc = ref [] and idst = ref [] in
                let fsrc = ref [] and fdst = ref [] in
                List.iter2
                  (fun (p : Ir.Instr.reg) (a : Ir.Instr.operand) ->
                    let pri =
                      Ir.Cfg.String_tbl.find cfm.fm_regs p.Ir.Instr.id
                    in
                    let s = slot a in
                    match pri.rty with
                    | Ir.Types.F32 ->
                      fsrc := s :: !fsrc;
                      fdst := pri.bidx :: !fdst
                    | Ir.Types.I32 | Ir.Types.Bool ->
                      isrc := s :: !isrc;
                      idst := pri.bidx :: !idst)
                  cfm.fm_func.Ir.Func.params args;
                let isrc = Array.of_list !isrc and idst = Array.of_list !idst in
                let fsrc = Array.of_list !fsrc and fdst = Array.of_list !fdst in
                let call fr =
                  let cfr = new_frame csf in
                  for k = 0 to Array.length isrc - 1 do
                    Array.unsafe_set cfr.ints (Array.unsafe_get idst k)
                      (Array.unsafe_get fr.ints (Array.unsafe_get isrc k))
                  done;
                  for k = 0 to Array.length fsrc - 1 do
                    Array.unsafe_set cfr.flts (Array.unsafe_get fdst k)
                      (Array.unsafe_get fr.flts (Array.unsafe_get fsrc k))
                  done;
                  exec_sfunc cx csf cfr;
                  cfr
                in
                fun k ->
                  (match dest with
                   | None ->
                     fun fr ->
                       ignore (call fr : frame);
                       k fr
                   | Some r ->
                     let d = dst r in
                     (match csf.sf_ret with
                      | R_float ->
                        fun fr ->
                          Array.unsafe_set fr.flts d (call fr).retf;
                          k fr
                      | R_int | R_bool ->
                        fun fr ->
                          Array.unsafe_set fr.ints d (call fr).reti;
                          k fr
                      | R_void -> assert false (* ruled out by analysis *)))
            in
            (* Advance the defined set past an instruction, for the
               operands compiled after it. *)
            let note_def i =
              match Ir.Instr.def i with
              | Some r ->
                let uid = (ri_of r).uid in
                Ir.Cfg.Bits.add defined uid;
                defs := uid :: !defs
              | None -> ()
            in
            (* Does operand [o] read register [r]? *)
            let is_reg (r : Ir.Instr.reg) (o : Ir.Instr.operand) =
              match o with
              | Ir.Instr.Reg x -> String.equal x.Ir.Instr.id r.Ir.Instr.id
              | Ir.Instr.Imm_int _ | Ir.Instr.Imm_float _
              | Ir.Instr.Imm_bool _ ->
                false
            in
            (* Compile the instructions. A trailing integer compare that
               feeds the branch, or a trailing integer add before a jump,
               only has its operands' checks emitted, and is returned for
               the terminator. A [mul] feeding the [add] after it, and the
               load that [add] indexes, are one link; their operands'
               checks are emitted before it, in the unfused order. *)
            let rec compile_all (is : Ir.Instr.t list) =
              match is, b.Ir.Block.term with
              | [], _ -> F_none
              | ( [ (Ir.Instr.Compare (r, op, a, b) as i) ],
                  Ir.Instr.Branch (c, _, _) )
                when (not (Ir.Op.cmp_is_float op)) && is_reg r c ->
                let b = slot b in
                let a = slot a in
                note_def i;
                F_compare (op, dst r, a, b)
              | [ (Ir.Instr.Binary (r, Ir.Op.Add, a, b) as i) ], Ir.Instr.Jump _
                ->
                let b = slot b in
                let a = slot a in
                note_def i;
                F_add (dst r, a, b)
              | ( (Ir.Instr.Binary (t, Ir.Op.Mul, a1, b1) as i1)
                  :: (Ir.Instr.Binary (u, Ir.Op.Add, a2, b2) as i2)
                  :: rest ),
                _
                when is_reg t a2 || is_reg t b2 ->
                let b1 = slot b1 in
                let a1 = slot a1 in
                note_def i1;
                let b2s = slot b2 in
                let a2s = slot a2 in
                note_def i2;
                let o = if is_reg t b2 then a2s else b2s in
                (match rest with
                 | (Ir.Instr.Load (v, m) as i3) :: rest
                   when is_reg u m.Ir.Instr.index ->
                   emit
                     (mul_add_load cx.cx_mem cache m.Ir.Instr.base (dst t) a1
                        b1 (dst u) o (dst v));
                   note_def i3;
                   compile_all rest
                 | rest ->
                   emit (mul_add (dst t) a1 b1 (dst u) o);
                   compile_all rest)
              | i :: rest, _ ->
                emit (compile_instr i);
                note_def i;
                compile_all rest
            in
            let fused = compile_all b.Ir.Block.instrs in
            (* The [k]th target, in branch order, and its counter. *)
            let edge k =
              { e_target = blocks.(cfg.Ir.Cfg.succs.(v).(k));
                e_cnt = sf.sf_counts.Profile.edges.(v);
                e_slot = k }
            in
            (* The function's return handler at this block's return:
               [defined] now holds what is proven there. *)
            let handler () =
              Option.map
                (fun w ->
                  let cur, regs, w = declare ~label:None defined w in
                  fun fr value ->
                    cur := fr;
                    w ~regs ~value ~mem:cx.cx_mem)
                on_return
            in
            (* A terminator's check is the last of the block's links, so
               it runs after the instructions and before the edge is
               counted. A jump also gets the link that threads it into
               its target, used if the target turns out bare. *)
            let term, thread =
              match b.Ir.Block.term, fused with
              | Ir.Instr.Branch _, F_compare (op, d, a, bs) ->
                compare_branch op d a bs (edge 0) (edge 1), None
              | Ir.Instr.Branch (c, _, _), _ ->
                let c = slot c in
                branch c (edge 0) (edge 1), None
              | Ir.Instr.Jump _, F_add (d, a, bs) ->
                add_jump d a bs (edge 0), Some (thread cx d a bs (edge 0))
              | Ir.Instr.Jump _, _ ->
                ( jump (edge 0),
                  Some
                    (fun h ->
                      let zero = const_slot int_consts ~nregs:fm.fm_nints 0 in
                      thread cx h.h_d h.h_d zero (edge 0) h) )
              | Ir.Instr.Return None, _ -> return_void (handler ()), None
              | Ir.Instr.Return (Some o), _ ->
                let s = slot o in
                ( (match fm.fm_ret with
                   | R_float -> return_float s (handler ())
                   | R_int -> return_int ~bool:false s (handler ())
                   | R_bool -> return_int ~bool:true s (handler ())
                   | R_void -> assert false),
                  None )
            in
            (* A bare header, if the def-byte pass keeps no byte here:
               nothing but its fused compare-and-branch. *)
            let bare =
              match fused, !links, sb.sb_watch with
              | F_compare (op, d, a, bs), [], None ->
                let h_op, h_a, h_b =
                  match op with
                  | Ir.Op.Gt -> Ir.Op.Lt, bs, a
                  | Ir.Op.Ge -> Ir.Op.Le, bs, a
                  | _ -> op, a, bs
                in
                Some { h_op; h_d = d; h_a; h_b; h_te = edge 0; h_fe = edge 1 }
              | _ -> None
            in
            !links, term, !defs, thread, bare)
          cfg.Ir.Cfg.blocks
      in
      (* Def bytes to keep, now that every read has been compiled. A
         block that returns keeps none: its frame dies at the return, and
         the return handler reads what the block defined through the
         proof. *)
      let stamp = Array.make fm.fm_nregs (-1) in
      let keeps =
        Array.mapi
          (fun k (_, _, defs, _, _) ->
            match cfg.Ir.Cfg.blocks.(k).Ir.Block.term with
            | Ir.Instr.Return _ -> []
            | Ir.Instr.Jump _ | Ir.Instr.Branch _ ->
              List.fold_left
                (fun acc u ->
                  if
                    (needed.(u) || checked.(u))
                    && stamp.(u) <> k
                  then (
                    stamp.(u) <- k;
                    u :: acc)
                  else acc)
                [] defs)
          compiled
      in
      (* Then each block's chain, from its terminator back; a jump into a
         bare header is threaded into it. *)
      let threads = ref [] in
      Array.iteri
        (fun k (links, term, _, thread, _) ->
          let keep = keeps.(k) in
          let term =
            match thread with
            | None -> term
            | Some thread ->
              let t = cfg.Ir.Cfg.succs.(k).(0) in
              (match compiled.(t), keeps.(t) with
               | (_, _, _, _, Some h), [] ->
                 threads := k :: !threads;
                 thread h
               | _ -> term)
          in
          let tail =
            if keep = [] then term else set_defs (Array.of_list keep) term
          in
          let sb = blocks.(k) in
          let chain = List.fold_left (fun k l -> l k) tail links in
          sb.sb_run <-
            (match sb.sb_watch with
             | Some w ->
               fun fr ->
                 w fr;
                 chain fr
             | None -> chain);
          sb.sb_links <-
            List.length links + 1
            + (if keep = [] then 0 else 1)
            + if Option.is_some sb.sb_watch then 1 else 0)
        compiled;
      let ints0 = Array.make (fm.fm_nints + Hashtbl.length int_consts) 0 in
      Hashtbl.iter (fun n s -> ints0.(s) <- n) int_consts;
      let flts0 = Array.make (fm.fm_nflts + Hashtbl.length flt_consts) 0.0 in
      Hashtbl.iter
        (fun bits s -> flts0.(s) <- Int64.float_of_bits bits)
        flt_consts;
      sf.sf_ints0 <- ints0;
      sf.sf_flts0 <- flts0;
      sf.sf_threads <- Array.of_list !threads)
    pm.pm_funcs;
  sfuncs

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

(* Links run by completed runs (each one indirect call), and block-loop
   entries: host-free measures of dispatch cost, next to
   [sim.profile_instrs]. *)
let m_links = Obs.Metrics.counter "sim.profile_links"
let m_entries = Obs.Metrics.counter "sim.profile_entries"

(* The whole run — analysis and code generation included — is one
   "sim.interp" span, like a reference run. *)
let run ?(fuel = default_fuel) ?cache_config ?observer (ix : Ir.Cfg.program) =
  Obs.Trace.span ~cat:"sim" "sim.interp" @@ fun () ->
  match analyze ix with
  | None ->
    (* Unclean program: execute on the reference engine so every
       dynamic error (type errors, unknown labels, arity mismatches,
       missing main, ...) surfaces exactly as it always has. *)
    Interp_reference.exec ~fuel ?cache_config ?observer ix
  | Some pm ->
    let p = ix.Ir.Cfg.program in
    let memory = Memory.create p in
    let cache =
      Option.map (fun config -> Cache.create ~config p) cache_config
    in
    let cx = { cx_fuel = fuel; cx_mem = memory } in
    let sfuncs = codegen pm cx cache observer in
    let profile =
      Profile.create
        (List.map
           (fun (f : Ir.Func.t) -> (Hashtbl.find sfuncs f.Ir.Func.name).sf_counts)
           p.Ir.Program.funcs)
    in
    let main = Hashtbl.find sfuncs p.Ir.Program.main in
    let return_value =
      try
        let fr = new_frame main in
        exec_sfunc cx main fr;
        match main.sf_ret with
        | R_void -> None
        | R_int -> Some (Value.Vint fr.reti)
        | R_bool -> Some (Value.Vbool (fr.reti <> 0))
        | R_float -> Some (Value.Vfloat fr.retf)
      with
      | Value.Type_error m -> raise (Runtime_error ("type error: " ^ m))
      | Memory.Fault m -> raise (Runtime_error ("memory fault: " ^ m))
    in
    (* The run completed, so every edge taken entered its target: a
       block ran as often as its incoming edges were taken, plus, for
       the entry, once per call. The totals are each block's executions
       times its static cost, the same integers the reference engine
       adds up block by block. A bare header entered through a threaded
       jump ran inside the jump's link: neither its chain's one link nor
       a block-loop entry. *)
    let links = ref 0 and entries = ref 0 in
    Hashtbl.iter
      (fun _ sf ->
        let c = sf.sf_counts in
        let execs = c.Profile.blocks in
        execs.(0) <- c.Profile.calls;
        Array.iteri
          (fun v succs ->
            let e = c.Profile.edges.(v) in
            Array.iteri (fun k t -> execs.(t) <- execs.(t) + e.(k)) succs)
          sf.sf_succs;
        Array.iteri
          (fun v sb ->
            let n = execs.(v) in
            Profile.add_cycles profile (n * sb.sb_cycles);
            Profile.add_instrs profile (n * (sb.sb_fuel - 1));
            entries := !entries + n;
            links := !links + (n * sb.sb_links))
          sf.sf_blocks;
        Array.iter
          (fun v ->
            let n = c.Profile.edges.(v).(0) in
            entries := !entries - n;
            links := !links - n)
          sf.sf_threads)
      sfuncs;
    Profile.publish_metrics profile;
    Obs.Metrics.add m_links !links;
    Obs.Metrics.add m_entries !entries;
    { return_value; memory; profile;
      cache_stats = Option.map Cache.stats cache }
