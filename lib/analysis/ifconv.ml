module Ir = Cayman_ir
module String_set = Set.Make (String)
module String_map = Map.Make (String)

(* If-conversion: speculate short, side-effect-free conditional arms into
   straight-line code with select instructions. This mirrors what -O3
   (select formation / speculative execution) gives the paper's LLVM
   front end, and is what lets inner loops whose bodies contain small
   conditionals (min/max updates, clamping, thresholding) collapse to a
   single basic block so the accelerator model can pipeline them.

   A branch arm is speculated only when executing it unconditionally is
   observable-behaviour preserving:
   - no loads, stores or calls (speculative loads could fault on
     addresses the branch guards against);
   - no integer division or remainder (they trap on zero);
   - every register it defines already has a value on the other path, so
     a select between the two values is well-defined. *)

(* An if-conversion invariant was violated — a bug in this pass, not in
   the input program. The message names the offending block or register. *)
exception Internal_error of string

let internal fmt =
  Printf.ksprintf
    (fun m -> raise (Internal_error ("ifconv: invariant violated: " ^ m)))
    fmt

let max_arm_instrs = 16

let speculatable_instr (i : Ir.Instr.t) =
  match i with
  | Ir.Instr.Load _ | Ir.Instr.Store _ | Ir.Instr.Call _ -> false
  | Ir.Instr.Binary (_, (Ir.Op.Div | Ir.Op.Rem), _, _) -> false
  | Ir.Instr.Binary (_, ( Ir.Op.Add | Ir.Op.Sub | Ir.Op.Mul | Ir.Op.And
                        | Ir.Op.Or | Ir.Op.Xor | Ir.Op.Shl | Ir.Op.Shr
                        | Ir.Op.Fadd | Ir.Op.Fsub | Ir.Op.Fmul | Ir.Op.Fdiv ),
       _, _)
  | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Compare _
  | Ir.Instr.Select _ ->
    true

let speculatable_block (b : Ir.Block.t) =
  List.length b.Ir.Block.instrs <= max_arm_instrs
  && List.for_all speculatable_instr b.Ir.Block.instrs

(* Rename the definitions of an arm so both the original (fall-through)
   values and the speculated values coexist; returns the rewritten
   instructions and the map from original register to its arm-final
   version. *)
let speculate_arm ~fresh (b : Ir.Block.t) =
  let subst = ref String_map.empty in
  let rewrite_operand (o : Ir.Instr.operand) =
    match o with
    | Ir.Instr.Reg r ->
      (match String_map.find_opt r.Ir.Instr.id !subst with
       | Some r' -> Ir.Instr.Reg r'
       | None -> o)
    | Ir.Instr.Imm_int _ | Ir.Instr.Imm_float _ | Ir.Instr.Imm_bool _ -> o
  in
  let rewrite_def (r : Ir.Instr.reg) =
    let r' = Ir.Instr.reg (fresh r.Ir.Instr.id) r.Ir.Instr.ty in
    subst := String_map.add r.Ir.Instr.id r' !subst;
    r'
  in
  let instrs =
    List.map
      (fun (i : Ir.Instr.t) ->
        match i with
        | Ir.Instr.Assign (r, o) ->
          let o = rewrite_operand o in
          Ir.Instr.Assign (rewrite_def r, o)
        | Ir.Instr.Unary (r, op, o) ->
          let o = rewrite_operand o in
          Ir.Instr.Unary (rewrite_def r, op, o)
        | Ir.Instr.Binary (r, op, x, y) ->
          let x = rewrite_operand x and y = rewrite_operand y in
          Ir.Instr.Binary (rewrite_def r, op, x, y)
        | Ir.Instr.Compare (r, op, x, y) ->
          let x = rewrite_operand x and y = rewrite_operand y in
          Ir.Instr.Compare (rewrite_def r, op, x, y)
        | Ir.Instr.Select (r, c, x, y) ->
          let c = rewrite_operand c
          and x = rewrite_operand x
          and y = rewrite_operand y in
          Ir.Instr.Select (rewrite_def r, c, x, y)
        | Ir.Instr.Load _ | Ir.Instr.Store _ | Ir.Instr.Call _ ->
          invalid_arg "speculate_arm: arm is not speculatable")
      b.Ir.Block.instrs
  in
  instrs, !subst

type shape =
  | Triangle of { arm : string; join : string; negated : bool }
      (** [Branch (c, arm, join)] or [Branch (c, join, arm)] with
          [negated = true] *)
  | Diamond of { then_arm : string; else_arm : string; join : string }

(* Recognize a convertible branch at [a]. *)
let shape_of (cfg : Ir.Cfg.t) (a : Ir.Block.t) =
  match a.Ir.Block.term with
  | Ir.Instr.Jump _ | Ir.Instr.Return _ -> None
  | Ir.Instr.Branch (_, t, e) ->
    if String.equal t e then None
    else begin
      let block l = cfg.Ir.Cfg.blocks.(Ir.Cfg.id cfg l) in
      let single_pred l =
        match Option.map (Array.get cfg.Ir.Cfg.preds) (Ir.Cfg.id_opt cfg l) with
        | Some [| p |] -> String.equal cfg.Ir.Cfg.labels.(p) a.Ir.Block.label
        | Some _ | None -> false
      in
      let arm_ok l =
        single_pred l
        &&
        let b = block l in
        speculatable_block b
        &&
        match b.Ir.Block.term with
        | Ir.Instr.Jump _ -> true
        | Ir.Instr.Branch _ | Ir.Instr.Return _ -> false
      in
      let jump_target l =
        match (block l).Ir.Block.term with
        | Ir.Instr.Jump j -> Some j
        | Ir.Instr.Branch _ | Ir.Instr.Return _ -> None
      in
      if arm_ok t && arm_ok e then
        match jump_target t, jump_target e with
        | Some jt, Some je
          when String.equal jt je
               && (not (String.equal jt t))
               && not (String.equal jt e) ->
          Some (Diamond { then_arm = t; else_arm = e; join = jt })
        | _, _ ->
          (* fall through to triangle checks *)
          if arm_ok t && jump_target t = Some e then
            Some (Triangle { arm = t; join = e; negated = false })
          else if arm_ok e && jump_target e = Some t then
            Some (Triangle { arm = e; join = t; negated = true })
          else None
      else if arm_ok t && jump_target t = Some e then
        Some (Triangle { arm = t; join = e; negated = false })
      else if arm_ok e && jump_target e = Some t then
        Some (Triangle { arm = e; join = t; negated = true })
      else None
    end

(* Upward-exposed register reads of a block (reads before any local
   definition). Speculation requires them to be defined on every path. *)
let upward_exposed (b : Ir.Block.t) =
  let defined = ref String_set.empty in
  let exposed = ref String_set.empty in
  List.iter
    (fun i ->
      List.iter
        (fun (r : Ir.Instr.reg) ->
          if not (String_set.mem r.Ir.Instr.id !defined) then
            exposed := String_set.add r.Ir.Instr.id !exposed)
        (Ir.Instr.uses i);
      match Ir.Instr.def i with
      | Some r -> defined := String_set.add r.Ir.Instr.id !defined
      | None -> ())
    b.Ir.Block.instrs;
  !exposed

(* Try to convert one branch of [cfg]'s function; [Some f'] on success. *)
let convert_one (cfg : Ir.Cfg.t) (defined : Ir.Cfg.Must_defined.t Lazy.t) =
  let f = cfg.Ir.Cfg.func in
  (* Registers defined on every path into block [l]. *)
  let available l =
    let md = Lazy.force defined in
    let at = Ir.Cfg.Must_defined.at_entry md (Ir.Cfg.id cfg l) in
    fun d ->
      let k = Ir.Cfg.Must_defined.reg md d in
      k >= 0 && Ir.Cfg.Bits.mem at k
  in
  let counter = ref 0 in
  let fresh base =
    incr counter;
    Printf.sprintf "%s_ifc%d" base !counter
  in
  let try_block (a : Ir.Block.t) =
    match shape_of cfg a with
    | None -> None
    | Some shape ->
      let cond =
        match a.Ir.Block.term with
        | Ir.Instr.Branch (c, _, _) -> c
        | Ir.Instr.Jump _ | Ir.Instr.Return _ ->
          internal
            "block %s matched a conditional shape but does not end in a \
             branch"
            a.Ir.Block.label
      in
      (match shape with
       | Triangle { arm; join; negated } ->
         let arm_block = cfg.Ir.Cfg.blocks.(Ir.Cfg.id cfg arm) in
         let defs =
           List.sort_uniq compare
             (List.map (fun (r : Ir.Instr.reg) -> r.Ir.Instr.id)
                (Ir.Block.defs arm_block))
         in
         let available = available arm in
         (* Every value the arm reads must exist unconditionally. Arm
            definitions without a fall-through value are necessarily
            arm-local temporaries (the validator would otherwise have
            rejected the original program), so they are renamed without a
            select. *)
         let defs = List.filter available defs in
         if String_set.for_all available (upward_exposed arm_block) then begin
           let instrs, subst = speculate_arm ~fresh arm_block in
           let reg_of d =
             match
               List.find_map
                 (fun (r : Ir.Instr.reg) ->
                   if String.equal r.Ir.Instr.id d then Some r else None)
                 (Ir.Block.defs arm_block)
             with
             | Some r -> r
             | None ->
               internal
                 "register %%%s selected for a triangle merge is not \
                  defined in arm %s"
                 d arm
           in
           let selects =
             List.map
               (fun d ->
                 let orig = reg_of d in
                 let arm_final =
                   match String_map.find_opt d subst with
                   | Some r' -> Ir.Instr.Reg r'
                   | None ->
                     internal
                       "register %%%s defined in speculated arm %s has no \
                        renamed copy"
                       d arm
                 in
                 let taken, fallthrough =
                   if negated then Ir.Instr.Reg orig, arm_final
                   else arm_final, Ir.Instr.Reg orig
                 in
                 (* negated: branch goes to the arm when cond is false *)
                 Ir.Instr.Select (orig, cond, taken, fallthrough))
               defs
           in
           let a' =
             Ir.Block.v ~label:a.Ir.Block.label
               ~instrs:(a.Ir.Block.instrs @ instrs @ selects)
               ~term:(Ir.Instr.Jump join)
           in
           let blocks =
             List.filter_map
               (fun (b : Ir.Block.t) ->
                 if String.equal b.Ir.Block.label arm then None
                 else if String.equal b.Ir.Block.label a.Ir.Block.label then
                   Some a'
                 else Some b)
               f.Ir.Func.blocks
           in
           Some (Ir.Func.v ~name:f.Ir.Func.name ~params:f.Ir.Func.params
                   ~ret:f.Ir.Func.ret ~blocks)
         end
         else None
       | Diamond { then_arm; else_arm; join } ->
         let tb = cfg.Ir.Cfg.blocks.(Ir.Cfg.id cfg then_arm) in
         let eb = cfg.Ir.Cfg.blocks.(Ir.Cfg.id cfg else_arm) in
         let defs_of b =
           List.sort_uniq compare
             (List.map (fun (r : Ir.Instr.reg) -> r.Ir.Instr.id)
                (Ir.Block.defs b))
         in
         let dt = defs_of tb and de = defs_of eb in
         let union = List.sort_uniq compare (dt @ de) in
         let available = available then_arm in
         (* selects are needed for registers either defined in both arms
            or merged with a prior value; one-arm definitions without a
            prior value are arm-local temporaries *)
         let union =
           List.filter
             (fun d ->
               (List.mem d dt && List.mem d de) || available d)
             union
         in
         let ok =
           String_set.for_all available (upward_exposed tb)
           && String_set.for_all available (upward_exposed eb)
         in
         if ok then begin
           let t_instrs, t_subst = speculate_arm ~fresh tb in
           let e_instrs, e_subst = speculate_arm ~fresh eb in
           let reg_of d =
             match
               List.find_map
                 (fun (r : Ir.Instr.reg) ->
                   if String.equal r.Ir.Instr.id d then Some r else None)
                 (Ir.Block.defs tb @ Ir.Block.defs eb)
             with
             | Some r -> r
             | None ->
               internal
                 "register %%%s selected for a diamond merge is defined in \
                  neither arm %s nor %s"
                 d then_arm else_arm
           in
           let selects =
             List.map
               (fun d ->
                 let orig = reg_of d in
                 let value_in subst =
                   match String_map.find_opt d subst with
                   | Some r' -> Ir.Instr.Reg r'
                   | None -> Ir.Instr.Reg orig
                 in
                 Ir.Instr.Select
                   (orig, cond, value_in t_subst, value_in e_subst))
               union
           in
           let a' =
             Ir.Block.v ~label:a.Ir.Block.label
               ~instrs:(a.Ir.Block.instrs @ t_instrs @ e_instrs @ selects)
               ~term:(Ir.Instr.Jump join)
           in
           let blocks =
             List.filter_map
               (fun (b : Ir.Block.t) ->
                 if
                   String.equal b.Ir.Block.label then_arm
                   || String.equal b.Ir.Block.label else_arm
                 then None
                 else if String.equal b.Ir.Block.label a.Ir.Block.label then
                   Some a'
                 else Some b)
               f.Ir.Func.blocks
           in
           Some (Ir.Func.v ~name:f.Ir.Func.name ~params:f.Ir.Func.params
                   ~ret:f.Ir.Func.ret ~blocks)
         end
         else None)
  in
  List.find_map try_block f.Ir.Func.blocks

(* One function to fixpoint (bounded). A rewritten function is indexed
   again, and solved only once a shape matches: the last round over a
   function matches none. *)
let convert_func (cfg, md) =
  let rec fixpoint cfg defined n =
    match convert_one cfg defined with
    | Some f' when n > 1 ->
      let cfg' = Ir.Cfg.of_func f' in
      fixpoint cfg' (lazy (Ir.Cfg.Must_defined.solve cfg')) (n - 1)
    | Some f' -> f'
    | None -> cfg.Ir.Cfg.func
  in
  fixpoint cfg (Lazy.from_val md) 64

let m_runs = Obs.Metrics.counter "analysis.ifconv_runs"
let m_blocks_removed = Obs.Metrics.counter "analysis.ifconv_blocks_removed"

let run (ix : Ir.Cfg.program) =
  let p = ix.Ir.Cfg.program in
  Obs.Trace.span ~cat:"analysis" "analysis.ifconv" (fun () ->
      Obs.Metrics.incr m_runs;
      let block_count fs =
        List.fold_left
          (fun acc (f : Ir.Func.t) -> acc + List.length f.Ir.Func.blocks)
          0 fs
      in
      let convert f = Option.fold ~none:f ~some:convert_func in
      let funcs = List.map2 convert p.Ir.Program.funcs ix.Ir.Cfg.funcs in
      Obs.Metrics.add m_blocks_removed
        (block_count p.Ir.Program.funcs - block_count funcs);
      Ir.Program.v ~globals:p.Ir.Program.globals ~funcs
        ~main:p.Ir.Program.main)
