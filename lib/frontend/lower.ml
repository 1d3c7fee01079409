module Ir = Cayman_ir

(* AST nodes carry only a line, so lowering diagnostics locate to a line
   with the column unknown (0). *)
let fail line fmt =
  Format.kasprintf
    (fun message ->
      raise
        (Diag.Error
           { Diag.d_phase = "lower";
             d_span = Some { Diag.line; col = 0 };
             d_message = message }))
    fmt

(* A frontend invariant was violated: unlike {!Error}, this is a bug in
   the lowering itself, not in the user's program. The message names the
   construct that broke the invariant so the report is actionable. *)
exception Internal_error of string

let internal fmt =
  Format.kasprintf
    (fun m -> raise (Internal_error ("lower: invariant violated: " ^ m)))
    fmt

type func_sig = { sig_ret : Ir.Types.t option; sig_params : Ir.Types.t list }

type env = {
  globals : (string, Ir.Program.global) Hashtbl.t;
  consts : (string, int) Hashtbl.t;
  sigs : (string, func_sig) Hashtbl.t;
}

type loop_ctx = { break_to : string; continue_to : string }

type fstate = {
  env : env;
  builder : Ir.Builder.t;
  mutable scopes : (string * Ir.Instr.reg) list list;
  mutable loops : loop_ctx list;
  ret_ty : Ir.Types.t option;
}

let scalar_ty line = function
  | Ast.Tint -> Ir.Types.I32
  | Ast.Tfloat -> Ir.Types.F32
  | Ast.Tvoid -> fail line "void is not a value type"

(* Compile-time evaluation of integer constant expressions (array dims and
   top-level consts). *)
let rec eval_const env (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Int_lit n -> n
  | Ast.Var name ->
    (match Hashtbl.find_opt env.consts name with
     | Some v -> v
     | None -> fail e.Ast.line "%s is not a compile-time constant" name)
  | Ast.Un (Ast.Uneg, a) -> -eval_const env a
  | Ast.Bin (op, a, b) ->
    let x = eval_const env a and y = eval_const env b in
    (match op with
     | Ast.Badd -> x + y
     | Ast.Bsub -> x - y
     | Ast.Bmul -> x * y
     | Ast.Bdiv ->
       if y = 0 then fail e.Ast.line "division by zero in constant" else x / y
     | Ast.Bmod ->
       if y = 0 then fail e.Ast.line "division by zero in constant" else x mod y
     | Ast.Bshl -> x lsl y
     | Ast.Bshr -> x asr y
     | Ast.Bbit_and -> x land y
     | Ast.Bbit_or -> x lor y
     | Ast.Bbit_xor -> x lxor y
     | Ast.Beq | Ast.Bne | Ast.Blt | Ast.Ble | Ast.Bgt | Ast.Bge | Ast.Band
     | Ast.Bor ->
       fail e.Ast.line "comparison not allowed in constant expression")
  | Ast.Float_lit _ | Ast.Index _ | Ast.Un (Ast.Unot, _) | Ast.Call _
  | Ast.Cast _ ->
    fail e.Ast.line "not a compile-time integer constant"

let lookup_var fs name =
  let rec search = function
    | [] -> None
    | scope :: rest ->
      (match List.assoc_opt name scope with
       | Some r -> Some r
       | None -> search rest)
  in
  search fs.scopes

let declare_var fs line name ty =
  (match fs.scopes with
   | scope :: _ when List.mem_assoc name scope ->
     fail line "variable %s already declared in this scope" name
   | _ :: _ | [] -> ());
  let r = Ir.Builder.fresh_reg ~hint:name fs.builder ty in
  (match fs.scopes with
   | scope :: rest -> fs.scopes <- ((name, r) :: scope) :: rest
   | [] -> fs.scopes <- [ [ (name, r) ] ]);
  r

(* Constant-folding emit helpers: keep the IR small so the interpreter and
   the scheduler see only real work. *)

let fold_bin op x y =
  match op, x, y with
  | _, Ir.Instr.Imm_int a, Ir.Instr.Imm_int b ->
    let f = match op with
      | Ir.Op.Add -> Some (a + b)
      | Ir.Op.Sub -> Some (a - b)
      | Ir.Op.Mul -> Some (a * b)
      | Ir.Op.Div -> if b = 0 then None else Some (a / b)
      | Ir.Op.Rem -> if b = 0 then None else Some (a mod b)
      | Ir.Op.And -> Some (a land b)
      | Ir.Op.Or -> Some (a lor b)
      | Ir.Op.Xor -> Some (a lxor b)
      | Ir.Op.Shl -> Some (a lsl b)
      | Ir.Op.Shr -> Some (a asr b)
      | Ir.Op.Fadd | Ir.Op.Fsub | Ir.Op.Fmul | Ir.Op.Fdiv -> None
    in
    Option.map (fun n -> Ir.Instr.Imm_int n) f
  | Ir.Op.Add, Ir.Instr.Imm_int 0, v | Ir.Op.Add, v, Ir.Instr.Imm_int 0 ->
    Some v
  | Ir.Op.Mul, Ir.Instr.Imm_int 1, v | Ir.Op.Mul, v, Ir.Instr.Imm_int 1 ->
    Some v
  | _, _, _ -> None

let emit_bin fs op x y =
  match fold_bin op x y with
  | Some v -> v
  | None -> Ir.Instr.Reg (Ir.Builder.binary fs.builder op x y)

let coerce fs line ~want (v, got) =
  if Ir.Types.equal want got then v
  else
    match got, want with
    | Ir.Types.I32, Ir.Types.F32 ->
      (match v with
       | Ir.Instr.Imm_int n -> Ir.Instr.Imm_float (float_of_int n)
       | Ir.Instr.Reg _ | Ir.Instr.Imm_float _ | Ir.Instr.Imm_bool _ ->
         Ir.Instr.Reg (Ir.Builder.unary fs.builder Ir.Op.Float_of_int v))
    | Ir.Types.F32, Ir.Types.I32 ->
      (match v with
       | Ir.Instr.Imm_float x -> Ir.Instr.Imm_int (int_of_float x)
       | Ir.Instr.Reg _ | Ir.Instr.Imm_int _ | Ir.Instr.Imm_bool _ ->
         Ir.Instr.Reg (Ir.Builder.unary fs.builder Ir.Op.Int_of_float v))
    | Ir.Types.Bool, Ir.Types.I32 ->
      Ir.Instr.Reg
        (Ir.Builder.select fs.builder Ir.Types.I32 v (Ir.Instr.Imm_int 1)
           (Ir.Instr.Imm_int 0))
    | Ir.Types.I32, Ir.Types.Bool ->
      Ir.Instr.Reg
        (Ir.Builder.compare fs.builder Ir.Op.Ne v (Ir.Instr.Imm_int 0))
    | Ir.Types.F32, Ir.Types.Bool ->
      Ir.Instr.Reg
        (Ir.Builder.compare fs.builder Ir.Op.Fne v (Ir.Instr.Imm_float 0.0))
    | Ir.Types.Bool, Ir.Types.F32 ->
      Ir.Instr.Reg
        (Ir.Builder.select fs.builder Ir.Types.F32 v (Ir.Instr.Imm_float 1.0)
           (Ir.Instr.Imm_float 0.0))
    | (Ir.Types.I32 | Ir.Types.F32 | Ir.Types.Bool), _ ->
      fail line "cannot convert %s to %s" (Ir.Types.to_string got)
        (Ir.Types.to_string want)

(* Unify two numeric operands: promote to F32 if either side is float. *)
let unify_numeric fs line (a, ta) (b, tb) =
  let num ty =
    match ty with
    | Ir.Types.I32 | Ir.Types.F32 -> ()
    | Ir.Types.Bool -> fail line "numeric operand expected"
  in
  num ta;
  num tb;
  match ta, tb with
  | Ir.Types.F32, _ | _, Ir.Types.F32 ->
    ( coerce fs line ~want:Ir.Types.F32 (a, ta),
      coerce fs line ~want:Ir.Types.F32 (b, tb),
      Ir.Types.F32 )
  | Ir.Types.I32, Ir.Types.I32 -> a, b, Ir.Types.I32
  | Ir.Types.Bool, _ | _, Ir.Types.Bool ->
    internal
      "unify_numeric at line %d: boolean operand (%s, %s) survived the \
       numeric check"
      line (Ir.Types.to_string ta) (Ir.Types.to_string tb)

let rec lower_expr fs (e : Ast.expr) : Ir.Instr.operand * Ir.Types.t =
  let line = e.Ast.line in
  match e.Ast.desc with
  | Ast.Int_lit n -> Ir.Instr.Imm_int n, Ir.Types.I32
  | Ast.Float_lit x -> Ir.Instr.Imm_float x, Ir.Types.F32
  | Ast.Var name ->
    (match lookup_var fs name with
     | Some r -> Ir.Instr.Reg r, r.Ir.Instr.ty
     | None ->
       (match Hashtbl.find_opt fs.env.consts name with
        | Some v -> Ir.Instr.Imm_int v, Ir.Types.I32
        | None -> fail line "unknown variable %s" name))
  | Ast.Index (name, indices) ->
    let g =
      match Hashtbl.find_opt fs.env.globals name with
      | Some g -> g
      | None -> fail line "unknown array %s" name
    in
    let index = lower_index fs line g indices in
    let r = Ir.Builder.load fs.builder g.Ir.Program.elem ~base:name ~index in
    Ir.Instr.Reg r, g.Ir.Program.elem
  | Ast.Un (Ast.Uneg, a) ->
    let v, ty = lower_expr fs a in
    (match ty with
     | Ir.Types.I32 ->
       (match v with
        | Ir.Instr.Imm_int n -> Ir.Instr.Imm_int (-n), Ir.Types.I32
        | Ir.Instr.Reg _ | Ir.Instr.Imm_float _ | Ir.Instr.Imm_bool _ ->
          Ir.Instr.Reg (Ir.Builder.unary fs.builder Ir.Op.Neg v), Ir.Types.I32)
     | Ir.Types.F32 ->
       (match v with
        | Ir.Instr.Imm_float x -> Ir.Instr.Imm_float (-.x), Ir.Types.F32
        | Ir.Instr.Reg _ | Ir.Instr.Imm_int _ | Ir.Instr.Imm_bool _ ->
          Ir.Instr.Reg (Ir.Builder.unary fs.builder Ir.Op.Fneg v), Ir.Types.F32)
     | Ir.Types.Bool -> fail line "cannot negate a boolean")
  | Ast.Un (Ast.Unot, a) ->
    let v = lower_cond fs a in
    Ir.Instr.Reg (Ir.Builder.unary fs.builder Ir.Op.Not v), Ir.Types.Bool
  | Ast.Bin (Ast.Band, a, b) ->
    let va = lower_cond fs a in
    let vb = lower_cond fs b in
    ( Ir.Instr.Reg
        (Ir.Builder.select fs.builder Ir.Types.Bool va vb
           (Ir.Instr.Imm_bool false)),
      Ir.Types.Bool )
  | Ast.Bin (Ast.Bor, a, b) ->
    let va = lower_cond fs a in
    let vb = lower_cond fs b in
    ( Ir.Instr.Reg
        (Ir.Builder.select fs.builder Ir.Types.Bool va
           (Ir.Instr.Imm_bool true) vb),
      Ir.Types.Bool )
  | Ast.Bin (op, a, b) ->
    let ea = lower_expr fs a in
    let eb = lower_expr fs b in
    lower_binop fs line op ea eb
  | Ast.Call (name, args) ->
    let fsig =
      match Hashtbl.find_opt fs.env.sigs name with
      | Some s -> s
      | None -> fail line "unknown function %s" name
    in
    if List.length args <> List.length fsig.sig_params then
      fail line "call to %s: expected %d arguments, got %d" name
        (List.length fsig.sig_params)
        (List.length args);
    let lowered =
      List.map2
        (fun want arg -> coerce fs line ~want (lower_expr fs arg))
        fsig.sig_params args
    in
    (match fsig.sig_ret with
     | Some ty ->
       let r = Ir.Builder.fresh_reg ~hint:"ret" fs.builder ty in
       Ir.Builder.emit fs.builder (Ir.Instr.Call (Some r, name, lowered));
       Ir.Instr.Reg r, ty
     | None -> fail line "void function %s used as a value" name)
  | Ast.Cast (ty, a) ->
    let want = scalar_ty line ty in
    coerce fs line ~want (lower_expr fs a), want

and lower_binop fs line op (va, ta) (vb, tb) =
  let int_only name =
    match ta, tb with
    | Ir.Types.I32, Ir.Types.I32 -> ()
    | (Ir.Types.I32 | Ir.Types.F32 | Ir.Types.Bool), _ ->
      fail line "%s requires integer operands" name
  in
  let arith iop fop =
    let a, b, ty = unify_numeric fs line (va, ta) (vb, tb) in
    let op = match ty with Ir.Types.F32 -> fop | _ -> iop in
    emit_bin fs op a b, ty
  in
  let compare icmp fcmp =
    let a, b, ty = unify_numeric fs line (va, ta) (vb, tb) in
    let op = match ty with Ir.Types.F32 -> fcmp | _ -> icmp in
    Ir.Instr.Reg (Ir.Builder.compare fs.builder op a b), Ir.Types.Bool
  in
  match op with
  | Ast.Badd -> arith Ir.Op.Add Ir.Op.Fadd
  | Ast.Bsub -> arith Ir.Op.Sub Ir.Op.Fsub
  | Ast.Bmul -> arith Ir.Op.Mul Ir.Op.Fmul
  | Ast.Bdiv -> arith Ir.Op.Div Ir.Op.Fdiv
  | Ast.Bmod ->
    int_only "%";
    emit_bin fs Ir.Op.Rem va vb, Ir.Types.I32
  | Ast.Bshl ->
    int_only "<<";
    emit_bin fs Ir.Op.Shl va vb, Ir.Types.I32
  | Ast.Bshr ->
    int_only ">>";
    emit_bin fs Ir.Op.Shr va vb, Ir.Types.I32
  | Ast.Bbit_and ->
    int_only "&";
    emit_bin fs Ir.Op.And va vb, Ir.Types.I32
  | Ast.Bbit_or ->
    int_only "|";
    emit_bin fs Ir.Op.Or va vb, Ir.Types.I32
  | Ast.Bbit_xor ->
    int_only "^";
    emit_bin fs Ir.Op.Xor va vb, Ir.Types.I32
  | Ast.Beq -> compare Ir.Op.Eq Ir.Op.Feq
  | Ast.Bne -> compare Ir.Op.Ne Ir.Op.Fne
  | Ast.Blt -> compare Ir.Op.Lt Ir.Op.Flt
  | Ast.Ble -> compare Ir.Op.Le Ir.Op.Fle
  | Ast.Bgt -> compare Ir.Op.Gt Ir.Op.Fgt
  | Ast.Bge -> compare Ir.Op.Ge Ir.Op.Fge
  | Ast.Band | Ast.Bor ->
    internal
      "lower_binop at line %d: short-circuit operator %s must be lowered \
       as control flow, not as a strict binop"
      line
      (match op with Ast.Band -> "&&" | _ -> "||")

and lower_cond fs (e : Ast.expr) =
  let v, ty = lower_expr fs e in
  coerce fs e.Ast.line ~want:Ir.Types.Bool (v, ty)

(* Row-major linearization of a multi-dimensional index. *)
and lower_index fs line (g : Ir.Program.global) indices =
  let dims = g.Ir.Program.dims in
  if List.length indices <> List.length dims then
    fail line "array %s has %d dimensions, %d indices given"
      g.Ir.Program.gname (List.length dims) (List.length indices);
  let lowered =
    List.map
      (fun i -> coerce fs line ~want:Ir.Types.I32 (lower_expr fs i))
      indices
  in
  match lowered, dims with
  | [], _ | _, [] -> fail line "array %s has no dimensions" g.Ir.Program.gname
  | i0 :: rest, _ :: rest_dims ->
    List.fold_left2
      (fun acc i d ->
        let scaled = emit_bin fs Ir.Op.Mul acc (Ir.Instr.Imm_int d) in
        emit_bin fs Ir.Op.Add scaled i)
      i0 rest rest_dims

let assign_binop ty = function
  | Ast.A_add -> (match ty with Ir.Types.F32 -> Ir.Op.Fadd | _ -> Ir.Op.Add)
  | Ast.A_sub -> (match ty with Ir.Types.F32 -> Ir.Op.Fsub | _ -> Ir.Op.Sub)
  | Ast.A_mul -> (match ty with Ir.Types.F32 -> Ir.Op.Fmul | _ -> Ir.Op.Mul)
  | Ast.A_div -> (match ty with Ir.Types.F32 -> Ir.Op.Fdiv | _ -> Ir.Op.Div)
  | Ast.A_set -> invalid_arg "assign_binop: A_set"

(* Lower a statement list; returns [true] iff control can fall through the
   end of the list (i.e. the current block is still open). *)
let rec lower_stmts fs stmts =
  match stmts with
  | [] -> true
  | s :: rest ->
    if lower_stmt fs s then lower_stmts fs rest
    else
      (* The remaining statements are unreachable: drop them. *)
      false

and lower_stmt fs (s : Ast.stmt) =
  let line = s.Ast.sline in
  match s.Ast.sdesc with
  | Ast.S_block stmts ->
    fs.scopes <- [] :: fs.scopes;
    let open_end = lower_stmts fs stmts in
    (match fs.scopes with
     | _ :: rest -> fs.scopes <- rest
     | [] ->
       internal
         "scope stack underflow closing the compound statement at line %d"
         line);
    open_end
  | Ast.S_decl (ty, name, init) ->
    let ty = scalar_ty line ty in
    let v =
      match init with
      | Some e -> coerce fs line ~want:ty (lower_expr fs e)
      | None ->
        (match ty with
         | Ir.Types.F32 -> Ir.Instr.Imm_float 0.0
         | Ir.Types.I32 | Ir.Types.Bool -> Ir.Instr.Imm_int 0)
    in
    let r = declare_var fs line name ty in
    Ir.Builder.emit fs.builder (Ir.Instr.Assign (r, v));
    true
  | Ast.S_assign (Ast.L_var name, aop, e) ->
    let r =
      match lookup_var fs name with
      | Some r -> r
      | None -> fail line "unknown variable %s" name
    in
    let ty = r.Ir.Instr.ty in
    let rhs = coerce fs line ~want:ty (lower_expr fs e) in
    (match aop with
     | Ast.A_set -> Ir.Builder.emit fs.builder (Ir.Instr.Assign (r, rhs))
     | Ast.A_add | Ast.A_sub | Ast.A_mul | Ast.A_div ->
       (* Write the target register directly ([i = i + 1] stays a single
          instruction), which is what induction-variable detection keys
          on. *)
       Ir.Builder.emit fs.builder
         (Ir.Instr.Binary (r, assign_binop ty aop, Ir.Instr.Reg r, rhs)));
    true
  | Ast.S_assign (Ast.L_index (name, indices), aop, e) ->
    let g =
      match Hashtbl.find_opt fs.env.globals name with
      | Some g -> g
      | None -> fail line "unknown array %s" name
    in
    let elem = g.Ir.Program.elem in
    let index = lower_index fs line g indices in
    let rhs = coerce fs line ~want:elem (lower_expr fs e) in
    let value =
      match aop with
      | Ast.A_set -> rhs
      | Ast.A_add | Ast.A_sub | Ast.A_mul | Ast.A_div ->
        let old = Ir.Builder.load fs.builder elem ~base:name ~index in
        emit_bin fs (assign_binop elem aop) (Ir.Instr.Reg old) rhs
    in
    Ir.Builder.store fs.builder ~base:name ~index value;
    true
  | Ast.S_expr e ->
    (match e.Ast.desc with
     | Ast.Call (name, args) ->
       let fsig =
         match Hashtbl.find_opt fs.env.sigs name with
         | Some s -> s
         | None -> fail line "unknown function %s" name
       in
       if List.length args <> List.length fsig.sig_params then
         fail line "call to %s: arity mismatch" name;
       let lowered =
         List.map2
           (fun want arg -> coerce fs line ~want (lower_expr fs arg))
           fsig.sig_params args
       in
       let result =
         match fsig.sig_ret with
         | Some ty -> Some (Ir.Builder.fresh_reg ~hint:"ret" fs.builder ty)
         | None -> None
       in
       Ir.Builder.emit fs.builder (Ir.Instr.Call (result, name, lowered));
       true
     | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Var _ | Ast.Index _ | Ast.Bin _
     | Ast.Un _ | Ast.Cast _ ->
       (* Effect-free expression statement: evaluate for errors, drop. *)
       let _ = lower_expr fs e in
       true)
  | Ast.S_return e ->
    let v =
      match e, fs.ret_ty with
      | Some e, Some ty -> Some (coerce fs line ~want:ty (lower_expr fs e))
      | None, None -> None
      | Some _, None -> fail line "returning a value from a void function"
      | None, Some _ -> fail line "missing return value"
    in
    Ir.Builder.terminate fs.builder (Ir.Instr.Return v);
    false
  | Ast.S_break ->
    (match fs.loops with
     | { break_to; _ } :: _ ->
       Ir.Builder.terminate fs.builder (Ir.Instr.Jump break_to);
       false
     | [] -> fail line "break outside of a loop")
  | Ast.S_continue ->
    (match fs.loops with
     | { continue_to; _ } :: _ ->
       Ir.Builder.terminate fs.builder (Ir.Instr.Jump continue_to);
       false
     | [] -> fail line "continue outside of a loop")
  | Ast.S_if (cond, then_s, else_s) ->
    let c = lower_cond fs cond in
    let then_l = Ir.Builder.add_block ~hint:"then" fs.builder in
    let join_l = Ir.Builder.add_block ~hint:"join" fs.builder in
    let else_l =
      match else_s with
      | Some _ -> Ir.Builder.add_block ~hint:"else" fs.builder
      | None -> join_l
    in
    Ir.Builder.terminate fs.builder (Ir.Instr.Branch (c, then_l, else_l));
    Ir.Builder.set_current fs.builder then_l;
    let then_open = lower_stmt fs then_s in
    if then_open then Ir.Builder.terminate fs.builder (Ir.Instr.Jump join_l);
    let else_open =
      match else_s with
      | Some s ->
        Ir.Builder.set_current fs.builder else_l;
        let open_end = lower_stmt fs s in
        if open_end then
          Ir.Builder.terminate fs.builder (Ir.Instr.Jump join_l);
        open_end
      | None -> true
    in
    if then_open || else_open then begin
      Ir.Builder.set_current fs.builder join_l;
      true
    end
    else begin
      (* Both branches leave; the join block is unreachable: terminate it
         with a self-contained return so the function stays well-formed. *)
      Ir.Builder.set_current fs.builder join_l;
      false_join fs
    end
  | Ast.S_while (label, cond, body) ->
    lower_loop fs ~label ~init:None ~cond:(Some cond) ~step:None ~body
  | Ast.S_for (label, init, cond, step, body) ->
    fs.scopes <- [] :: fs.scopes;
    (match init with
     | Some s ->
       let opened = lower_stmt fs s in
       assert opened
     | None -> ());
    let r = lower_loop fs ~label ~init:None ~cond ~step ~body in
    (match fs.scopes with
     | _ :: rest -> fs.scopes <- rest
     | [] ->
       internal "scope stack underflow closing the for statement at line %d"
         line);
    r

(* The unreachable join of an if whose branches both leave: emit a dummy
   return matching the signature. *)
and false_join fs =
  let v =
    match fs.ret_ty with
    | None -> None
    | Some Ir.Types.F32 -> Some (Ir.Instr.Imm_float 0.0)
    | Some (Ir.Types.I32 | Ir.Types.Bool) -> Some (Ir.Instr.Imm_int 0)
  in
  Ir.Builder.terminate fs.builder (Ir.Instr.Return v);
  false

(* Shared loop shape: pre -> head(cond) -> body ... -> latch(step) -> head,
   with a dedicated exit block. [continue] jumps to the latch, [break] to
   the exit. The dedicated preheader and latch give every loop a single
   entry edge and a single back edge, which keeps SESE detection clean. *)
and lower_loop fs ~label ~init ~cond ~step ~body =
  (match init with
   | Some s -> ignore (lower_stmt fs s : bool)
   | None -> ());
  let prefix = match label with Some l -> l ^ "_" | None -> "loop_" in
  let head_l = Ir.Builder.add_block ~hint:(prefix ^ "head") fs.builder in
  let body_l = Ir.Builder.add_block ~hint:(prefix ^ "body") fs.builder in
  let latch_l = Ir.Builder.add_block ~hint:(prefix ^ "latch") fs.builder in
  let exit_l = Ir.Builder.add_block ~hint:(prefix ^ "exit") fs.builder in
  Ir.Builder.terminate fs.builder (Ir.Instr.Jump head_l);
  Ir.Builder.set_current fs.builder head_l;
  (match cond with
   | Some c ->
     let v = lower_cond fs c in
     Ir.Builder.terminate fs.builder (Ir.Instr.Branch (v, body_l, exit_l))
   | None -> Ir.Builder.terminate fs.builder (Ir.Instr.Jump body_l));
  Ir.Builder.set_current fs.builder body_l;
  fs.loops <- { break_to = exit_l; continue_to = latch_l } :: fs.loops;
  fs.scopes <- [] :: fs.scopes;
  let body_open = lower_stmt fs body in
  (match fs.scopes with
   | _ :: rest -> fs.scopes <- rest
   | [] ->
     internal "scope stack underflow closing the body of loop %s"
       (Option.value ~default:"<anonymous>" label));
  (match fs.loops with
   | _ :: rest -> fs.loops <- rest
   | [] ->
     internal "loop stack underflow closing loop %s"
       (Option.value ~default:"<anonymous>" label));
  if body_open then Ir.Builder.terminate fs.builder (Ir.Instr.Jump latch_l);
  Ir.Builder.set_current fs.builder latch_l;
  (match step with
   | Some s -> ignore (lower_stmt fs s : bool)
   | None -> ());
  Ir.Builder.terminate fs.builder (Ir.Instr.Jump head_l);
  Ir.Builder.set_current fs.builder exit_l;
  true

let lower_func env (ret : Ast.ty) name (params : Ast.param list) body line =
  let ret_ty =
    match ret with
    | Ast.Tvoid -> None
    | Ast.Tint -> Some Ir.Types.I32
    | Ast.Tfloat -> Some Ir.Types.F32
  in
  let param_regs =
    List.map
      (fun (p : Ast.param) -> Ir.Instr.reg p.Ast.pname (scalar_ty line p.Ast.pty))
      params
  in
  let builder = Ir.Builder.create ~name ~params:param_regs ~ret:ret_ty in
  let entry = Ir.Builder.add_block ~hint:"entry" builder in
  Ir.Builder.set_current builder entry;
  let fs =
    { env; builder;
      scopes = [ List.map (fun (r : Ir.Instr.reg) -> r.Ir.Instr.id, r) param_regs ];
      loops = []; ret_ty }
  in
  let open_end = lower_stmts fs body in
  if open_end then begin
    let v =
      match ret_ty with
      | None -> None
      | Some Ir.Types.F32 -> Some (Ir.Instr.Imm_float 0.0)
      | Some (Ir.Types.I32 | Ir.Types.Bool) -> Some (Ir.Instr.Imm_int 0)
    in
    Ir.Builder.terminate builder (Ir.Instr.Return v)
  end;
  Ir.Builder.finish builder

let lower (items : Ast.program) =
  let env =
    { globals = Hashtbl.create 16;
      consts = Hashtbl.create 16;
      sigs = Hashtbl.create 16 }
  in
  (* Pass 1: consts, globals, signatures. *)
  List.iter
    (fun item ->
      match item with
      | Ast.Const { name; value; line } ->
        if Hashtbl.mem env.consts name then
          fail line "duplicate constant %s" name;
        Hashtbl.replace env.consts name (eval_const env value)
      | Ast.Global { ty; name; dims; line } ->
        if Hashtbl.mem env.globals name then
          fail line "duplicate global %s" name;
        let elem = scalar_ty line ty in
        let dims = List.map (eval_const env) dims in
        List.iter
          (fun d -> if d <= 0 then fail line "dimension of %s must be positive" name)
          dims;
        if dims = [] then fail line "global %s must be an array" name;
        Hashtbl.replace env.globals name { Ir.Program.gname = name; elem; dims }
      | Ast.Func { ret; name; params; line; _ } ->
        if Hashtbl.mem env.sigs name then
          fail line "duplicate function %s" name;
        let sig_ret =
          match ret with
          | Ast.Tvoid -> None
          | Ast.Tint -> Some Ir.Types.I32
          | Ast.Tfloat -> Some Ir.Types.F32
        in
        let sig_params =
          List.map (fun (p : Ast.param) -> scalar_ty line p.Ast.pty) params
        in
        Hashtbl.replace env.sigs name { sig_ret; sig_params })
    items;
  (* Pass 2: function bodies. *)
  let funcs =
    List.filter_map
      (fun item ->
        match item with
        | Ast.Func { ret; name; params; body; line } ->
          Some (lower_func env ret name params body line)
        | Ast.Const _ | Ast.Global _ -> None)
      items
  in
  let globals =
    List.filter_map
      (fun item ->
        match item with
        | Ast.Global { name; _ } -> Hashtbl.find_opt env.globals name
        | Ast.Const _ | Ast.Func _ -> None)
      items
  in
  Ir.Program.v ~globals ~funcs ~main:"main"

let m_programs = Obs.Metrics.counter "frontend.programs_compiled"
let m_funcs = Obs.Metrics.counter "frontend.functions_lowered"

let fp_parse = Obs.Faultpoint.register "parse"
let fp_lower = Obs.Faultpoint.register "lower"

let compile src =
  Obs.Trace.span ~cat:"frontend" "frontend.compile" (fun () ->
      let ast =
        Obs.Trace.span ~cat:"frontend" "frontend.parse" (fun () ->
            Obs.Faultpoint.hit fp_parse;
            Parser.parse src)
      in
      let program =
        Obs.Trace.span ~cat:"frontend" "frontend.lower" (fun () ->
            Obs.Faultpoint.hit fp_lower;
            lower ast)
      in
      let checked =
        Obs.Trace.span ~cat:"frontend" "frontend.validate" (fun () ->
            match Ir.Validate.check program with
            | Ok checked -> checked
            | Error errors ->
              let message =
                String.concat "; "
                  (List.map
                     (fun e -> Format.asprintf "%a" Ir.Validate.pp_error e)
                     errors)
              in
              raise
                (Diag.Error
                   { Diag.d_phase = "validate"; d_span = None;
                     d_message = "internal lowering error: " ^ message }))
      in
      Obs.Metrics.incr m_programs;
      Obs.Metrics.add m_funcs (List.length program.Ir.Program.funcs);
      checked)
