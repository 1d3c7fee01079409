type error = { where : string; message : string }

let err where fmt = Format.kasprintf (fun message -> { where; message }) fmt

let pp_error fmt e = Format.fprintf fmt "%s: %s" e.where e.message

(* Where an error sits: a function, or one of its blocks. The location
   string is built only for an error, not for every block checked. *)
type loc = In_func | In_block of string

let err_at (f : Func.t) loc fmt =
  match loc with
  | In_func -> err f.Func.name fmt
  | In_block label -> err (f.Func.name ^ "/" ^ label) fmt

(* Per-function checks that do not need data-flow: label uniqueness, branch
   targets, operand/instruction typing, global and call references. *)
let check_structure (p : Program.t) (cfg : Cfg.t) =
  let f = cfg.Cfg.func in
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let err w fmt = err_at f w fmt in
  if List.length f.Func.blocks <> cfg.Cfg.size then
    add (err In_func "duplicate block labels");
  (* Register typing: each register id must have a single type. *)
  let reg_ty = Cfg.String_tbl.create 64 in
  let note_reg w (r : Instr.reg) =
    match Cfg.String_tbl.find_opt reg_ty r.Instr.id with
    | None -> Cfg.String_tbl.replace reg_ty r.Instr.id r.Instr.ty
    | Some ty ->
      if not (Types.equal ty r.Instr.ty) then
        add
          (err w "register %%%s used at both %s and %s" r.Instr.id
             (Types.to_string ty)
             (Types.to_string r.Instr.ty))
  in
  List.iter (note_reg In_func) f.Func.params;
  let expect w what want (o : Instr.operand) =
    let got = Instr.operand_ty o in
    if not (Types.equal want got) then
      add
        (err w "%s: expected %s, got %s" what (Types.to_string want)
           (Types.to_string got))
  in
  let check_mem w (m : Instr.mem_ref) =
    (match Program.find_global p m.Instr.base with
     | Some _ -> ()
     | None -> add (err w "unknown global %s" m.Instr.base));
    expect w "memory index" Types.I32 m.Instr.index
  in
  let elem_ty (m : Instr.mem_ref) =
    match Program.find_global p m.Instr.base with
    | Some g -> Some g.Program.elem
    | None -> None
  in
  let check_instr w (i : Instr.t) =
    List.iter (note_reg w) (Instr.uses i);
    Option.iter (note_reg w) (Instr.def i);
    match i with
    | Instr.Assign (r, a) -> expect w "assign" r.Instr.ty a
    | Instr.Unary (r, op, a) ->
      let arg_ty, ret_ty = Op.un_sig op in
      expect w (Op.un_to_string op) arg_ty a;
      if not (Types.equal r.Instr.ty ret_ty) then
        add (err w "%s result must be %s" (Op.un_to_string op)
               (Types.to_string ret_ty))
    | Instr.Binary (r, op, a, b) ->
      let ty = Op.bin_operand_ty op in
      expect w (Op.bin_to_string op) ty a;
      expect w (Op.bin_to_string op) ty b;
      if not (Types.equal r.Instr.ty (Op.bin_result_ty op)) then
        add (err w "%s result type mismatch" (Op.bin_to_string op))
    | Instr.Compare (r, op, a, b) ->
      let ty = Op.cmp_operand_ty op in
      expect w (Op.cmp_to_string op) ty a;
      expect w (Op.cmp_to_string op) ty b;
      if not (Types.equal r.Instr.ty Types.Bool) then
        add (err w "compare result must be bool")
    | Instr.Select (r, c, a, b) ->
      expect w "select condition" Types.Bool c;
      expect w "select" r.Instr.ty a;
      expect w "select" r.Instr.ty b
    | Instr.Load (r, m) ->
      check_mem w m;
      (match elem_ty m with
       | Some ty when not (Types.equal ty r.Instr.ty) ->
         add (err w "load type mismatch on %s" m.Instr.base)
       | Some _ | None -> ())
    | Instr.Store (m, v) ->
      check_mem w m;
      (match elem_ty m with
       | Some ty -> expect w "store value" ty v
       | None -> ())
    | Instr.Call (r, callee, args) ->
      (match Program.find_func p callee with
       | None -> add (err w "unknown function %s" callee)
       | Some g ->
         if List.length args <> List.length g.Func.params then
           add (err w "call %s: arity mismatch" callee)
         else
           List.iter2
             (fun (param : Instr.reg) a ->
               expect w ("call " ^ callee) param.Instr.ty a)
             g.Func.params args;
         (match r, g.Func.ret with
          | Some r, Some ty when not (Types.equal r.Instr.ty ty) ->
            add (err w "call %s: result type mismatch" callee)
          | Some _, None -> add (err w "call %s: void result used" callee)
          | Some _, Some _ | None, (Some _ | None) -> ()))
  in
  let check_term w (t : Instr.term) =
    List.iter (note_reg w) (Instr.term_uses t);
    List.iter
      (fun s ->
        if Cfg.id_opt cfg s = None then
          add (err w "branch to unknown block %s" s))
      (Instr.term_succs t);
    match t with
    | Instr.Branch (c, _, _) ->
      if not (Types.equal (Instr.operand_ty c) Types.Bool) then
        add (err w "branch condition must be bool")
    | Instr.Return (Some v) ->
      (match f.Func.ret with
       | Some ty ->
         if not (Types.equal (Instr.operand_ty v) ty) then
           add (err w "return type mismatch")
       | None -> add (err w "value returned from void function"))
    | Instr.Return None ->
      (match f.Func.ret with
       | Some _ -> add (err w "missing return value")
       | None -> ())
    | Instr.Jump _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      let w = In_block b.Block.label in
      List.iter (check_instr w) b.Block.instrs;
      check_term w b.Block.term)
    f.Func.blocks;
  List.rev !errors

(* Reads of registers that may not be written yet on some path from the
   entry, over the one must-defined solution of the index. *)
let check_init (cfg : Cfg.t) md =
  let f = cfg.Cfg.func in
  let errors = ref [] in
  List.iter
    (fun (b : Block.t) ->
      let w = In_block b.Block.label in
      let defined =
        Cfg.Bits.copy
          (Cfg.Must_defined.at_entry md (Cfg.id cfg b.Block.label))
      in
      let check_use (r : Instr.reg) =
        let k = Cfg.Must_defined.reg md r.Instr.id in
        if k < 0 || not (Cfg.Bits.mem defined k) then
          errors :=
            err_at f w "register %%%s may be read before it is written"
              r.Instr.id
            :: !errors
      in
      List.iter
        (fun i ->
          List.iter check_use (Instr.uses i);
          match Instr.def i with
          | Some r -> Cfg.Bits.add defined (Cfg.Must_defined.reg md r.Instr.id)
          | None -> ())
        b.Block.instrs;
      List.iter check_use (Instr.term_uses b.Block.term))
    f.Func.blocks;
  List.rev !errors

type t = Cfg.program

let check (p : Program.t) =
  let indexed = Cfg.of_program p in
  let errors = ref [] in
  (match Program.find_func p p.Program.main with
   | None -> errors := [ err "program" "missing main function %s" p.Program.main ]
   | Some _ -> ());
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (g : Program.global) ->
      if Hashtbl.mem seen g.Program.gname then
        errors := err "program" "duplicate global %s" g.Program.gname :: !errors;
      Hashtbl.replace seen g.Program.gname ();
      if Program.global_size g <= 0 then
        errors := err g.Program.gname "global has non-positive size" :: !errors;
      (* program memory holds int and float cells only, and MiniC
         cannot declare a bool array *)
      if Types.equal g.Program.elem Types.Bool then
        errors := err g.Program.gname "global has bool elements" :: !errors)
    p.Program.globals;
  let fseen = Hashtbl.create 8 in
  List.iter2
    (fun (f : Func.t) index ->
      if Hashtbl.mem fseen f.Func.name then
        errors := err "program" "duplicate function %s" f.Func.name :: !errors;
      Hashtbl.replace fseen f.Func.name ();
      let func_errors =
        match index with
        | None -> [ err f.Func.name "function has no blocks" ]
        | Some (cfg, md) -> check_structure p cfg @ check_init cfg md
      in
      errors := List.rev_append func_errors !errors)
    p.Program.funcs indexed.Cfg.funcs;
  match List.rev !errors with
  | [] -> Ok indexed
  | es -> Error es

let check_exn p =
  match check p with
  | Ok checked -> checked
  | Error es ->
    let msg =
      String.concat "\n"
        (List.map (fun e -> Format.asprintf "%a" pp_error e) es)
    in
    invalid_arg ("Validate.check_exn:\n" ^ msg)

let program (t : t) = t.Cfg.program
