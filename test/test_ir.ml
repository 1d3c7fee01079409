(* Unit tests for the IR: builder, operators, validation, printing. *)

module Ir = Cayman_ir

let reg = Ir.Instr.reg

(* A minimal valid program: main calls f(3) and returns its double. *)
let valid_program () =
  let f =
    let b =
      Ir.Builder.create ~name:"f" ~params:[ reg "x" Ir.Types.I32 ]
        ~ret:(Some Ir.Types.I32)
    in
    let entry = Ir.Builder.add_block ~hint:"entry" b in
    Ir.Builder.set_current b entry;
    let y =
      Ir.Builder.binary b Ir.Op.Add
        (Ir.Instr.Reg (reg "x" Ir.Types.I32))
        (Ir.Instr.Imm_int 1)
    in
    Ir.Builder.terminate b (Ir.Instr.Return (Some (Ir.Instr.Reg y)));
    Ir.Builder.finish b
  in
  let main =
    let b = Ir.Builder.create ~name:"main" ~params:[] ~ret:(Some Ir.Types.I32) in
    let entry = Ir.Builder.add_block ~hint:"entry" b in
    Ir.Builder.set_current b entry;
    let r = Ir.Builder.fresh_reg ~hint:"r" b Ir.Types.I32 in
    Ir.Builder.emit b (Ir.Instr.Call (Some r, "f", [ Ir.Instr.Imm_int 3 ]));
    let d =
      Ir.Builder.binary b Ir.Op.Mul (Ir.Instr.Reg r) (Ir.Instr.Imm_int 2)
    in
    Ir.Builder.terminate b (Ir.Instr.Return (Some (Ir.Instr.Reg d)));
    Ir.Builder.finish b
  in
  Ir.Program.v
    ~globals:[ { Ir.Program.gname = "a"; elem = Ir.Types.F32; dims = [ 8 ] } ]
    ~funcs:[ f; main ] ~main:"main"

let check_valid () =
  match Ir.Validate.check (valid_program ()) with
  | Ok _ -> ()
  | Error es ->
    Alcotest.failf "expected valid, got %d errors: %s" (List.length es)
      (Format.asprintf "%a" Ir.Validate.pp_error (List.hd es))

(* The exact diagnostics, in order: a change to how the checks walk the
   program must not add, drop, reword or reorder a message. *)
let expect_invalid name p expected =
  match Ir.Validate.check p with
  | Ok _ -> Alcotest.failf "%s: expected validation failure" name
  | Error es ->
    Alcotest.(check (list string)) name expected
      (List.map (Format.asprintf "%a" Ir.Validate.pp_error) es)

(* Build a one-function program around a block list. *)
let program_of_blocks ?(globals = []) ?(params = []) ?ret blocks =
  let main = Ir.Func.v ~name:"main" ~params ~ret ~blocks in
  Ir.Program.v ~globals ~funcs:[ main ] ~main:"main"

let block label instrs term = Ir.Block.v ~label ~instrs ~term

let test_builder_entry_first () =
  let b = Ir.Builder.create ~name:"g" ~params:[] ~ret:None in
  let first = Ir.Builder.add_block ~hint:"one" b in
  let second = Ir.Builder.add_block ~hint:"two" b in
  Ir.Builder.set_current b second;
  Ir.Builder.terminate b (Ir.Instr.Return None);
  Ir.Builder.set_current b first;
  Ir.Builder.terminate b (Ir.Instr.Jump second);
  let f = Ir.Builder.finish b in
  Alcotest.(check string) "entry is the first added block" first
    (Ir.Func.entry f).Ir.Block.label

let test_builder_unterminated () =
  let b = Ir.Builder.create ~name:"g" ~params:[] ~ret:None in
  let _ = Ir.Builder.add_block b in
  (* finish must refuse: the block lacks a terminator *)
  Alcotest.check_raises "unterminated block"
    (Invalid_argument "Builder.finish: block bb0 of g not terminated")
    (fun () -> ignore (Ir.Builder.finish b : Ir.Func.t))

let test_builder_double_terminate () =
  let b = Ir.Builder.create ~name:"g" ~params:[] ~ret:None in
  let l = Ir.Builder.add_block b in
  Ir.Builder.set_current b l;
  Ir.Builder.terminate b (Ir.Instr.Return None);
  (match Ir.Builder.terminate b (Ir.Instr.Return None) with
   | () -> Alcotest.fail "second terminate must raise"
   | exception Invalid_argument _ -> ());
  (match Ir.Builder.emit b (Ir.Instr.Assign (reg "x" Ir.Types.I32, Ir.Instr.Imm_int 0)) with
   | () -> Alcotest.fail "emit after terminator must raise"
   | exception Invalid_argument _ -> ())

let test_missing_main () =
  let p =
    Ir.Program.v ~globals:[] ~funcs:[] ~main:"main"
  in
  expect_invalid "missing main" p
    [ "program: missing main function main" ]

let test_branch_to_unknown () =
  let p =
    program_of_blocks [ block "entry" [] (Ir.Instr.Jump "nowhere") ]
  in
  expect_invalid "branch to unknown label" p
    [ "main/entry: branch to unknown block nowhere" ]

let test_type_mismatch_binary () =
  let r = reg "x" Ir.Types.I32 in
  let p =
    program_of_blocks
      [ block "entry"
          [ Ir.Instr.Binary (r, Ir.Op.Fadd, Ir.Instr.Imm_int 1, Ir.Instr.Imm_int 2) ]
          (Ir.Instr.Return None) ]
  in
  expect_invalid "fadd on ints" p
    [ "main/entry: fadd: expected f32, got i32";
      "main/entry: fadd: expected f32, got i32";
      "main/entry: fadd result type mismatch" ]

let test_branch_condition_not_bool () =
  let p =
    program_of_blocks
      [ block "entry" []
          (Ir.Instr.Branch (Ir.Instr.Imm_int 1, "entry", "entry")) ]
  in
  expect_invalid "int branch condition" p
    [ "main/entry: branch condition must be bool" ]

let test_unknown_global () =
  let r = reg "x" Ir.Types.F32 in
  let p =
    program_of_blocks
      [ block "entry"
          [ Ir.Instr.Load (r, { Ir.Instr.base = "ghost"; index = Ir.Instr.Imm_int 0 }) ]
          (Ir.Instr.Return None) ]
  in
  expect_invalid "unknown global" p
    [ "main/entry: unknown global ghost" ]

(* Memory has no bool cells, so a bool-element global is refused here
   rather than faulting at its first store. *)
let test_bool_global () =
  let c = reg "c" Ir.Types.Bool and v = reg "v" Ir.Types.Bool in
  let flag = { Ir.Instr.base = "flags"; index = Ir.Instr.Imm_int 0 } in
  let g = { Ir.Program.gname = "flags"; elem = Ir.Types.Bool; dims = [ 4 ] } in
  let p =
    program_of_blocks ~globals:[ g ]
      [ block "entry"
          [ Ir.Instr.Compare
              (c, Ir.Op.Lt, Ir.Instr.Imm_int 1, Ir.Instr.Imm_int 2);
            Ir.Instr.Store (flag, Ir.Instr.Reg c);
            Ir.Instr.Load (v, flag) ]
          (Ir.Instr.Return None) ]
  in
  expect_invalid "bool global" p [ "flags: global has bool elements" ]

let test_load_type_mismatch () =
  let r = reg "x" Ir.Types.I32 in
  let g = { Ir.Program.gname = "a"; elem = Ir.Types.F32; dims = [ 4 ] } in
  let p =
    program_of_blocks ~globals:[ g ]
      [ block "entry"
          [ Ir.Instr.Load (r, { Ir.Instr.base = "a"; index = Ir.Instr.Imm_int 0 }) ]
          (Ir.Instr.Return None) ]
  in
  expect_invalid "int load from float array" p
    [ "main/entry: load type mismatch on a" ]

let test_register_retyped () =
  let p =
    program_of_blocks
      [ block "entry"
          [ Ir.Instr.Assign (reg "x" Ir.Types.I32, Ir.Instr.Imm_int 0);
            Ir.Instr.Assign (reg "x" Ir.Types.F32, Ir.Instr.Imm_float 0.0) ]
          (Ir.Instr.Return None) ]
  in
  expect_invalid "register used at two types" p
    [ "main/entry: register %x used at both i32 and f32" ]

let test_read_before_write () =
  let x = reg "x" Ir.Types.I32 in
  let y = reg "y" Ir.Types.I32 in
  let p =
    program_of_blocks
      [ block "entry"
          [ Ir.Instr.Assign (y, Ir.Instr.Reg x) ]
          (Ir.Instr.Return None) ]
  in
  expect_invalid "read before write" p
    [ "main/entry: register %x may be read before it is written" ]

let test_read_before_write_one_path () =
  (* x defined on the then-path only; the join reads it. *)
  let c = reg "c" Ir.Types.Bool in
  let x = reg "x" Ir.Types.I32 in
  let y = reg "y" Ir.Types.I32 in
  let p =
    program_of_blocks
      [ block "entry"
          [ Ir.Instr.Compare (c, Ir.Op.Eq, Ir.Instr.Imm_int 0, Ir.Instr.Imm_int 0) ]
          (Ir.Instr.Branch (Ir.Instr.Reg c, "yes", "join"));
        block "yes"
          [ Ir.Instr.Assign (x, Ir.Instr.Imm_int 1) ]
          (Ir.Instr.Jump "join");
        block "join"
          [ Ir.Instr.Assign (y, Ir.Instr.Reg x) ]
          (Ir.Instr.Return None) ]
  in
  expect_invalid "maybe-uninitialized at join" p
    [ "main/join: register %x may be read before it is written" ]

let test_defined_on_all_paths_ok () =
  let c = reg "c" Ir.Types.Bool in
  let x = reg "x" Ir.Types.I32 in
  let y = reg "y" Ir.Types.I32 in
  let p =
    program_of_blocks
      [ block "entry"
          [ Ir.Instr.Compare (c, Ir.Op.Eq, Ir.Instr.Imm_int 0, Ir.Instr.Imm_int 0) ]
          (Ir.Instr.Branch (Ir.Instr.Reg c, "yes", "no"));
        block "yes"
          [ Ir.Instr.Assign (x, Ir.Instr.Imm_int 1) ]
          (Ir.Instr.Jump "join");
        block "no"
          [ Ir.Instr.Assign (x, Ir.Instr.Imm_int 2) ]
          (Ir.Instr.Jump "join");
        block "join"
          [ Ir.Instr.Assign (y, Ir.Instr.Reg x) ]
          (Ir.Instr.Return None) ]
  in
  match Ir.Validate.check p with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "defined on all paths should validate"

let test_call_arity () =
  let p = valid_program () in
  let broken_main =
    Ir.Func.v ~name:"main" ~params:[] ~ret:(Some Ir.Types.I32)
      ~blocks:
        [ block "entry"
            [ Ir.Instr.Call (Some (reg "r" Ir.Types.I32), "f", []) ]
            (Ir.Instr.Return (Some (Ir.Instr.Imm_int 0))) ]
  in
  let p =
    Ir.Program.v ~globals:p.Ir.Program.globals
      ~funcs:[ Ir.Program.func_exn p "f"; broken_main ]
      ~main:"main"
  in
  expect_invalid "arity mismatch" p
    [ "main/entry: call f: arity mismatch" ]

let test_duplicate_labels () =
  let p =
    program_of_blocks
      [ block "entry" [] (Ir.Instr.Jump "entry");
        block "entry" [] (Ir.Instr.Return None) ]
  in
  expect_invalid "duplicate labels" p
    [ "main: duplicate block labels" ]

(* Ill-formed programs whose diagnostics pin the corners of the
   must-defined analysis and the order of the messages. *)
let diagnostics_table =
  let i32 = Ir.Types.I32 in
  let x = reg "x" i32 and y = reg "y" i32 and z = reg "z" i32 in
  let c = reg "c" Ir.Types.Bool in
  let set r v = Ir.Instr.Assign (r, Ir.Instr.Imm_int v) in
  let copy r s = Ir.Instr.Assign (r, Ir.Instr.Reg s) in
  let cmp = Ir.Instr.Compare (c, Ir.Op.Eq, Ir.Instr.Imm_int 0, Ir.Instr.Imm_int 0) in
  let ret = Ir.Instr.Return None in
  let jump l = Ir.Instr.Jump l in
  let branch t e = Ir.Instr.Branch (Ir.Instr.Reg c, t, e) in
  [ (* a duplicated label is one node: its in-set comes from every edge
       to the label, and its out-set from the first block's definitions *)
    ( "duplicate label dataflow",
      program_of_blocks
        [ block "entry" [] (jump "a");
          block "a" [ set x 1 ] (jump "b");
          block "a" [ copy y x ] ret;
          block "b" [ copy z y ] ret ] );
    (* a block without predecessors starts from the parameters; an
       unreachable cycle keeps every register *)
    ( "unreachable blocks",
      program_of_blocks ~params:[ z ]
        [ block "entry" [ set x 1 ] ret;
          block "dead" [ copy y x; copy y z ] ret;
          block "u1" [ copy y x ] (jump "u2");
          block "u2" [ copy y x ] (jump "u1") ] );
    (* a register defined in the loop body is not defined at the header *)
    ( "loop-carried read",
      program_of_blocks
        [ block "entry" [ cmp ] (jump "head");
          block "head" [ copy y x ] (branch "body" "exit");
          block "body" [ set x 1 ] (jump "head");
          block "exit" [] ret ] );
    (* a function's messages come out in the order found: structure
       before dataflow, earlier blocks before later ones *)
    ( "message order",
      program_of_blocks ~ret:i32
        [ block "entry" [ copy y x; cmp ] (branch "a" "nowhere");
          block "a"
            [ Ir.Instr.Binary (z, Ir.Op.Fadd, Ir.Instr.Imm_int 1, Ir.Instr.Reg y) ]
            (Ir.Instr.Return (Some (Ir.Instr.Reg (reg "w" i32)))) ] );
    (* program-level errors: main first, then globals, then each function
       in order with its duplicate-name error ahead of its own errors *)
    ( "program-level order",
      Ir.Program.v
        ~globals:
          [ { Ir.Program.gname = "g"; elem = Ir.Types.F32; dims = [ 0 ] };
            { Ir.Program.gname = "g"; elem = Ir.Types.F32; dims = [ 2 ] } ]
        ~funcs:
          [ Ir.Func.v ~name:"f" ~params:[] ~ret:None ~blocks:[];
            Ir.Func.v ~name:"f" ~params:[] ~ret:None
              ~blocks:[ block "entry" [ copy y x ] ret ] ]
        ~main:"main" ) ]

let test_diagnostics_table () =
  List.iter2
    (fun (name, p) expected -> expect_invalid name p expected)
    diagnostics_table
    [ [ "main: duplicate block labels";
        "main/a: register %x may be read before it is written";
        "main/b: register %y may be read before it is written" ];
      [ "main/dead: register %x may be read before it is written" ];
      [ "main/head: register %x may be read before it is written" ];
      [ "main/entry: branch to unknown block nowhere";
        "main/a: fadd: expected f32, got i32";
        "main/a: fadd: expected f32, got i32";
        "main/a: fadd result type mismatch";
        "main/entry: register %x may be read before it is written";
        "main/a: register %w may be read before it is written" ];
      [ "program: missing main function main";
        "g: global has non-positive size";
        "program: duplicate global g";
        "f: function has no blocks";
        "program: duplicate function f";
        "f/entry: register %x may be read before it is written" ] ]

let test_printer_shapes () =
  let p = valid_program () in
  let s = Ir.Program.to_string p in
  List.iter
    (fun needle ->
      if not (Testutil.contains s needle) then
        Alcotest.failf "printer output missing %S in:\n%s" needle s)
    [ "func f"; "func main"; "global f32 a[8]"; "return" ]

let test_instr_defs_uses () =
  let x = reg "x" Ir.Types.I32 and y = reg "y" Ir.Types.I32 in
  let i = Ir.Instr.Binary (x, Ir.Op.Add, Ir.Instr.Reg y, Ir.Instr.Imm_int 1) in
  Alcotest.(check (option string)) "def" (Some "x")
    (Option.map (fun (r : Ir.Instr.reg) -> r.Ir.Instr.id) (Ir.Instr.def i));
  Alcotest.(check (list string)) "uses" [ "y" ]
    (List.map (fun (r : Ir.Instr.reg) -> r.Ir.Instr.id) (Ir.Instr.uses i));
  let st =
    Ir.Instr.Store
      ({ Ir.Instr.base = "a"; index = Ir.Instr.Reg x }, Ir.Instr.Reg y)
  in
  Alcotest.(check (list string)) "store uses" [ "x"; "y" ]
    (List.map (fun (r : Ir.Instr.reg) -> r.Ir.Instr.id) (Ir.Instr.uses st));
  Alcotest.(check bool) "store has no def" true (Ir.Instr.def st = None)

let test_unit_kinds_cover_ops () =
  (* every binary/compare/unary op maps to some datapath unit *)
  let bins =
    [ Ir.Op.Add; Ir.Op.Sub; Ir.Op.Mul; Ir.Op.Div; Ir.Op.Rem; Ir.Op.And;
      Ir.Op.Or; Ir.Op.Xor; Ir.Op.Shl; Ir.Op.Shr; Ir.Op.Fadd; Ir.Op.Fsub;
      Ir.Op.Fmul; Ir.Op.Fdiv ]
  in
  List.iter
    (fun op ->
      let k = Ir.Op.unit_of_bin op in
      Alcotest.(check bool)
        (Ir.Op.bin_to_string op ^ " has a unit kind")
        true
        (List.mem k Ir.Op.all_unit_kinds))
    bins

(* Index bitsets span several words: registers and, after
   if-conversion, blocks outnumber one word's 63 members. *)
let qcheck_bits =
  let module B = Ir.Cfg.Bits in
  let n = 200 in
  let elems = QCheck.(small_list (int_bound (n - 1))) in
  let gen = QCheck.pair elems elems in
  Testutil.qtest ~count:200 "index bitsets match integer lists" gen
    (fun (xs, ys) ->
      let set l =
        let s = B.create n in
        List.iter (B.add s) l;
        s
      in
      let a = set xs and b = set ys in
      let elems s =
        let acc = ref [] in
        B.iter (fun i -> acc := i :: !acc) s;
        List.rev !acc
      in
      let sorted l = List.sort_uniq compare l in
      let inter = List.filter (fun x -> List.mem x ys) (sorted xs) in
      let without_first =
        match xs with
        | [] -> a
        | x :: _ ->
          let c = B.copy a in
          B.remove c x;
          c
      in
      elems a = sorted xs
      && B.cardinal a = List.length (sorted xs)
      && List.for_all (fun i -> B.mem a i = List.mem i xs) (List.init n Fun.id)
      && elems (B.inter a b) = inter
      && B.subset a b = List.for_all (fun x -> List.mem x ys) xs
      && B.disjoint a b = (inter = [])
      && B.equal a b = (sorted xs = sorted ys)
      && B.is_empty a = (xs = [])
      && elems without_first
         = (match xs with [] -> [] | x :: _ -> List.filter (( <> ) x) (sorted xs)))

let tests =
  [ Alcotest.test_case "valid program validates" `Quick check_valid;
    Alcotest.test_case "builder entry is first block" `Quick
      test_builder_entry_first;
    Alcotest.test_case "builder rejects unterminated block" `Quick
      test_builder_unterminated;
    Alcotest.test_case "builder rejects double terminate" `Quick
      test_builder_double_terminate;
    Alcotest.test_case "missing main rejected" `Quick test_missing_main;
    Alcotest.test_case "branch to unknown label rejected" `Quick
      test_branch_to_unknown;
    Alcotest.test_case "fadd on ints rejected" `Quick test_type_mismatch_binary;
    Alcotest.test_case "int branch condition rejected" `Quick
      test_branch_condition_not_bool;
    Alcotest.test_case "unknown global rejected" `Quick test_unknown_global;
    Alcotest.test_case "bool-element global rejected" `Quick test_bool_global;
    Alcotest.test_case "load type mismatch rejected" `Quick
      test_load_type_mismatch;
    Alcotest.test_case "register retyping rejected" `Quick test_register_retyped;
    Alcotest.test_case "read before write rejected" `Quick
      test_read_before_write;
    Alcotest.test_case "one-path definition rejected" `Quick
      test_read_before_write_one_path;
    Alcotest.test_case "all-path definition accepted" `Quick
      test_defined_on_all_paths_ok;
    Alcotest.test_case "call arity mismatch rejected" `Quick test_call_arity;
    Alcotest.test_case "duplicate labels rejected" `Quick test_duplicate_labels;
    Alcotest.test_case "diagnostics of ill-formed programs" `Quick
      test_diagnostics_table;
    Alcotest.test_case "printer mentions program parts" `Quick
      test_printer_shapes;
    Alcotest.test_case "instr defs and uses" `Quick test_instr_defs_uses;
    Alcotest.test_case "unit kinds cover all binops" `Quick
      test_unit_kinds_cover_ops;
    qcheck_bits ]
