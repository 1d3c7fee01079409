(* Tests for the CFG analyses: dominance, loops, SESE regions / PST,
   wPST, liveness. *)

module Ir = Cayman_ir
module An = Cayman_analysis

(* A diamond CFG with a loop around it:
     entry -> head
     head -> a | exit
     a -> b | c ;  b -> join ; c -> join ; join -> head (latch)
*)
let diamond_loop_func () =
  let reg = Ir.Instr.reg in
  let c = reg "c" Ir.Types.Bool in
  let i = reg "i" Ir.Types.I32 in
  let block label instrs term = Ir.Block.v ~label ~instrs ~term in
  Ir.Func.v ~name:"main" ~params:[] ~ret:None
    ~blocks:
      [ block "entry"
          [ Ir.Instr.Assign (i, Ir.Instr.Imm_int 0) ]
          (Ir.Instr.Jump "head");
        block "head"
          [ Ir.Instr.Compare (c, Ir.Op.Lt, Ir.Instr.Reg i, Ir.Instr.Imm_int 10) ]
          (Ir.Instr.Branch (Ir.Instr.Reg c, "a", "exit"));
        block "a"
          [ Ir.Instr.Compare (c, Ir.Op.Eq, Ir.Instr.Reg i, Ir.Instr.Imm_int 3) ]
          (Ir.Instr.Branch (Ir.Instr.Reg c, "b", "cc"));
        block "b" [] (Ir.Instr.Jump "join");
        block "cc" [] (Ir.Instr.Jump "join");
        block "join"
          [ Ir.Instr.Binary (i, Ir.Op.Add, Ir.Instr.Reg i, Ir.Instr.Imm_int 1) ]
          (Ir.Instr.Jump "head");
        block "exit" [] (Ir.Instr.Return None) ]

(* Label-level reads of the index's dominator tree ([post = false]) or
   postdominator tree, whose virtual exit is labelled "<exit>". *)
let virtual_exit = "<exit>"

let node cfg ~post l =
  if post && String.equal l virtual_exit then Some (Ir.Cfg.exit_node cfg)
  else Ir.Cfg.id_opt cfg l

(* Reflexive; [false] when either node is absent from the tree. The
   index keeps depths for the dominator tree only, so the postdominator
   tree is walked up its parents. *)
let dominates cfg ~post a b =
  match node cfg ~post a, node cfg ~post b with
  | Some a, Some b when not post -> Ir.Cfg.dominates cfg a b
  | Some a, Some b ->
    let up = cfg.Ir.Cfg.ipdom in
    let rec above v = v = a || (up.(v) <> v && above up.(v)) in
    up.(a) >= 0 && up.(b) >= 0 && above b
  | None, _ | _, None -> false

let idom cfg ~post l =
  match node cfg ~post l with
  | None -> None
  | Some v ->
    let p = (if post then cfg.Ir.Cfg.ipdom else cfg.Ir.Cfg.idom).(v) in
    if p < 0 || p = v then None
    else if post && p = Ir.Cfg.exit_node cfg then Some virtual_exit
    else Some cfg.Ir.Cfg.labels.(p)

let test_dominators () =
  let f = diamond_loop_func () in
  let cfg = Ir.Cfg.of_func f in
  let idom = idom cfg ~post:false and dominates = dominates cfg ~post:false in
  Alcotest.(check (option string)) "idom head" (Some "entry") (idom "head");
  Alcotest.(check (option string)) "idom a" (Some "head") (idom "a");
  Alcotest.(check (option string)) "idom b" (Some "a") (idom "b");
  Alcotest.(check (option string)) "idom join" (Some "a") (idom "join");
  Alcotest.(check (option string)) "idom exit" (Some "head") (idom "exit");
  Alcotest.(check (option string)) "entry has no idom" None (idom "entry");
  Alcotest.(check bool) "entry dominates all" true
    (List.for_all (dominates "entry") (Ir.Func.labels f));
  Alcotest.(check bool) "dominance is reflexive" true
    (dominates "a" "a");
  Alcotest.(check bool) "b does not dominate join" false
    (dominates "b" "join")

let test_postdominators () =
  let f = diamond_loop_func () in
  let dominates = dominates (Ir.Cfg.of_func f) ~post:true in
  Alcotest.(check bool) "exit postdominates head" true
    (dominates "exit" "head");
  Alcotest.(check bool) "join postdominates a" true
    (dominates "join" "a");
  Alcotest.(check bool) "b does not postdominate a" false
    (dominates "b" "a")

let test_natural_loops () =
  let loops = An.Loops.of_cfg (Ir.Cfg.of_func (diamond_loop_func ())) in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check string) "header" "head" l.An.Loops.header;
  Alcotest.(check (list string)) "latches" [ "join" ] l.An.Loops.latches;
  Alcotest.(check int) "loop blocks" 5
    (An.Loops.String_set.cardinal l.An.Loops.blocks);
  Alcotest.(check (option string)) "preheader" (Some "entry")
    l.An.Loops.preheader;
  Alcotest.(check bool) "exit edge head->exit" true
    (List.mem ("head", "exit") l.An.Loops.exits);
  Alcotest.(check bool) "innermost" true (An.Loops.is_innermost loops l)

let test_nested_loops () =
  let _, res, program =
    Testutil.compile_run
      {|const int N = 4;
        int a[N];
        int main() {
          for (int i = 0; i < N; i++) {
            for (int j = 0; j < N; j++) { a[j] = i + j; }
          }
          return a[0];
        }|}
  in
  ignore res;
  let loops = An.Loops.of_cfg (Testutil.cfg_of program "main") in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let inner =
    List.find (fun l -> An.Loops.is_innermost loops l) loops
  in
  let outer =
    List.find (fun l -> not (An.Loops.is_innermost loops l)) loops
  in
  Alcotest.(check (option string)) "inner parent" (Some outer.An.Loops.header)
    inner.An.Loops.parent;
  Alcotest.(check int) "outer depth" 1 (An.Loops.depth loops outer);
  Alcotest.(check int) "inner depth" 2 (An.Loops.depth loops inner)

(* PST invariants checked on every suite benchmark's functions:
   1. children of a region are disjoint and contained in the parent;
   2. every block of a region is covered by exactly one child (partition),
      counting bb leaves;
   3. ids are unique. *)
let check_pst_invariants index =
  let cfg, _ = Option.get index in
  let f = cfg.Ir.Cfg.func in
  let root = An.Region.pst_of_cfg cfg in
  let ids = Hashtbl.create 64 in
  An.Region.iter
    (fun r ->
      if Hashtbl.mem ids r.An.Region.id then
        Alcotest.failf "duplicate region id %d in %s" r.An.Region.id
          f.Ir.Func.name;
      Hashtbl.replace ids r.An.Region.id ())
    root;
  An.Region.iter
    (fun r ->
      match r.An.Region.kind with
      | An.Region.Basic_block -> ()
      | An.Region.Whole_function | An.Region.Loop_region | An.Region.Cond_region ->
        let covered = ref An.Region.String_set.empty in
        List.iter
          (fun c ->
            if
              not
                (An.Region.String_set.subset c.An.Region.blocks
                   r.An.Region.blocks)
            then
              Alcotest.failf "%s: child %s escapes parent %s" f.Ir.Func.name
                (An.Region.name c) (An.Region.name r);
            if
              not
                (An.Region.String_set.is_empty
                   (An.Region.String_set.inter !covered c.An.Region.blocks))
            then
              Alcotest.failf "%s: overlapping children under %s"
                f.Ir.Func.name (An.Region.name r);
            covered := An.Region.String_set.union !covered c.An.Region.blocks)
          r.An.Region.children;
        if not (An.Region.String_set.equal !covered r.An.Region.blocks) then
          Alcotest.failf "%s: children of %s do not cover it" f.Ir.Func.name
            (An.Region.name r))
    root

let test_pst_invariants_suite () =
  List.iter
    (fun (b : Cayman_suites.Suite.benchmark) ->
      let program = (Cayman_suites.Suite.compile b :> Ir.Cfg.program) in
      List.iter check_pst_invariants program.Ir.Cfg.funcs)
    Cayman_suites.Suite.all

let test_pst_loop_kinds () =
  let program =
    Cayman_frontend.Lower.compile
      {|const int N = 4;
        int a[N];
        int main() {
          for (int i = 0; i < N; i++) { a[i] = i; }
          if (a[0] > 1) { a[1] = 0; } else { a[2] = 0; }
          return a[1];
        }|}
  in
  let root =
    An.Region.pst_of_cfg
      (Testutil.cfg_of (program :> Ir.Cfg.program) "main")
  in
  let kinds = ref [] in
  An.Region.iter (fun r -> kinds := r.An.Region.kind :: !kinds) root;
  Alcotest.(check bool) "has a loop region" true
    (List.mem An.Region.Loop_region !kinds);
  Alcotest.(check bool) "has a cond region" true
    (List.mem An.Region.Cond_region !kinds);
  Alcotest.(check bool) "has bb regions" true
    (List.mem An.Region.Basic_block !kinds)

let test_wpst_reachability () =
  let program =
    Cayman_frontend.Lower.compile
      {|int used() { return 1; }
        int dead() { return 2; }
        int main() { return used(); }|}
  in
  let names = An.Wpst.reachable_funcs (Ir.Validate.program program) in
  Alcotest.(check (list string)) "main first, dead excluded"
    [ "main"; "used" ] names;
  let wpst = An.Wpst.build (program :> Ir.Cfg.program) in
  Alcotest.(check int) "two function trees" 2 (List.length wpst.An.Wpst.funcs);
  Alcotest.(check bool) "region lookup works" true
    (An.Wpst.region wpst { An.Wpst.vfunc = "main"; vid = 0 } <> None)

let test_liveness () =
  let cfg = Ir.Cfg.of_func (diamond_loop_func ()) in
  let live = An.Liveness.compute cfg (Ir.Cfg.Must_defined.solve cfg) in
  (* i is live around the loop: live into head, a, join. *)
  List.iter
    (fun label ->
      Alcotest.(check bool)
        ("i live into " ^ label)
        true
        (An.Liveness.live_in live label "i"))
    [ "head"; "a"; "join" ];
  Alcotest.(check bool) "i dead into exit" false
    (An.Liveness.live_in live "exit" "i");
  Alcotest.(check bool) "c not live into entry" false
    (An.Liveness.live_in live "entry" "c")

(* Dominance sanity on every suite benchmark: entry dominates all
   reachable blocks; idom depth decreases. *)
let test_dominance_suite_properties () =
  List.iter
    (fun name ->
      let b = Cayman_suites.Suite.find_exn name in
      let program = (Cayman_suites.Suite.compile b :> Ir.Cfg.program) in
      List.iter
        (fun index ->
          let cfg, _ = Option.get index in
          Array.iteri
            (fun v p ->
              if p >= 0 then begin
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s entry dominates %s" name
                     cfg.Ir.Cfg.func.Ir.Func.name cfg.Ir.Cfg.labels.(v))
                  true
                  (Ir.Cfg.dominates cfg 0 v);
                if p <> v then
                  Alcotest.(check bool) "idom strictly dominates" true
                    (Ir.Cfg.dominates cfg p v)
              end)
            cfg.Ir.Cfg.idom)
        program.Ir.Cfg.funcs)
    [ "3mm"; "nw"; "zip-test"; "fft" ]

(* --- oracles: dominance and SESE checked straight from the CFG --- *)

(* Labels reachable from [roots] along [next], never entering [cut]. *)
let reach ~next ~cut roots =
  let seen = Hashtbl.create 16 in
  let rec go l =
    if (not (Hashtbl.mem seen l)) && not (String.equal l cut) then begin
      Hashtbl.replace seen l ();
      List.iter go (next l)
    end
  in
  List.iter go roots;
  seen

(* [a] dominates [b] iff [b] is reachable from the root and stops being
   so once [a] is removed (or is [a]). *)
let dominance_matches ~what cfg ~post ~nodes ~root ~next =
  let reachable = reach ~next ~cut:"" [ root ] in
  let without = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace without a (reach ~next ~cut:a [ root ])) nodes;
  let dom a b =
    Hashtbl.mem reachable b
    && (String.equal a b || not (Hashtbl.mem (Hashtbl.find without a) b))
  in
  List.for_all
    (fun b ->
      List.for_all
        (fun a ->
          dominates cfg ~post a b = dom a b
          || QCheck.Test.fail_reportf "%s: dominates %s %s" what a b)
        nodes
      &&
      match idom cfg ~post b with
      | None ->
        (* only the root and unreachable nodes have none *)
        String.equal b root || not (Hashtbl.mem reachable b)
        || QCheck.Test.fail_reportf "%s: no idom for %s" what b
      | Some p ->
        (* the closest strict dominator: every other one dominates it *)
        (dom p b && not (String.equal p b)
         && List.for_all
              (fun a -> String.equal a b || (not (dom a b)) || dom a p)
              nodes)
        || QCheck.Test.fail_reportf "%s: idom %s = %s" what b p)
    nodes

let succs_of (f : Ir.Func.t) l =
  match Ir.Func.find_block f l with
  | Some b -> List.filter (fun s -> Ir.Func.find_block f s <> None) (Ir.Block.succs b)
  | None -> []

let dominance_oracle (f : Ir.Func.t) =
  let labels = Ir.Func.labels f in
  let entry = (Ir.Func.entry f).Ir.Block.label in
  let exit = virtual_exit in
  let returning =
    List.filter_map
      (fun (b : Ir.Block.t) ->
        match b.Ir.Block.term with
        | Ir.Instr.Return _ -> Some b.Ir.Block.label
        | Ir.Instr.Jump _ | Ir.Instr.Branch _ -> None)
      f.Ir.Func.blocks
  in
  let preds_of l = List.filter (fun p -> List.mem l (succs_of f p)) labels in
  let cfg = Ir.Cfg.of_func f in
  dominance_matches ~what:"dom" cfg ~post:false ~nodes:labels
    ~root:entry ~next:(succs_of f)
  && dominance_matches ~what:"pdom" cfg ~post:true
       ~nodes:(exit :: labels) ~root:exit
       ~next:(fun l -> if String.equal l exit then returning else preds_of l)

(* Every loop and conditional region is single-entry single-exit:
   edges from outside reach only its entry, edges from inside leave
   only to its exit. *)
let sese_oracle (f : Ir.Func.t) =
  let ok = ref true in
  An.Region.iter
    (fun (r : An.Region.t) ->
      if An.Region.is_ctrl_flow r then begin
        let inside l = An.Region.String_set.mem l r.An.Region.blocks in
        List.iter
          (fun (b : Ir.Block.t) ->
            let x = b.Ir.Block.label in
            List.iter
              (fun s ->
                let entry = r.An.Region.entry and exit = r.An.Region.exit in
                if (not (inside x)) && inside s && not (String.equal s entry)
                then ok := false;
                if inside x && (not (inside s)) && Some s <> exit then
                  ok := false)
              (succs_of f x))
          f.Ir.Func.blocks
      end)
    (Testutil.pst f);
  !ok || QCheck.Test.fail_reportf "%s: a region is not SESE" f.Ir.Func.name

let cfg_oracles f = dominance_oracle f && sese_oracle f

let qcheck_oracles_ir_funcs =
  Testutil.qtest ~count:200 "dominance and SESE oracles on generated CFGs"
    Fleet.Genprog.arb_ir_func cfg_oracles

let qcheck_oracles_programs =
  Testutil.qtest ~count:40 "dominance and SESE oracles on random programs"
    Test_random.arb_prog (fun p ->
      match Test_random.compile_ok (Test_random.prog_to_minic p) with
      | Error m -> QCheck.Test.fail_report m
      | Ok program ->
        let converted =
          An.Simplify.merge_chains (An.Ifconv.run (program :> Ir.Cfg.program))
        in
        List.for_all cfg_oracles
          ((Ir.Validate.program program).Ir.Program.funcs
           @ converted.Ir.Program.funcs))

let tests =
  [ Alcotest.test_case "dominators on diamond loop" `Quick test_dominators;
    Alcotest.test_case "postdominators" `Quick test_postdominators;
    Alcotest.test_case "natural loop detection" `Quick test_natural_loops;
    Alcotest.test_case "nested loop structure" `Quick test_nested_loops;
    Alcotest.test_case "PST invariants on all 28 benchmarks" `Slow
      test_pst_invariants_suite;
    Alcotest.test_case "PST region kinds" `Quick test_pst_loop_kinds;
    Alcotest.test_case "wPST reachability" `Quick test_wpst_reachability;
    Alcotest.test_case "liveness on diamond loop" `Quick test_liveness;
    Alcotest.test_case "dominance properties on benchmarks" `Quick
      test_dominance_suite_properties;
    qcheck_oracles_ir_funcs;
    qcheck_oracles_programs ]
