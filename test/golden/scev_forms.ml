(* Prints what scalar evolution derives for a fixed set of programs, so
   a change to how induction variables are found or address forms are
   built shows up as a reviewed diff:

     func <program> <func>
     iv <reg> loop=<header> step=<n>
     access <block>:<pos> <base> <form> <pattern>

   The programs are those of `cfg_facts.ml` (the 28 Table II benchmarks
   and the 32 generated programs of fleet seed 1000), each if-converted
   and chain-merged as [Core.Cayman.analyze] sees it. Induction
   variables are listed by register name; accesses in block order, then
   instruction order. *)

module Ir = Cayman_ir
module An = Cayman_analysis

let print_func name (cfg : Ir.Cfg.t) =
  let f = cfg.Ir.Cfg.func in
  Printf.printf "func %s %s\n" name f.Ir.Func.name;
  let scev = An.Scev.create f (An.Loops.of_cfg cfg) in
  let regs =
    List.concat_map
      (fun (b : Ir.Block.t) ->
        List.filter_map
          (fun i -> Option.map (fun (r : Ir.Instr.reg) -> r.Ir.Instr.id) (Ir.Instr.def i))
          b.Ir.Block.instrs)
      f.Ir.Func.blocks
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun rid ->
      Option.iter
        (fun (iv : An.Scev.iv_info) ->
          Printf.printf "iv %s loop=%s step=%d\n" rid iv.An.Scev.iv_loop
            iv.An.Scev.step)
        (An.Scev.iv_of scev rid))
    regs;
  List.iter
    (fun (b : Ir.Block.t) ->
      let block = b.Ir.Block.label in
      List.iteri
        (fun pos i ->
          Option.iter
            (fun (m : Ir.Instr.mem_ref) ->
              Format.printf "access %s:%d %s %a %s@." block pos m.Ir.Instr.base
                An.Scev.pp_form (An.Scev.access_form scev ~block ~pos)
                (An.Scev.pattern_to_string (An.Scev.classify scev ~block ~pos)))
            (Ir.Instr.mem_ref_of i))
        b.Ir.Block.instrs)
    f.Ir.Func.blocks

let print_program name (p : Ir.Validate.t) =
  let p =
    Ir.Validate.check_exn
      (An.Simplify.merge_chains (An.Ifconv.run (p :> Ir.Cfg.program)))
  in
  List.iter
    (Option.iter (fun (cfg, _) -> print_func name cfg))
    (p :> Ir.Cfg.program).Ir.Cfg.funcs

let () =
  List.iter
    (fun (b : Cayman_suites.Suite.benchmark) ->
      print_program b.Cayman_suites.Suite.name (Cayman_suites.Suite.compile b))
    Cayman_suites.Suite.all;
  for index = 0 to 31 do
    print_program
      (Fleet.Genprog.program_name index)
      (Cayman_frontend.Lower.compile
         (Fleet.Genprog.minic_source ~seed:1000 ~index))
  done
