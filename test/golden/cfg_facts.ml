(* Prints the control-flow facts the analyses derive for a fixed set of
   programs, so a change to how dominators, loops or the wPST are
   computed shows up as a reviewed diff:

     func <program> <func>
     block <label> idom=<label|-> ipdom=<label|<exit>|->
     loop <header> latches=<..> blocks=<..> exits=<from>-><to>,..
       preheader=<label|-> parent=<label|->
     region <id> <kind> entry=<label> exit=<label|-> blocks=<..>

   The programs are the 28 Table II benchmarks and the 32 generated
   programs of fleet seed 1000, each if-converted and chain-merged as
   [Core.Cayman.analyze] sees it. Blocks and loops are listed in the
   order the analyses return them; block sets are sorted by label. *)

module Ir = Cayman_ir
module An = Cayman_analysis

let opt = Option.value ~default:"-"
let set s = String.concat "," (An.Region.String_set.elements s)

let print_func name (cfg : Ir.Cfg.t) =
  Printf.printf "func %s %s\n" name cfg.Ir.Cfg.func.Ir.Func.name;
  let parent tree v =
    let p = tree.(v) in
    if p < 0 || p = v then "-"
    else if p = Ir.Cfg.exit_node cfg then "<exit>"
    else cfg.Ir.Cfg.labels.(p)
  in
  Array.iteri
    (fun v label ->
      Printf.printf "block %s idom=%s ipdom=%s\n" label
        (parent cfg.Ir.Cfg.idom v) (parent cfg.Ir.Cfg.ipdom v))
    cfg.Ir.Cfg.labels;
  List.iter
    (fun (l : An.Loops.loop) ->
      Printf.printf
        "loop %s latches=%s blocks=%s exits=%s preheader=%s parent=%s\n"
        l.An.Loops.header
        (String.concat "," l.An.Loops.latches)
        (set l.An.Loops.blocks)
        (String.concat ","
           (List.map (fun (a, b) -> a ^ "->" ^ b) l.An.Loops.exits))
        (opt l.An.Loops.preheader) (opt l.An.Loops.parent))
    (An.Loops.of_cfg cfg);
  An.Region.iter
    (fun (r : An.Region.t) ->
      Printf.printf "region %d %s entry=%s exit=%s blocks=%s\n" r.An.Region.id
        (An.Region.kind_to_string r.An.Region.kind)
        r.An.Region.entry (opt r.An.Region.exit) (set r.An.Region.blocks))
    (An.Region.pst_of_cfg cfg)

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
