module Ir = Cayman_ir

type vref = { vfunc : string; vid : int }

type func_tree = {
  fname : string;
  root : Region.t;
  cfg : Ir.Cfg.t;
  md : Ir.Cfg.Must_defined.t;
}

type t = { program : Ir.Program.t; funcs : func_tree list }

(* Functions reachable from main through direct calls, in discovery
   order starting with main. *)
let reachable_funcs (p : Ir.Program.t) =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      match Ir.Program.find_func p name with
      | None -> ()
      | Some f ->
        order := name :: !order;
        List.iter
          (fun (b : Ir.Block.t) ->
            List.iter
              (fun i ->
                match i with
                | Ir.Instr.Call (_, callee, _) -> visit callee
                | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
                | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Load _
                | Ir.Instr.Store _ -> ())
              b.Ir.Block.instrs)
          f.Ir.Func.blocks
    end
  in
  visit p.Ir.Program.main;
  List.rev !order

let m_builds = Obs.Metrics.counter "analysis.wpst_builds"
let m_regions = Obs.Metrics.counter "analysis.wpst_regions"

let build (ix : Ir.Cfg.program) =
  let p = ix.Ir.Cfg.program in
  Obs.Trace.span ~cat:"analysis" "analysis.wpst" (fun () ->
      let funcs =
        List.filter_map
          (fun name ->
            Option.map
              (fun (cfg, md) ->
                { fname = name; root = Region.pst_of_cfg cfg; cfg; md })
              (Ir.Cfg.find ix name))
          (reachable_funcs p)
      in
      Obs.Metrics.incr m_builds;
      Obs.Metrics.add m_regions
        (List.fold_left
           (fun acc ft -> Region.fold (fun n _ -> n + 1) acc ft.root)
           0 funcs);
      { program = p; funcs })

let func_tree t name =
  List.find_opt (fun ft -> String.equal ft.fname name) t.funcs

let region t (r : vref) =
  match func_tree t r.vfunc with
  | Some ft -> Region.find_by_id ft.root r.vid
  | None -> None

let region_count t =
  List.fold_left
    (fun acc ft -> Region.fold (fun n _ -> n + 1) acc ft.root)
    0 t.funcs

let iter g t =
  List.iter (fun ft -> Region.iter (fun r -> g ft.fname r) ft.root) t.funcs

let pp fmt t =
  Format.fprintf fmt "@[<v>wPST (root: application, %d functions)"
    (List.length t.funcs);
  List.iter
    (fun ft -> Format.fprintf fmt "@,@[<v 2>%s:@,%a@]" ft.fname Region.pp ft.root)
    t.funcs;
  Format.fprintf fmt "@]"
