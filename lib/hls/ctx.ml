module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim

(* Per-function bundle of every analysis the accelerator model consumes:
   the paper's "profiling/analysis results R". Every field is built in
   [create] and never changes: selection reads one context from several
   pool domains at once, and neither [Hashtbl] nor [Lazy] is safe to
   fill from two domains. *)
type t = {
  program : Ir.Program.t;
  func : Ir.Func.t;
  profile : Sim.Profile.t;
  loops : An.Loops.t;
  scev : An.Scev.t;
  loop_info : (string, An.Memdep.loop_info) Hashtbl.t;
  dfgs : (string, Dfg.t) Hashtbl.t;
  trips : (string, float) Hashtbl.t;
  entries : (string, int) Hashtbl.t;
}

let create program profile (func : Ir.Func.t) =
  let dom = An.Dominance.dominators func in
  let loops = An.Loops.find func dom in
  let live = An.Liveness.compute func in
  let scev = An.Scev.create func loops in
  let dfgs = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.Block.t) ->
      Hashtbl.replace dfgs b.Ir.Block.label (Dfg.of_block b))
    func.Ir.Func.blocks;
  let loop_info = Hashtbl.create 8 in
  let trips = Hashtbl.create 8 in
  let entries = Hashtbl.create 8 in
  let preds = Ir.Func.preds func in
  let fname = func.Ir.Func.name in
  List.iter
    (fun (l : An.Loops.loop) ->
      let header = l.An.Loops.header in
      Hashtbl.replace loop_info header (An.Memdep.analyze_loop func live scev l);
      (* entries into the loop from outside it *)
      let n =
        List.fold_left
          (fun acc p ->
            if An.Loops.String_set.mem p l.An.Loops.blocks then acc
            else
              acc
              + Sim.Profile.edge_exec profile ~func:fname ~src:p ~dst:header)
          0
          (try Hashtbl.find preds header with Not_found -> [])
      in
      Hashtbl.replace entries header n;
      Hashtbl.replace trips header
        (Sim.Profile.avg_trip profile ~func:fname
           ~header:(Hashtbl.find dfgs header).Dfg.block ~entries:n l))
    loops;
  { program; func; profile; loops; scev; loop_info; dfgs; trips; entries }

let dfg t label = Hashtbl.find t.dfgs label

let loop_info t header = Hashtbl.find_opt t.loop_info header

(* Average trip count, rounded to at least 1 when the loop ran at all. *)
let trip t header =
  match Hashtbl.find_opt t.trips header with
  | Some x when x > 0.0 -> max 1 (int_of_float (Float.round x))
  | Some _ | None -> 0

let block_exec t label =
  Sim.Profile.block_exec t.profile ~func:t.func.Ir.Func.name ~label

(* Profiled host cycles of one block, found through the DFG table rather
   than a scan of the function's block list. *)
let block_cycles t label =
  Sim.Profile.cycles_of_block t.profile ~func:t.func.Ir.Func.name
    (dfg t label).Dfg.block

(* Entries into a loop from outside it. *)
let loop_entries t (l : An.Loops.loop) =
  Option.value (Hashtbl.find_opt t.entries l.An.Loops.header) ~default:0

(* All analysis contexts of a program, keyed by function name, restricted
   to functions reachable from main. *)
let m_ctxs = Obs.Metrics.counter "hls.ctxs_built"

let for_program program profile =
  Obs.Trace.span ~cat:"hls" "hls.ctx" (fun () ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun name ->
          match Ir.Program.find_func program name with
          | Some f -> Hashtbl.replace tbl name (create program profile f)
          | None -> ())
        (An.Wpst.reachable_funcs program);
      Obs.Metrics.add m_ctxs (Hashtbl.length tbl);
      tbl)
