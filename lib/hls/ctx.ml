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
  preds : (string, string list) Hashtbl.t;
  blocks : (string, int * int) Hashtbl.t;
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
  let blocks = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.Block.t) ->
      let label = b.Ir.Block.label in
      Hashtbl.replace blocks label
        ( Sim.Profile.block_exec profile ~func:fname ~label,
          Sim.Profile.cycles_of_block profile ~func:fname b ))
    func.Ir.Func.blocks;
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
  { program; func; profile; loops; scev; loop_info; dfgs; trips; entries;
    preds; blocks }

let dfg t label = Hashtbl.find t.dfgs label

let loop_info t header = Hashtbl.find_opt t.loop_info header

(* Average trip count, rounded to at least 1 when the loop ran at all. *)
let trip t header =
  match Hashtbl.find_opt t.trips header with
  | Some x when x > 0.0 -> max 1 (int_of_float (Float.round x))
  | Some _ | None -> 0

let block_exec t label =
  match Hashtbl.find_opt t.blocks label with
  | Some (exec, _) -> exec
  | None -> 0

let block_cycles t label = snd (Hashtbl.find t.blocks label)

(* Whether loop [l] lies wholly inside region [r]; the header test
   settles most loops without walking their blocks. *)
let loop_inside (r : An.Region.t) (l : An.Loops.loop) =
  An.Region.String_set.mem l.An.Loops.header r.An.Region.blocks
  && An.Loops.String_set.subset l.An.Loops.blocks r.An.Region.blocks

let loops_inside t r = List.filter (loop_inside r) t.loops

let region_trips t r label =
  List.filter_map
    (fun (l : An.Loops.loop) ->
      if loop_inside r l then Some (l.An.Loops.header, trip t l.An.Loops.header)
      else None)
    (An.Scev.enclosing t.scev label)

(* [Sim.Profile.region_cycles] and [region_entries] over the tables
   built above, without a scan of the function or a fresh pred map. *)
let region_cycles t (r : An.Region.t) =
  An.Region.String_set.fold
    (fun l acc -> acc + block_cycles t l)
    r.An.Region.blocks 0

let region_entries t (r : An.Region.t) =
  Sim.Profile.region_entries ~preds:t.preds t.func t.profile r

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
