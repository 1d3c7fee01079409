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
  cfg : Ir.Cfg.t;
  dfgs : Dfg.t array;
  blocks : (int * int) array;
  loop_info : An.Memdep.loop_info option array;
  trips : float array;
  entries : int array;
}

let create program profile (cfg : Ir.Cfg.t) =
  let func = cfg.Ir.Cfg.func in
  let loops = An.Loops.of_cfg cfg in
  let live = An.Liveness.compute func in
  let scev = An.Scev.create func loops in
  let dfgs = Array.map Dfg.of_block cfg.Ir.Cfg.blocks in
  let fname = func.Ir.Func.name in
  let blocks =
    Array.map
      (fun (b : Ir.Block.t) ->
        ( Sim.Profile.block_exec profile ~func:fname ~label:b.Ir.Block.label,
          Sim.Profile.cycles_of_block profile ~func:fname b ))
      cfg.Ir.Cfg.blocks
  in
  let size = cfg.Ir.Cfg.size in
  let loop_info = Array.make size None in
  let trips = Array.make size 0.0 in
  let entries = Array.make size 0 in
  List.iter
    (fun (l : An.Loops.loop) ->
      let header = l.An.Loops.header in
      let h = Ir.Cfg.id cfg header in
      loop_info.(h) <- Some (An.Memdep.analyze_loop func live scev l);
      (* entries into the loop from outside it *)
      let n =
        Array.fold_left
          (fun acc p ->
            let src = cfg.Ir.Cfg.labels.(p) in
            if An.Loops.String_set.mem src l.An.Loops.blocks then acc
            else acc + Sim.Profile.edge_exec profile ~func:fname ~src ~dst:header)
          0 cfg.Ir.Cfg.preds.(h)
      in
      entries.(h) <- n;
      trips.(h) <-
        Sim.Profile.avg_trip profile ~func:fname ~header:cfg.Ir.Cfg.blocks.(h)
          ~entries:n l)
    loops;
  { program; func; profile; loops; scev; cfg; dfgs; blocks; loop_info; trips;
    entries }

let dfg t label = t.dfgs.(Ir.Cfg.id t.cfg label)

let loop_info t header =
  match Ir.Cfg.id_opt t.cfg header with
  | Some h -> t.loop_info.(h)
  | None -> None

(* Average trip count, rounded to at least 1 when the loop ran at all. *)
let trip t header =
  match Ir.Cfg.id_opt t.cfg header with
  | Some h when t.trips.(h) > 0.0 ->
    max 1 (int_of_float (Float.round t.trips.(h)))
  | Some _ | None -> 0

let block_exec t label =
  match Ir.Cfg.id_opt t.cfg label with
  | Some v -> fst t.blocks.(v)
  | None -> 0

let block_cycles t label = snd t.blocks.(Ir.Cfg.id t.cfg label)

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
  Sim.Profile.region_entries t.cfg t.profile r

(* Entries into a loop from outside it. *)
let loop_entries t (l : An.Loops.loop) =
  match Ir.Cfg.id_opt t.cfg l.An.Loops.header with
  | Some h -> t.entries.(h)
  | None -> 0

(* All analysis contexts of a program, keyed by function name: one per
   wPST function tree (those reachable from main), over its index. *)
let m_ctxs = Obs.Metrics.counter "hls.ctxs_built"

let for_program (wpst : An.Wpst.t) profile =
  Obs.Trace.span ~cat:"hls" "hls.ctx" (fun () ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (ft : An.Wpst.func_tree) ->
          Hashtbl.replace tbl ft.An.Wpst.fname
            (create wpst.An.Wpst.program profile ft.An.Wpst.cfg))
        wpst.An.Wpst.funcs;
      Obs.Metrics.add m_ctxs (Hashtbl.length tbl);
      tbl)
