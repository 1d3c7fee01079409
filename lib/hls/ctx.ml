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
  counts : Sim.Profile.counts;
  loops : An.Loops.t;
  scev : An.Scev.t;
  cfg : Ir.Cfg.t;
  dfgs : Dfg.t array;
  cycles : int array;
  loop_info : An.Memdep.loop_info option array;
  trips : float array;
  entries : int array;
}

(* Executions of the edges into block [dst] from the sources [from]
   accepts, each edge once: a source that names [dst] on both arms of
   its branch appears twice in [preds.(dst)], and adds its two slots
   once. *)
let edges_into (counts : Sim.Profile.counts) (cfg : Ir.Cfg.t) dst ~from =
  let preds = cfg.Ir.Cfg.preds.(dst) in
  let n = ref 0 in
  Array.iteri
    (fun i p ->
      let rec seen j = j < i && (preds.(j) = p || seen (j + 1)) in
      if from p && not (seen 0) then
        Array.iteri
          (fun k s -> if s = dst then n := !n + counts.Sim.Profile.edges.(p).(k))
          cfg.Ir.Cfg.succs.(p))
    preds;
  !n

(* Average trip count of loop [l] with header id [h], entered [entries]
   times from outside: body iterations per entry. Iterations are
   header -> body edge executions. Back edges count the iterations after
   the first; they, plus one per entry, stand in when no header -> body
   edge ran. *)
let avg_trip (counts : Sim.Profile.counts) (cfg : Ir.Cfg.t) h ~entries ~in_loop =
  if entries = 0 then 0.0
  else
    let body_edges = ref 0 in
    Array.iteri
      (fun k s ->
        if in_loop s then
          body_edges := !body_edges + counts.Sim.Profile.edges.(h).(k))
      cfg.Ir.Cfg.succs.(h);
    let iters =
      if !body_edges > 0 then !body_edges
      else entries + edges_into counts cfg h ~from:in_loop
    in
    float_of_int iters /. float_of_int entries

let create program profile (cfg : Ir.Cfg.t) =
  let func = cfg.Ir.Cfg.func in
  let counts = Sim.Profile.find profile func.Ir.Func.name in
  let loops = An.Loops.of_cfg cfg in
  let live = An.Liveness.compute func in
  let scev = An.Scev.create func loops in
  let dfgs = Array.map Dfg.of_block cfg.Ir.Cfg.blocks in
  let cycles =
    Array.mapi
      (fun v b -> counts.Sim.Profile.blocks.(v) * Sim.Cpu_model.block_cycles b)
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
      let in_loop v =
        An.Loops.String_set.mem cfg.Ir.Cfg.labels.(v) l.An.Loops.blocks
      in
      let n = edges_into counts cfg h ~from:(fun p -> not (in_loop p)) in
      entries.(h) <- n;
      trips.(h) <- avg_trip counts cfg h ~entries:n ~in_loop)
    loops;
  { program; func; counts; loops; scev; cfg; dfgs; cycles; loop_info; trips;
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
  | Some v -> t.counts.Sim.Profile.blocks.(v)
  | None -> 0

let block_cycles t label = t.cycles.(Ir.Cfg.id t.cfg label)

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

(* Host cycles spent inside the region's own blocks (callee time
   excluded; regions containing calls are never offloaded). *)
let region_cycles t (r : An.Region.t) =
  An.Region.String_set.fold
    (fun l acc -> acc + block_cycles t l)
    r.An.Region.blocks 0

(* Executions of the region: entries into its entry block from outside
   it. The whole-function region counts invocations. *)
let region_entries t (r : An.Region.t) =
  match r.An.Region.kind with
  | An.Region.Whole_function -> t.counts.Sim.Profile.calls
  | An.Region.Basic_block -> block_exec t r.An.Region.entry
  | An.Region.Loop_region | An.Region.Cond_region ->
    edges_into t.counts t.cfg (Ir.Cfg.id t.cfg r.An.Region.entry)
      ~from:(fun p ->
        not
          (An.Region.String_set.mem t.cfg.Ir.Cfg.labels.(p) r.An.Region.blocks))

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
