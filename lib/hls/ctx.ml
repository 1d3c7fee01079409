module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim

(* One memory access of a block: its DFG node, array, direction, Scev
   address form and pattern. *)
type access = {
  ac_pos : int;
  ac_base : string;
  ac_store : bool;
  ac_form : An.Scev.form;
  ac_pattern : An.Scev.pattern;
}

(* What the accelerator model reads about one loop. *)
type loop_facts = {
  lf_loop : An.Loops.loop;
  lf_header : int;
  lf_blocks : Ir.Cfg.Bits.t;  (* member ids *)
  lf_body : int;  (* id of the pipelineable body block, or -1 *)
  lf_trip : int;  (* [trip]: rounded average, 0 if never entered *)
  lf_unroll_trip : int;  (* [lf_trip] without a carried dependency, else 0 *)
  lf_entries : int;  (* profiled entries from outside *)
}

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
  units_area : float array;
  accesses : access array array;
  enclosing : int array array;
  loop_info : An.Memdep.loop_info option array;
  trips : float array;
  loop_facts : loop_facts array;
  loop_at : int array;
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

let unit_areas = Array.map Tech.area (Array.of_list Ir.Op.all_unit_kinds)

(* Area of a unit multiset given as counts in [Ir.Op.all_unit_kinds]
   order. *)
let units_area counts =
  let acc = ref 0.0 in
  Array.iteri
    (fun j c -> if c > 0 then acc := !acc +. (float_of_int c *. unit_areas.(j)))
    counts;
  !acc

(* The memory accesses of block [label], in DFG node order. *)
let block_accesses scev label (dfg : Dfg.t) =
  Array.of_list
    (List.map
       (fun i ->
         let instr = dfg.Dfg.instrs.(i) in
         let ac_base =
           match Ir.Instr.mem_ref_of instr with
           | Some m -> m.Ir.Instr.base
           | None ->
             invalid_arg
               (Printf.sprintf
                  "Ctx.create: DFG memory node %d of block %s has no memory \
                   reference"
                  i label)
         in
         let ac_store =
           match instr with
           | Ir.Instr.Store _ -> true
           | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
           | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Load _
           | Ir.Instr.Call _ -> false
         in
         { ac_pos = i; ac_base; ac_store;
           ac_form = An.Scev.access_form scev ~block:label ~pos:i;
           ac_pattern = An.Scev.classify scev ~block:label ~pos:i })
       (Dfg.mem_nodes dfg))

(* A loop is pipelineable when it is innermost with a straight-line
   body: either the canonical header/body/latch shape, or the two-block
   shape left after CFG simplification fuses the body into the latch. *)
let pipeline_body loops (l : An.Loops.loop) =
  if not (An.Loops.is_innermost loops l) then None
  else
    match l.An.Loops.latches with
    | [ latch ] ->
      let body =
        An.Loops.String_set.elements
          (An.Loops.String_set.remove l.An.Loops.header
             (An.Loops.String_set.remove latch l.An.Loops.blocks))
      in
      (match body with
       | [ b ] -> Some b
       | [] -> if String.equal latch l.An.Loops.header then None else Some latch
       | _ :: _ :: _ -> None)
    | [] | _ :: _ :: _ -> None

(* Average trip count, rounded to at least 1 when the loop ran at all. *)
let round_trip avg =
  if avg > 0.0 then max 1 (int_of_float (Float.round avg)) else 0

let create program profile (cfg : Ir.Cfg.t) md =
  let func = cfg.Ir.Cfg.func in
  let counts = Sim.Profile.find profile func.Ir.Func.name in
  let loops = An.Loops.of_cfg cfg in
  let live = An.Liveness.compute cfg md in
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
  let loop_at = Array.make size (-1) in
  let loop_facts =
    Array.of_list
      (List.mapi
         (fun i (l : An.Loops.loop) ->
           let header = l.An.Loops.header in
           let h = Ir.Cfg.id cfg header in
           let info = An.Memdep.analyze_loop func live scev l in
           loop_info.(h) <- Some info;
           loop_at.(h) <- i;
           let lf_blocks = Ir.Cfg.Bits.create size in
           An.Loops.String_set.iter
             (fun b -> Ir.Cfg.Bits.add lf_blocks (Ir.Cfg.id cfg b))
             l.An.Loops.blocks;
           let in_loop = Ir.Cfg.Bits.mem lf_blocks in
           let lf_entries =
             edges_into counts cfg h ~from:(fun p -> not (in_loop p))
           in
           trips.(h) <- avg_trip counts cfg h ~entries:lf_entries ~in_loop;
           let lf_trip = round_trip trips.(h) in
           { lf_loop = l; lf_header = h; lf_blocks;
             lf_body =
               (match pipeline_body loops l with
                | Some b -> Ir.Cfg.id cfg b
                | None -> -1);
             lf_trip;
             lf_unroll_trip =
               (if An.Memdep.has_carried_dep info then 0 else lf_trip);
             lf_entries })
         loops)
  in
  let index_of l =
    let rec go i = if loop_facts.(i).lf_loop == l then i else go (i + 1) in
    go 0
  in
  let enclosing =
    Array.map
      (fun label ->
        match An.Scev.enclosing scev label with
        | [] -> [||]
        | around -> Array.of_list (List.map index_of around))
      cfg.Ir.Cfg.labels
  in
  { program; func; counts; loops; scev; cfg; dfgs; cycles;
    units_area = Array.map (fun (d : Dfg.t) -> units_area d.Dfg.units) dfgs;
    accesses =
      Array.mapi (fun v d -> block_accesses scev cfg.Ir.Cfg.labels.(v) d) dfgs;
    enclosing; loop_info; trips; loop_facts; loop_at }

let dfg t label = t.dfgs.(Ir.Cfg.id t.cfg label)

let loop_info t header =
  match Ir.Cfg.id_opt t.cfg header with
  | Some h -> t.loop_info.(h)
  | None -> None

let trip t header =
  match Ir.Cfg.id_opt t.cfg header with
  | Some h -> round_trip t.trips.(h)
  | None -> 0

let block_exec t label =
  match Ir.Cfg.id_opt t.cfg label with
  | Some v -> t.counts.Sim.Profile.blocks.(v)
  | None -> 0

let block_cycles t label = t.cycles.(Ir.Cfg.id t.cfg label)

(* A region's member blocks, resolved to ids once. *)
type region = {
  region : An.Region.t;
  labels : string array;
  ids : int array;
  set : Ir.Cfg.Bits.t;
  inside : bool array;
}

(* Whether loop [lf] lies wholly inside the member set [set]; the header
   test settles most loops without comparing their blocks. *)
let loop_inside set lf =
  Ir.Cfg.Bits.mem set lf.lf_header && Ir.Cfg.Bits.subset lf.lf_blocks set

let resolve t (r : An.Region.t) =
  let labels = Array.of_list (An.Region.String_set.elements r.An.Region.blocks) in
  let ids = Array.map (Ir.Cfg.id t.cfg) labels in
  let set = Ir.Cfg.Bits.create t.cfg.Ir.Cfg.size in
  Array.iter (Ir.Cfg.Bits.add set) ids;
  { region = r; labels; ids; set;
    inside = Array.map (loop_inside set) t.loop_facts }

let loops_inside t m =
  List.filteri (fun i _ -> m.inside.(i)) t.loops

let region_trips t m v =
  Array.fold_right
    (fun i acc ->
      if m.inside.(i) then
        let lf = t.loop_facts.(i) in
        (lf.lf_loop.An.Loops.header, lf.lf_trip) :: acc
      else acc)
    t.enclosing.(v) []

(* Host cycles spent inside the region's own blocks (callee time
   excluded; regions containing calls are never offloaded). The prune
   walk reads it for every region it visits, so it folds over the
   region's labels rather than resolving them. *)
let region_cycles t (r : An.Region.t) =
  An.Region.String_set.fold
    (fun l acc -> acc + block_cycles t l)
    r.An.Region.blocks 0

(* Executions of the region: entries into its entry block from outside
   it. The whole-function region counts invocations. *)
let region_entries t m =
  let r = m.region in
  match r.An.Region.kind with
  | An.Region.Whole_function -> t.counts.Sim.Profile.calls
  | An.Region.Basic_block -> block_exec t r.An.Region.entry
  | An.Region.Loop_region | An.Region.Cond_region ->
    edges_into t.counts t.cfg (Ir.Cfg.id t.cfg r.An.Region.entry)
      ~from:(fun p -> not (Ir.Cfg.Bits.mem m.set p))

(* Entries into a loop from outside it. *)
let loop_entries t (l : An.Loops.loop) =
  match Ir.Cfg.id_opt t.cfg l.An.Loops.header with
  | Some h when t.loop_at.(h) >= 0 -> t.loop_facts.(t.loop_at.(h)).lf_entries
  | Some _ | None -> 0

(* All analysis contexts of a program, keyed by function name: one per
   wPST function tree (those reachable from main), over its index. *)
let m_ctxs = Obs.Metrics.counter "hls.ctxs_built"

let for_program (wpst : An.Wpst.t) profile =
  Obs.Trace.span ~cat:"hls" "hls.ctx" (fun () ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (ft : An.Wpst.func_tree) ->
          Hashtbl.replace tbl ft.An.Wpst.fname
            (create wpst.An.Wpst.program profile ft.An.Wpst.cfg ft.An.Wpst.md))
        wpst.An.Wpst.funcs;
      Obs.Metrics.add m_ctxs (Hashtbl.length tbl);
      tbl)
