module Ir = Cayman_ir
module An = Cayman_analysis

type t = {
  block_exec : (string * string, int ref) Hashtbl.t;
  edge_exec : (string * string * string, int ref) Hashtbl.t;
  call_count : (string, int ref) Hashtbl.t;
  mutable total_cycles : int;
  mutable total_instrs : int;
}

let create () =
  { block_exec = Hashtbl.create 256;
    edge_exec = Hashtbl.create 256;
    call_count = Hashtbl.create 16;
    total_cycles = 0;
    total_instrs = 0 }

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

let note_block t ~func ~label = bump t.block_exec (func, label)
let note_edge t ~func ~src ~dst = bump t.edge_exec (func, src, dst)
let note_call t func = bump t.call_count func

(* Counter-slot variant of [bump] for the staged interpreter: returns
   the live counter so the caller can cache it and skip the hash lookup
   on subsequent bumps. A fresh slot performs the same single
   [Hashtbl.replace] as [bump]'s first insertion, so the table layout
   (and hence its Marshal bytes) stays identical between engines. *)
let slot tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace tbl key r;
    r

let block_slot t ~func ~label = slot t.block_exec (func, label)
let edge_slot t ~func ~src ~dst = slot t.edge_exec (func, src, dst)
let call_slot t func = slot t.call_count func

let add_cycles t c = t.total_cycles <- t.total_cycles + c
let add_instrs t n = t.total_instrs <- t.total_instrs + n

let block_exec t ~func ~label =
  match Hashtbl.find_opt t.block_exec (func, label) with
  | Some r -> !r
  | None -> 0

let edge_exec t ~func ~src ~dst =
  match Hashtbl.find_opt t.edge_exec (func, src, dst) with
  | Some r -> !r
  | None -> 0

let func_calls t func =
  match Hashtbl.find_opt t.call_count func with
  | Some r -> !r
  | None -> 0

let total_cycles t = t.total_cycles
let total_instrs t = t.total_instrs
let total_seconds t = Cpu_model.seconds_of_cycles t.total_cycles

(* Aggregate totals, re-exported through the shared Obs.Metrics registry
   (once per completed profiling run, from Interp.run) so Eq. (1)'s
   inputs appear in `cayman stats` next to every other phase instead of
   living only in this one-off structure. All are deterministic facts of
   the interpreted program, hence counters. *)
let m_runs = Obs.Metrics.counter "sim.profile_runs"
let m_cycles = Obs.Metrics.counter "sim.profile_cycles"
let m_instrs = Obs.Metrics.counter "sim.profile_instrs"
let m_calls = Obs.Metrics.counter "sim.profile_calls"
let m_block_execs = Obs.Metrics.counter "sim.profile_block_execs"
let m_distinct_blocks = Obs.Metrics.counter "sim.profile_distinct_blocks"

let publish_metrics t =
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_cycles t.total_cycles;
  Obs.Metrics.add m_instrs t.total_instrs;
  Obs.Metrics.add m_calls
    (Hashtbl.fold (fun _ r acc -> acc + !r) t.call_count 0);
  Obs.Metrics.add m_block_execs
    (Hashtbl.fold (fun _ r acc -> acc + !r) t.block_exec 0);
  Obs.Metrics.add m_distinct_blocks (Hashtbl.length t.block_exec)

(* Cycles attributed to a block across the run: executions times its
   static cost. Call instructions contribute only their local overhead;
   callee time is attributed to the callee's own blocks. *)
let cycles_of_block t ~func (b : Ir.Block.t) =
  block_exec t ~func ~label:b.Ir.Block.label * Cpu_model.block_cycles b

let block_cycles (f : Ir.Func.t) t ~label =
  cycles_of_block t ~func:f.Ir.Func.name (Ir.Func.block_exn f label)

(* Total host cycles spent inside the region's own blocks (callee time
   excluded; regions containing calls are never offloaded). One pass
   over the function's blocks, so the cost is linear in its size. *)
let region_cycles (f : Ir.Func.t) t (r : An.Region.t) =
  List.fold_left
    (fun acc (b : Ir.Block.t) ->
      if An.Region.String_set.mem b.Ir.Block.label r.An.Region.blocks then
        acc + cycles_of_block t ~func:f.Ir.Func.name b
      else acc)
    0 f.Ir.Func.blocks

(* Number of executions of the region: entries into its entry block from
   outside the region. The whole-function region counts invocations. *)
let region_entries (cfg : Ir.Cfg.t) t (r : An.Region.t) =
  let f = cfg.Ir.Cfg.func in
  match r.An.Region.kind with
  | An.Region.Whole_function -> func_calls t f.Ir.Func.name
  | An.Region.Basic_block ->
    block_exec t ~func:f.Ir.Func.name ~label:r.An.Region.entry
  | An.Region.Loop_region | An.Region.Cond_region ->
    Array.fold_left
      (fun acc p ->
        let src = cfg.Ir.Cfg.labels.(p) in
        if An.Region.String_set.mem src r.An.Region.blocks then acc
        else acc + edge_exec t ~func:f.Ir.Func.name ~src ~dst:r.An.Region.entry)
      0
      cfg.Ir.Cfg.preds.(Ir.Cfg.id cfg r.An.Region.entry)

(* Average trip count of a loop: body iterations per loop entry.
   [entries] is the number of entries into the loop from outside it and
   [header] the loop's header block. *)
let avg_trip t ~func ~(header : Ir.Block.t) ~entries (l : An.Loops.loop) =
  if entries = 0 then 0.0
  else
    let hl = header.Ir.Block.label in
    (* Iterations are header->body edge executions. Back edges count
       the iterations after the first; they, plus one per entry, stand
       in when no header->body edge ran. *)
    let body_edges =
      List.fold_left
        (fun acc s ->
          if An.Loops.String_set.mem s l.An.Loops.blocks then
            acc + edge_exec t ~func ~src:hl ~dst:s
          else acc)
        0 (Ir.Block.succs header)
    in
    let iters =
      if body_edges > 0 then body_edges
      else
        List.fold_left
          (fun acc latch -> acc + edge_exec t ~func ~src:latch ~dst:hl)
          entries l.An.Loops.latches
    in
    float_of_int iters /. float_of_int entries
