module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim

(* A synthesis-planning invariant was violated: a bug in this module,
   not in the input region. The message names the offending construct. *)
exception Internal_error of string

type mode =
  | Heuristic
  | Coupled_only
  | Scan_only
  | Scratchpad_preferred
  | Decoupled_preferred

type config = {
  unroll : int;
  pipeline : bool;
  mode : mode;
}

type iface_counts = {
  n_coupled : int;
  n_decoupled : int;
  n_scratchpad : int;
}

let no_ifaces = { n_coupled = 0; n_decoupled = 0; n_scratchpad = 0 }

type point = {
  config : config;
  accel_cycles : float;
  cpu_cycles : int;
  invocations : int;
  area : float;
  n_seq_blocks : int;
  n_pipelined : int;
  ifaces : iface_counts;
  units : (Ir.Op.unit_kind * int) list;
  sp_words : int;
  n_regs : int;
}

let mode_to_string = function
  | Heuristic -> "heuristic"
  | Coupled_only -> "coupled-only"
  | Scan_only -> "scan-only"
  | Scratchpad_preferred -> "scratchpad-preferred"
  | Decoupled_preferred -> "decoupled-preferred"

let config_to_string c =
  Printf.sprintf "u%d%s/%s" c.unroll
    (if c.pipeline then "+pipe" else "+seq")
    (mode_to_string c.mode)

(* Configurations explored by the fast strategy of Section III-C: the
   sequential design, the pipelined design, and pipelined designs with
   increasing unroll factors (applied only to loops without carried
   dependencies). For the full model the sweep also offers stream-only
   interface variants, letting the selection DP trade the scratchpad's
   parallelism against the decoupled stream's cheap area when the
   beta-rule alone would over-commit to buffers. *)
let default_configs mode =
  let base =
    [ { unroll = 1; pipeline = false; mode };
      { unroll = 1; pipeline = true; mode };
      { unroll = 2; pipeline = true; mode };
      { unroll = 4; pipeline = true; mode };
      { unroll = 8; pipeline = true; mode } ]
  in
  match mode with
  | Heuristic ->
    base
    @ [ { unroll = 1; pipeline = true; mode = Decoupled_preferred };
        { unroll = 4; pipeline = true; mode = Decoupled_preferred } ]
  | Coupled_only | Scan_only | Scratchpad_preferred | Decoupled_preferred ->
    base

let max_scratchpad_words = 4096

let default_beta = 4.0

(* --- helpers --- *)

let region_has_call (ctx : Ctx.t) (r : An.Region.t) =
  An.Region.String_set.exists
    (fun label -> Dfg.has_call (Ctx.dfg ctx label))
    r.An.Region.blocks

(* A loop is pipelineable when it is innermost with a straight-line
   body: either the canonical header/body/latch shape, or the two-block
   shape left after CFG simplification fuses the body into the latch. *)
let pipeline_body (ctx : Ctx.t) (l : An.Loops.loop) =
  if not (An.Loops.is_innermost ctx.Ctx.loops l) then None
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

let unroll_factor (ctx : Ctx.t) config (l : An.Loops.loop) =
  if config.unroll <= 1 then 1
  else
    match Ctx.loop_info ctx l.An.Loops.header with
    | Some info when not (An.Memdep.has_carried_dep info) ->
      let trip = Ctx.trip ctx l.An.Loops.header in
      if trip >= config.unroll then config.unroll else 1
    | Some _ | None -> 1


(* --- per-region facts --- *)

(* One memory access of the region with every fact the interface
   assignment reads about it: its static footprint over one region
   execution (under the trip counts of the loops inside the region) and
   its Scev pattern. *)
type access = {
  a_label : string;
  a_pos : int;
  a_base : string;
  a_store : bool;
  a_footprint : int option;
  a_pattern : An.Scev.pattern;
}

(* An array all of whose accesses in the region have a static footprint:
   the input of the scratchpad rule. *)
type static_array = {
  st_base : string;
  st_execs : int;  (* its accesses over the whole run *)
  st_footprint : int;  (* union footprint of one region execution *)
}

(* Everything the model reads about a call-free region that does not
   depend on the configuration, so a sweep analyses the region once and
   evaluates each configuration over the result. *)
type facts = {
  f_region : An.Region.t;
  f_pipelineable : (An.Loops.loop * string) list;
      (* loops inside the region that pipeline when asked, with their
         body block *)
  f_accesses : access list;
  f_static_arrays : static_array list;
  f_cpu_cycles : int;
  f_entries : int;
}

(* The facts of [r], or [None] when it contains a call (never
   synthesized). *)
let region_facts (ctx : Ctx.t) (r : An.Region.t) =
  if region_has_call ctx r then None
  else begin
    let pipelineable =
      List.filter_map
        (fun l ->
          match pipeline_body ctx l with
          | Some body when Ctx.trip ctx l.An.Loops.header > 0 -> Some (l, body)
          | Some _ | None -> None)
        (Ctx.loops_inside ctx r)
    in
    let accesses =
      An.Region.String_set.fold
        (fun label acc ->
          let dfg = Ctx.dfg ctx label in
          let trips = Ctx.region_trips ctx r label in
          List.fold_left
            (fun acc i ->
              let instr = dfg.Dfg.instrs.(i) in
              let base =
                match Ir.Instr.mem_ref_of instr with
                | Some m -> m.Ir.Instr.base
                | None ->
                  raise
                    (Internal_error
                       (Printf.sprintf
                          "hls.kernel: DFG memory node %d of block %s has no \
                           memory reference"
                          i label))
              in
              let a_store =
                match instr with
                | Ir.Instr.Store _ -> true
                | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
                | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Load _
                | Ir.Instr.Call _ -> false
              in
              { a_label = label; a_pos = i; a_base = base; a_store;
                a_footprint =
                  An.Scev.footprint ctx.Ctx.scev ~block:label ~pos:i ~trips;
                a_pattern = An.Scev.classify ctx.Ctx.scev ~block:label ~pos:i }
              :: acc)
            acc (Dfg.mem_nodes dfg))
        r.An.Region.blocks []
    in
    (* Per array: total accesses over the run and union footprint, kept
       only when every access is statically analyzable. *)
    let by_base : (string, access list) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun a ->
        let prev = try Hashtbl.find by_base a.a_base with Not_found -> [] in
        Hashtbl.replace by_base a.a_base (a :: prev))
      accesses;
    let static_arrays =
      Hashtbl.fold
        (fun st_base group acc ->
          if List.exists (fun a -> a.a_footprint = None) group then acc
          else
            { st_base;
              st_execs =
                List.fold_left
                  (fun n a -> n + Ctx.block_exec ctx a.a_label)
                  0 group;
              st_footprint =
                List.fold_left
                  (fun m a -> max m (Option.value a.a_footprint ~default:0))
                  0 group }
            :: acc)
        by_base []
    in
    Some
      { f_region = r;
        f_pipelineable = pipelineable;
        f_accesses = accesses;
        f_static_arrays = static_arrays;
        f_cpu_cycles = Ctx.region_cycles ctx r;
        f_entries = Ctx.region_entries ctx r }
  end

(* --- interface assignment --- *)

type sp_array = {
  sp_base : string;
  sp_words : int;
  sp_loaded : bool;
  sp_stored : bool;
  sp_banks : int;
}

type assignment = {
  table : (string * int, Iface.kind) Hashtbl.t;
  sp_arrays : sp_array list;
}

let iface_of assignment label i =
  match Hashtbl.find_opt assignment.table (label, i) with
  | Some k -> k
  | None -> Iface.Coupled

(* Decide the interface of every memory access in the region per the
   paper's heuristic, applied per array: an array whose total access count
   over one region execution exceeds beta times its statically-known
   footprint is cached in a scratchpad (reuse across accesses justifies
   the buffer); remaining stream accesses inside pipelined loops become
   decoupled; everything else stays coupled. *)
let assign_interfaces (f : facts) ~beta ~config
    ~(pipelined : (An.Loops.loop * string * int) list) =
  let table = Hashtbl.create 32 in
  let body_of = List.map (fun (_, body, u) -> body, u) pipelined in
  (* Scratchpad arrays with their buffer words. *)
  let sp_bases =
    match config.mode with
    | Heuristic | Scratchpad_preferred ->
      let invocations = max 1 f.f_entries in
      List.filter_map
        (fun st ->
          let per_inv =
            float_of_int st.st_execs /. float_of_int invocations
          in
          let profitable =
            match config.mode with
            | Scratchpad_preferred -> true
            | Heuristic | Coupled_only | Scan_only | Decoupled_preferred ->
              per_inv >= beta *. float_of_int st.st_footprint
          in
          if
            st.st_footprint > 0 && st.st_footprint <= max_scratchpad_words
            && profitable
          then Some (st.st_base, st.st_footprint)
          else None)
        f.f_static_arrays
    | Coupled_only | Scan_only | Decoupled_preferred -> []
  in
  (* Per-access assignment. *)
  let sp_info : (string, int * bool * bool * int) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun a ->
      let in_pipe = List.assoc_opt a.a_label body_of in
      let sp_words = List.assoc_opt a.a_base sp_bases in
      let kind =
        match config.mode, sp_words with
        | Scan_only, _ -> Iface.Scan
        | Coupled_only, _ -> Iface.Coupled
        | Decoupled_preferred, _ ->
          (match a.a_pattern with
           | An.Scev.Invariant | An.Scev.Stream _ -> Iface.Decoupled
           | An.Scev.Irregular -> Iface.Coupled)
        | (Scratchpad_preferred | Heuristic), Some _ -> Iface.Scratchpad
        | Scratchpad_preferred, None -> Iface.Coupled
        | Heuristic, None ->
          (match in_pipe, a.a_pattern with
           | Some _, (An.Scev.Invariant | An.Scev.Stream _) -> Iface.Decoupled
           | _, _ -> Iface.Coupled)
      in
      Hashtbl.replace table (a.a_label, a.a_pos) kind;
      match kind, sp_words with
      | Iface.Scratchpad, Some words ->
        let banks = Option.value in_pipe ~default:1 in
        let words0, loaded, stored, banks0 =
          try Hashtbl.find sp_info a.a_base with Not_found -> 0, false, false, 1
        in
        Hashtbl.replace sp_info a.a_base
          ( max words0 words,
            loaded || not a.a_store,
            stored || a.a_store,
            max banks0 banks )
      | (Iface.Scratchpad | Iface.Coupled | Iface.Decoupled | Iface.Scan), _ ->
        ())
    f.f_accesses;
  let sp_arrays =
    Hashtbl.fold
      (fun sp_base (sp_words, sp_loaded, sp_stored, sp_banks) acc ->
        { sp_base; sp_words; sp_loaded; sp_stored; sp_banks } :: acc)
      sp_info []
    |> List.sort (fun a b -> String.compare a.sp_base b.sp_base)
  in
  { table; sp_arrays }

(* --- synthesis plan --- *)

(* The structural decisions for one kernel configuration: which loops are
   pipelined (with body block and unroll factor), which interface serves
   each memory access, and the scratchpad arrays. Shared by the
   estimator and the RTL netlist backend. *)
type plan = {
  p_region : An.Region.t;
  p_config : config;
  p_pipelined : (An.Loops.loop * string * int) list;
  p_assignment : assignment;
  p_seq_blocks : string list;
}

let plan_of_facts (ctx : Ctx.t) (f : facts) ~beta config =
  let pipelined =
    if not config.pipeline then []
    else
      List.map
        (fun (l, body) -> l, body, unroll_factor ctx config l)
        f.f_pipelineable
  in
  let assignment = assign_interfaces f ~beta ~config ~pipelined in
  let pipe_blocks =
    List.fold_left
      (fun acc ((l : An.Loops.loop), _, _) ->
        An.Region.String_set.union acc l.An.Loops.blocks)
      An.Region.String_set.empty pipelined
  in
  let seq_blocks =
    An.Region.String_set.elements
      (An.Region.String_set.diff f.f_region.An.Region.blocks pipe_blocks)
  in
  { p_region = f.f_region; p_config = config; p_pipelined = pipelined;
    p_assignment = assignment; p_seq_blocks = seq_blocks }

let plan (ctx : Ctx.t) (r : An.Region.t) ?(beta = default_beta) config =
  (* A malformed configuration (non-positive unroll, e.g. from a fault
     campaign's corrupted input) is unsynthesizable, not a crash. *)
  if config.unroll <= 0 then None
  else Option.map (fun f -> plan_of_facts ctx f ~beta config) (region_facts ctx r)

let plan_iface p label i = iface_of p.p_assignment label i

let plan_sp_arrays p =
  List.map (fun sp -> sp.sp_base, sp.sp_words) p.p_assignment.sp_arrays

type sp_info = {
  spi_base : string;
  spi_words : int;
  spi_loaded : bool;
  spi_stored : bool;
  spi_banks : int;
}

let plan_sp_info p =
  List.map
    (fun sp ->
      { spi_base = sp.sp_base; spi_words = sp.sp_words;
        spi_loaded = sp.sp_loaded; spi_stored = sp.sp_stored;
        spi_banks = sp.sp_banks })
    p.p_assignment.sp_arrays

(* DMA cycles charged once per kernel invocation: each scratchpad array
   transfers its buffer in each used direction at the engine's burst
   rate. Shared by [estimate] and the netlist/RTL-simulation layers. *)
let plan_dma_per_inv p =
  List.fold_left
    (fun acc sp ->
      let dirs =
        (if sp.sp_loaded then 1 else 0) + if sp.sp_stored then 1 else 0
      in
      acc
      + dirs
        * ((sp.sp_words + Tech.dma_words_per_cycle - 1)
           / Tech.dma_words_per_cycle))
    0 p.p_assignment.sp_arrays

(* --- estimation --- *)

let merge_units lists =
  let tbl = Hashtbl.create 8 in
  List.iter
    (List.iter (fun (k, c) ->
       let prev = try Hashtbl.find tbl k with Not_found -> 0 in
       Hashtbl.replace tbl k (prev + c)))
    lists;
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt tbl k with
      | Some c when c > 0 -> Some (k, c)
      | Some _ | None -> None)
    Ir.Op.all_unit_kinds

let units_area units =
  List.fold_left (fun acc (k, c) -> acc +. (float_of_int c *. Tech.area k)) 0.0 units

let scale_units mult units = List.map (fun (k, c) -> k, c * mult) units

(* The design point of one plan over its region's facts. *)
let point_of_plan (ctx : Ctx.t) (f : facts) (pl : plan) =
  let config = pl.p_config in
  let pipelined = pl.p_pipelined in
  let assignment = pl.p_assignment in
  (* sequential blocks *)
  let seq_cycles = ref 0.0 in
  let seq_area = ref 0.0 in
  let units_acc = ref [] in
  let regs_acc = ref 0 in
  let n_seq_blocks = ref 0 in
  let count_c = ref 0 and count_d = ref 0 and count_s = ref 0 in
  let count_ifaces label dfg mult =
    List.iter
      (fun i ->
        match iface_of assignment label i with
        | Iface.Coupled | Iface.Scan -> count_c := !count_c + mult
        | Iface.Decoupled -> count_d := !count_d + mult
        | Iface.Scratchpad -> count_s := !count_s + mult)
      (Dfg.mem_nodes dfg)
  in
  let iface_area label dfg mult =
    List.fold_left
      (fun acc i ->
        acc
        +. (float_of_int mult
            *. Iface.per_access_area (iface_of assignment label i)))
      0.0 (Dfg.mem_nodes dfg)
  in
  List.iter
    (fun label ->
      let dfg = Ctx.dfg ctx label in
      let execs = Ctx.block_exec ctx label in
      let iface i = iface_of assignment label i in
      (* scratchpads are dual-ported SRAM *)
      let sched = Schedule.run ~sp_banks:2 dfg ~iface in
      seq_cycles :=
        !seq_cycles
        +. (float_of_int execs
            *. float_of_int (sched.Schedule.length + Tech.seq_ctrl_cycles));
      let n_defs = Dfg.n_defs dfg in
      seq_area :=
        !seq_area
        +. units_area (Dfg.unit_counts dfg)
        +. (float_of_int n_defs *. Tech.register_area)
        +. Tech.block_ctrl_area
        +. (float_of_int sched.Schedule.length *. Tech.fsm_state_area)
        +. iface_area label dfg 1;
      if Dfg.size dfg > 0 then incr n_seq_blocks;
      units_acc := Dfg.unit_counts dfg :: !units_acc;
      regs_acc := !regs_acc + n_defs;
      count_ifaces label dfg 1)
    pl.p_seq_blocks;
  (* pipelined loops *)
  let pipe_cycles = ref 0.0 in
  let pipe_area = ref 0.0 in
  List.iter
    (fun ((l : An.Loops.loop), body, u) ->
      let dfg = Ctx.dfg ctx body in
      let iface i = iface_of assignment body i in
      (* dual-ported SRAM, banked by the unroll factor *)
      let sched = Schedule.run ~sp_banks:(2 * u) dfg ~iface in
      let depth = sched.Schedule.length + 1 in
      let ii = Pipeline.ii ctx dfg ~iface l ~unroll:u ~sp_banks:(2 * u) in
      let trip = max 1 (Ctx.trip ctx l.An.Loops.header) in
      let groups = (trip + u - 1) / u in
      let entries = max 1 (Ctx.loop_entries ctx l) in
      pipe_cycles :=
        !pipe_cycles
        +. (float_of_int entries
            *. float_of_int (depth + (ii * (groups - 1)) + 2));
      let n_defs = Dfg.n_defs dfg in
      pipe_area :=
        !pipe_area
        +. (float_of_int u *. units_area (Dfg.unit_counts dfg))
        +. (float_of_int (u * n_defs) *. Tech.register_area)
        +. Tech.block_ctrl_area
        +. (float_of_int depth *. Tech.pipeline_stage_area)
        +. iface_area body dfg u;
      units_acc := scale_units u (Dfg.unit_counts dfg) :: !units_acc;
      regs_acc := !regs_acc + (u * n_defs) + (2 * depth);
      count_ifaces body dfg u)
    pipelined;
  (* scratchpad DMA and buffers *)
  let dma_per_inv = plan_dma_per_inv pl in
  let sp_area =
    List.fold_left
      (fun acc sp ->
        acc
        +. (float_of_int sp.sp_words *. Tech.scratchpad_word_area)
        +. (float_of_int (sp.sp_banks - 1) *. Tech.scratchpad_bank_overhead))
      0.0 assignment.sp_arrays
    +. if assignment.sp_arrays = [] then 0.0 else Tech.dma_engine_area
  in
  let accel_cycles =
    !seq_cycles +. !pipe_cycles
    +. (float_of_int f.f_entries
        *. float_of_int (dma_per_inv + Tech.invoke_overhead_cycles))
  in
  let area = !seq_area +. !pipe_area +. sp_area +. Tech.accel_wrapper_area in
  { config;
    accel_cycles;
    cpu_cycles = f.f_cpu_cycles;
    invocations = f.f_entries;
    area;
    n_seq_blocks = !n_seq_blocks;
    n_pipelined = List.length pipelined;
    ifaces =
      { n_coupled = !count_c; n_decoupled = !count_d; n_scratchpad = !count_s };
    units = merge_units !units_acc;
    n_regs = !regs_acc;
    sp_words =
      List.fold_left (fun acc sp -> acc + sp.sp_words) 0 assignment.sp_arrays }

let m_estimates = Obs.Metrics.counter "hls.kernel_estimates"
let m_points = Obs.Metrics.counter "hls.kernel_points"

let fp_schedule = Obs.Faultpoint.register "schedule"

(* One configuration over the region's facts. [facts] is forced only
   for a configuration with a positive unroll, so a region is analysed
   exactly when the single-configuration model would have analysed it.
   The lazy value never leaves the caller's stack frame, so no other
   domain can force it. *)
let estimate_with (ctx : Ctx.t) (facts : facts option Lazy.t) ~beta config =
  Obs.Faultpoint.hit fp_schedule;
  Obs.Metrics.incr m_estimates;
  if config.unroll <= 0 then None
  else
    match Lazy.force facts with
    | None -> None
    | Some f when f.f_cpu_cycles <= 0 || f.f_entries <= 0 -> None
    | Some f -> Some (point_of_plan ctx f (plan_of_facts ctx f ~beta config))

let estimate (ctx : Ctx.t) (r : An.Region.t) ?(beta = default_beta) config =
  estimate_with ctx (lazy (region_facts ctx r)) ~beta config

(* All design points of a kernel for a list of configurations, dropping
   duplicates that collapse to the same (cycles, area). The region's
   facts are built once and shared by every configuration. *)
let estimate_all ctx r ?(beta = default_beta) configs =
  let facts = lazy (region_facts ctx r) in
  let points = List.filter_map (estimate_with ctx facts ~beta) configs in
  let seen = Hashtbl.create 8 in
  let points =
    List.filter
      (fun p ->
        let key = (p.accel_cycles, p.area) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      points
  in
  Obs.Metrics.add m_points (List.length points);
  points

(* Time saved on the host by offloading this kernel, in seconds (can be
   negative when the accelerator is slower than the host). *)
let saved_seconds p =
  Sim.Cpu_model.seconds_of_cycles p.cpu_cycles
  -. (p.accel_cycles /. Tech.accel_freq_hz)
