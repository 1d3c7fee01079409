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

(* One kernel as every later stage sees it: its function's analysis
   context, its wPST region and the configuration chosen for it. *)
type spec = {
  k_ctx : Ctx.t;
  k_region : An.Region.t;
  k_config : config;
}

let spec_name k =
  k.k_ctx.Ctx.func.Ir.Func.name ^ "/" ^ An.Region.name k.k_region

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

let unit_kinds = Array.of_list Ir.Op.all_unit_kinds

(* The interface of node [i] in a block's kind array; nodes past its end
   (every node of a block without memory accesses) are coupled. *)
let kind_at (kinds : Iface.kind array) i =
  if i < Array.length kinds then kinds.(i) else Iface.Coupled

(* --- per-region facts --- *)

(* One entry of the block-plan table: what a block contributes to any
   configuration that schedules it with [s_banks] scratchpad banks under
   the interface vector [s_kinds]. A sequential block has two banks and
   multiplier 1; a pipelined body unrolled [u] times has [2 * u] banks
   and multiplier [u], so the bank count fixes the multiplier. *)
type summary = {
  s_banks : int;
  s_kinds : Iface.kind array;
  s_length : int;  (* schedule length *)
  mutable s_ii : int;
      (* initiation interval as a pipelined body; 0 until a pipelined
         configuration first asks for it *)
  s_iface_area : float;  (* interface area at multiplier [s_banks / 2] *)
  s_coupled : int;  (* accesses per interface kind, scan counted as coupled *)
  s_decoupled : int;
  s_scratchpad : int;
}

(* One block of the region with what the estimator reads about it. *)
type block = {
  b_label : string;
  b_slot : int;  (* its index in the region's sorted labels *)
  b_dfg : Dfg.t;
  b_execs : int;
  b_units_area : float;
  mutable b_summaries : summary list;
      (* this block's row of the block-plan table; filled by the sweep
         that built the facts, which never leave it *)
}

(* One memory access of the region with every fact the interface
   assignment reads about it: its static footprint over one region
   execution (under the trip counts of the loops inside the region),
   its Scev pattern, and where it sits. *)
type access = {
  a_slot : int;  (* its block *)
  a_pos : int;
  a_base : string;
  a_store : bool;
  a_footprint : int option;
  a_pattern : An.Scev.pattern;
  a_pipe : int option;
      (* index in [f_pipelineable] of the loop whose body holds it *)
  a_static : int option;  (* index in [f_static_arrays] of its array *)
}

(* An array all of whose accesses in the region have a static footprint:
   the input of the scratchpad rule. *)
type static_array = {
  st_base : string;
  st_execs : int;  (* its accesses over the whole run *)
  st_footprint : int;  (* union footprint of one region execution *)
  st_loaded : bool;  (* some access loads it *)
  st_stored : bool;  (* some access stores it *)
}

(* A loop inside the region that pipelines when asked. *)
type pipe_loop = {
  pl_loop : An.Loops.loop;
  pl_blocks : Ir.Cfg.Bits.t;  (* its member ids *)
  pl_body : block;
  pl_trip : int;  (* profiled trip count, positive *)
  pl_unroll_trip : int;
      (* [pl_trip] when the loop has no carried dependency, else 0: an
         unroll factor up to it applies, a larger one falls back to 1 *)
  pl_entries : int;  (* entries from outside the loop, at least 1 *)
}

(* Everything the model reads about a call-free region that does not
   depend on the configuration, so a sweep analyses the region once and
   evaluates each configuration over the result. *)
type facts = {
  f_region : An.Region.t;
  f_labels : string array;  (* the region's blocks, sorted *)
  f_blocks : block array;  (* by slot *)
  f_pipelineable : pipe_loop array;
  f_seq_all : block list;  (* every block: the configurations without pipelining *)
  f_seq_piped : block list;  (* the blocks outside [f_pipelineable] *)
  f_accesses : access list;
  f_static_arrays : static_array array;  (* sorted by array name *)
  f_cpu_cycles : int;
  f_entries : int;
}

(* The facts of [r], or [None] when it contains a call (never
   synthesized): a projection of the context's per-function tables onto
   the region's members, which are resolved once and visited in label
   order, plus the footprints of its accesses under the trip counts of
   the loops inside it. *)
let region_facts (ctx : Ctx.t) (r : An.Region.t) =
  let m = Ctx.resolve ctx r in
  let ids = m.Ctx.ids in
  if Array.exists (fun id -> Dfg.has_call ctx.Ctx.dfgs.(id)) ids then None
  else begin
    let blocks =
      Array.mapi
        (fun b_slot id ->
          { b_label = m.Ctx.labels.(b_slot); b_slot; b_dfg = ctx.Ctx.dfgs.(id);
            b_execs = ctx.Ctx.counts.Sim.Profile.blocks.(id);
            b_units_area = ctx.Ctx.units_area.(id); b_summaries = [] })
        ids
    in
    let pipelineable = ref [] in
    for i = Array.length ctx.Ctx.loop_facts - 1 downto 0 do
      let lf = ctx.Ctx.loop_facts.(i) in
      if m.Ctx.inside.(i) && lf.Ctx.lf_body >= 0 && lf.Ctx.lf_trip > 0 then begin
        let slot =
          match Array.find_index (Int.equal lf.Ctx.lf_body) ids with
          | Some slot -> slot
          | None ->
            raise
              (Internal_error
                 (Printf.sprintf
                    "hls.kernel: body %s of loop %s is outside region %d"
                    ctx.Ctx.cfg.Ir.Cfg.labels.(lf.Ctx.lf_body)
                    lf.Ctx.lf_loop.An.Loops.header r.An.Region.id))
        in
        pipelineable :=
          { pl_loop = lf.Ctx.lf_loop; pl_blocks = lf.Ctx.lf_blocks;
            pl_body = blocks.(slot); pl_trip = lf.Ctx.lf_trip;
            pl_unroll_trip = lf.Ctx.lf_unroll_trip;
            pl_entries = max 1 lf.Ctx.lf_entries }
          :: !pipelineable
      end
    done;
    let pipelineable = Array.of_list !pipelineable in
    let accesses =
      Array.fold_left
        (fun acc b ->
          let trips = Ctx.region_trips ctx m ids.(b.b_slot) in
          let pipe =
            Array.find_index (fun p -> p.pl_body.b_slot = b.b_slot) pipelineable
          in
          Array.fold_left
            (fun acc (ac : Ctx.access) ->
              { a_slot = b.b_slot; a_pos = ac.Ctx.ac_pos; a_base = ac.Ctx.ac_base;
                a_store = ac.Ctx.ac_store;
                a_footprint = An.Scev.footprint_of_form ac.Ctx.ac_form ~trips;
                a_pattern = ac.Ctx.ac_pattern; a_pipe = pipe; a_static = None }
              :: acc)
            acc ctx.Ctx.accesses.(ids.(b.b_slot)))
        [] blocks
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
                List.fold_left (fun n a -> n + blocks.(a.a_slot).b_execs) 0 group;
              st_footprint =
                List.fold_left
                  (fun m a -> max m (Option.value a.a_footprint ~default:0))
                  0 group;
              st_loaded = List.exists (fun a -> not a.a_store) group;
              st_stored = List.exists (fun a -> a.a_store) group }
            :: acc)
        by_base []
      |> List.sort (fun a b -> String.compare a.st_base b.st_base)
      |> Array.of_list
    in
    Some
      { f_region = r;
        f_labels = m.Ctx.labels;
        f_blocks = blocks;
        f_pipelineable = pipelineable;
        f_seq_all = Array.to_list blocks;
        f_seq_piped =
          List.filter
            (fun b ->
              not
                (Array.exists
                   (fun p -> Ir.Cfg.Bits.mem p.pl_blocks ids.(b.b_slot))
                   pipelineable))
            (Array.to_list blocks);
        f_accesses =
          List.map
            (fun a ->
              { a with
                a_static =
                  Array.find_index
                    (fun st -> String.equal st.st_base a.a_base)
                    static_arrays })
            accesses;
        f_static_arrays = static_arrays;
        f_cpu_cycles = Ctx.region_cycles ctx r;
        f_entries = Ctx.region_entries ctx m }
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
  labels : string array;  (* the region's blocks, sorted *)
  kinds : Iface.kind array array;
      (* per block (in [labels] order), the interface of each DFG node;
         [[||]] for a block without memory accesses *)
  sp_arrays : sp_array list;
}

(* Decide the interface of every memory access in the region per the
   paper's heuristic, applied per array: an array whose total access count
   over one region execution exceeds beta times its statically-known
   footprint is cached in a scratchpad (reuse across accesses justifies
   the buffer); remaining stream accesses inside pipelined loops become
   decoupled; everything else stays coupled. [unrolls] holds the unroll
   factor of each pipelineable loop, and is empty when the configuration
   does not pipeline. *)
let assign_interfaces (f : facts) ~beta ~config ~(unrolls : int array) =
  (* Scratchpad arrays, by index in [f_static_arrays]. *)
  let selected =
    match config.mode with
    | Heuristic | Scratchpad_preferred ->
      let invocations = max 1 f.f_entries in
      Array.map
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
          st.st_footprint > 0 && st.st_footprint <= max_scratchpad_words
          && profitable)
        f.f_static_arrays
    | Coupled_only | Scan_only | Decoupled_preferred ->
      Array.make (Array.length f.f_static_arrays) false
  in
  let banks = Array.make (Array.length f.f_static_arrays) 1 in
  let kinds = Array.make (Array.length f.f_blocks) [||] in
  (* Per-access assignment. *)
  List.iter
    (fun a ->
      let in_pipe =
        match a.a_pipe with
        | Some i when Array.length unrolls > 0 -> Some unrolls.(i)
        | Some _ | None -> None
      in
      let sp =
        match a.a_static with Some i -> selected.(i) | None -> false
      in
      let kind =
        match config.mode, sp with
        | Scan_only, _ -> Iface.Scan
        | Coupled_only, _ -> Iface.Coupled
        | Decoupled_preferred, _ ->
          (match a.a_pattern with
           | An.Scev.Invariant | An.Scev.Stream _ -> Iface.Decoupled
           | An.Scev.Irregular -> Iface.Coupled)
        | (Scratchpad_preferred | Heuristic), true -> Iface.Scratchpad
        | Scratchpad_preferred, false -> Iface.Coupled
        | Heuristic, false ->
          (match in_pipe, a.a_pattern with
           | Some _, (An.Scev.Invariant | An.Scev.Stream _) -> Iface.Decoupled
           | _, _ -> Iface.Coupled)
      in
      if Array.length kinds.(a.a_slot) = 0 then
        kinds.(a.a_slot) <-
          Array.make (Dfg.size f.f_blocks.(a.a_slot).b_dfg) Iface.Coupled;
      kinds.(a.a_slot).(a.a_pos) <- kind;
      match a.a_static with
      | Some i when sp ->
        banks.(i) <- max banks.(i) (Option.value in_pipe ~default:1)
      | Some _ | None -> ())
    f.f_accesses;
  let sp_arrays = ref [] in
  for i = Array.length selected - 1 downto 0 do
    if selected.(i) then begin
      let st = f.f_static_arrays.(i) in
      sp_arrays :=
        { sp_base = st.st_base; sp_words = st.st_footprint;
          sp_loaded = st.st_loaded; sp_stored = st.st_stored;
          sp_banks = banks.(i) }
        :: !sp_arrays
    end
  done;
  { labels = f.f_labels; kinds; sp_arrays = !sp_arrays }

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

(* The unroll factor of a pipelineable loop: applied only to loops
   without carried dependencies that run at least that many times. *)
let unroll_factor config p =
  if config.unroll > 1 && p.pl_unroll_trip >= config.unroll then config.unroll
  else 1

let seq_blocks f config = if config.pipeline then f.f_seq_piped else f.f_seq_all

(* The unroll factor of each pipelineable loop, or [[||]] when the
   configuration does not pipeline. *)
let unrolls f config =
  if config.pipeline then Array.map (unroll_factor config) f.f_pipelineable
  else [||]

let plan_of_facts (f : facts) ~beta config =
  let unrolls = unrolls f config in
  let pipelined = ref [] in
  for i = Array.length unrolls - 1 downto 0 do
    let p = f.f_pipelineable.(i) in
    pipelined := (p.pl_loop, p.pl_body.b_label, unrolls.(i)) :: !pipelined
  done;
  { p_region = f.f_region; p_config = config; p_pipelined = !pipelined;
    p_assignment = assign_interfaces f ~beta ~config ~unrolls;
    p_seq_blocks = List.map (fun b -> b.b_label) (seq_blocks f config) }

let plan (ctx : Ctx.t) (r : An.Region.t) ?(beta = default_beta) config =
  (* A malformed configuration (non-positive unroll, e.g. from a fault
     campaign's corrupted input) is unsynthesizable, not a crash. *)
  if config.unroll <= 0 then None
  else Option.map (fun f -> plan_of_facts f ~beta config) (region_facts ctx r)

let plan_iface p label =
  let a = p.p_assignment in
  kind_at
    (match Array.find_index (String.equal label) a.labels with
     | Some slot -> a.kinds.(slot)
     | None -> [||])

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

let same_kinds (a : Iface.kind array) b =
  a == b
  || Array.length a = Array.length b
     &&
     let rec go i = i < 0 || (a.(i) == b.(i) && go (i - 1)) in
     go (Array.length a - 1)

(* The summary of block [b] under [banks] scratchpad banks and the
   interface vector [kinds]: found in the block's table row, or
   scheduled and added to it. *)
let summary (b : block) ~banks kinds =
  let rec find = function
    | s :: rest ->
      if s.s_banks = banks && same_kinds s.s_kinds kinds then s else find rest
    | [] ->
      let iface = kind_at kinds in
      let sched = Schedule.run ~sp_banks:banks b.b_dfg ~iface in
      let mult = float_of_int (banks / 2) in
      let area = ref 0.0 in
      let c = ref 0 and d = ref 0 and sp = ref 0 in
      List.iter
        (fun i ->
          let k = iface i in
          area := !area +. (mult *. Iface.per_access_area k);
          match k with
          | Iface.Coupled | Iface.Scan -> incr c
          | Iface.Decoupled -> incr d
          | Iface.Scratchpad -> incr sp)
        (Dfg.mem_nodes b.b_dfg);
      let s =
        { s_banks = banks; s_kinds = kinds; s_length = sched.Schedule.length;
          s_ii = 0; s_iface_area = !area; s_coupled = !c; s_decoupled = !d;
          s_scratchpad = !sp }
      in
      b.b_summaries <- s :: b.b_summaries;
      s
  in
  find b.b_summaries

(* The initiation interval of a pipelined body under the summary [s]
   (unrolled [s_banks / 2] times), computed on first use. *)
let body_ii (ctx : Ctx.t) (p : pipe_loop) s =
  if s.s_ii = 0 then
    s.s_ii <-
      Pipeline.ii ctx p.pl_body.b_dfg ~iface:(kind_at s.s_kinds) p.pl_loop
        ~unroll:(s.s_banks / 2) ~sp_banks:s.s_banks;
  s.s_ii

(* The design point of one plan over its region's facts: a sum of the
   summaries of its blocks, in block order. *)
let point_of_plan (ctx : Ctx.t) (f : facts) (pl : plan) =
  let config = pl.p_config in
  let assignment = pl.p_assignment in
  let kinds = assignment.kinds in
  let units = Array.make (Array.length unit_kinds) 0 in
  let add_units (dfg : Dfg.t) mult =
    Array.iteri (fun j c -> units.(j) <- units.(j) + (mult * c)) dfg.Dfg.units
  in
  let regs_acc = ref 0 in
  let count_c = ref 0 and count_d = ref 0 and count_s = ref 0 in
  let count_ifaces s mult =
    count_c := !count_c + (mult * s.s_coupled);
    count_d := !count_d + (mult * s.s_decoupled);
    count_s := !count_s + (mult * s.s_scratchpad)
  in
  (* sequential blocks *)
  let seq_cycles = ref 0.0 in
  let seq_area = ref 0.0 in
  let n_seq_blocks = ref 0 in
  List.iter
    (fun b ->
      (* scratchpads are dual-ported SRAM *)
      let s = summary b ~banks:2 kinds.(b.b_slot) in
      seq_cycles :=
        !seq_cycles
        +. (float_of_int b.b_execs
            *. float_of_int (s.s_length + Tech.seq_ctrl_cycles));
      let n_defs = Dfg.n_defs b.b_dfg in
      seq_area :=
        !seq_area +. b.b_units_area
        +. (float_of_int n_defs *. Tech.register_area)
        +. Tech.block_ctrl_area
        +. (float_of_int s.s_length *. Tech.fsm_state_area)
        +. s.s_iface_area;
      if Dfg.size b.b_dfg > 0 then incr n_seq_blocks;
      add_units b.b_dfg 1;
      regs_acc := !regs_acc + n_defs;
      count_ifaces s 1)
    (seq_blocks f config);
  (* pipelined loops *)
  let pipe_cycles = ref 0.0 in
  let pipe_area = ref 0.0 in
  List.iteri
    (fun i (_, _, u) ->
      let p = f.f_pipelineable.(i) in
      let b = p.pl_body in
      (* dual-ported SRAM, banked by the unroll factor *)
      let s = summary b ~banks:(2 * u) kinds.(b.b_slot) in
      let depth = s.s_length + 1 in
      let ii = body_ii ctx p s in
      let groups = (p.pl_trip + u - 1) / u in
      pipe_cycles :=
        !pipe_cycles
        +. (float_of_int p.pl_entries
            *. float_of_int (depth + (ii * (groups - 1)) + 2));
      let n_defs = Dfg.n_defs b.b_dfg in
      pipe_area :=
        !pipe_area
        +. (float_of_int u *. b.b_units_area)
        +. (float_of_int (u * n_defs) *. Tech.register_area)
        +. Tech.block_ctrl_area
        +. (float_of_int depth *. Tech.pipeline_stage_area)
        +. s.s_iface_area;
      add_units b.b_dfg u;
      regs_acc := !regs_acc + (u * n_defs) + (2 * depth);
      count_ifaces s u)
    pl.p_pipelined;
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
    n_pipelined = List.length pl.p_pipelined;
    ifaces =
      { n_coupled = !count_c; n_decoupled = !count_d; n_scratchpad = !count_s };
    units = Dfg.unit_list units;
    n_regs = !regs_acc;
    sp_words =
      List.fold_left (fun acc sp -> acc + sp.sp_words) 0 assignment.sp_arrays }

let m_estimates = Obs.Metrics.counter "hls.kernel_estimates"
let m_plans = Obs.Metrics.counter "hls.kernel_plans"
let m_points = Obs.Metrics.counter "hls.kernel_points"

let fp_schedule = Obs.Faultpoint.register "schedule"

(* What fixes a configuration's plan, and so its point up to the
   [config] field: the mode and the unroll vector. Pipelining a region
   with no pipelineable loop gives the sequential plan, [[||]]. *)
let plan_key f config = (config.mode, unrolls f config)

(* One configuration over the region's facts. [facts] is forced only
   for a configuration with a positive unroll, so a region is analysed
   exactly when the single-configuration model would have analysed it.
   A configuration whose plan key is in [seen] gives no point: an
   earlier one of the sweep evaluated the same plan, to the same cycles
   and area, so the sweep's dedup would drop it. Every configuration
   hits the [schedule] fault point and counts one estimate all the same.
   The facts, the block-plan table they carry and [seen] never leave the
   caller's stack frame, so no other domain can force or fill them. *)
let estimate_with (ctx : Ctx.t) (facts : facts option Lazy.t) ~seen ~beta
    config =
  Obs.Faultpoint.hit fp_schedule;
  Obs.Metrics.incr m_estimates;
  if config.unroll <= 0 then None
  else
    match Lazy.force facts with
    | None -> None
    | Some f when f.f_cpu_cycles <= 0 || f.f_entries <= 0 -> None
    | Some f ->
      let key = plan_key f config in
      if List.mem key !seen then None
      else begin
        seen := key :: !seen;
        Obs.Metrics.incr m_plans;
        Some (point_of_plan ctx f (plan_of_facts f ~beta config))
      end

let estimate (ctx : Ctx.t) (r : An.Region.t) ?(beta = default_beta) config =
  estimate_with ctx (lazy (region_facts ctx r)) ~seen:(ref []) ~beta config

(* All design points of a kernel for a list of configurations, dropping
   duplicates that collapse to the same (cycles, area). The region's
   facts are built once and shared by every configuration, each distinct
   plan is evaluated once, and each distinct block plan is scheduled
   once: a plan sums the summaries its blocks find in the facts'
   block-plan table. *)
let estimate_all ctx r ?(beta = default_beta) configs =
  let facts = lazy (region_facts ctx r) in
  let seen = ref [] in
  let points = List.filter_map (estimate_with ctx facts ~seen ~beta) configs in
  let dedup = Hashtbl.create 8 in
  let points =
    List.filter
      (fun p ->
        let key = (p.accel_cycles, p.area) in
        if Hashtbl.mem dedup key then false
        else begin
          Hashtbl.replace dedup key ();
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
