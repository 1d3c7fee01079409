module Ir = Cayman_ir
module An = Cayman_analysis
module Hash = Memo.Hash

(* Digest of the whole technology table: every constant the estimator or
   the netlist backend can read. Computed once at module init. *)
let tech =
  let b = Hash.builder ~ns:"tech" in
  Hash.float b Tech.clock_ns;
  Hash.float b Tech.accel_freq_hz;
  List.iter
    (fun u ->
      Hash.str b (Ir.Op.unit_kind_to_string u);
      Hash.float b (Tech.delay_ns u);
      Hash.float b (Tech.area u);
      Hash.int b (Tech.latency_cycles u))
    Ir.Op.all_unit_kinds;
  List.iter (Hash.int b)
    [ Tech.coupled_load_latency; Tech.coupled_store_latency;
      Tech.coupled_load_occupancy; Tech.coupled_store_occupancy;
      Tech.coupled_ports; Tech.decoupled_load_latency;
      Tech.decoupled_store_latency; Tech.scratchpad_access_latency;
      Tech.dma_words_per_cycle; Tech.invoke_overhead_cycles;
      Tech.seq_ctrl_cycles; Kernel.max_scratchpad_words ];
  List.iter (Hash.float b)
    [ Tech.coupled_unit_area; Tech.decoupled_unit_area;
      Tech.scratchpad_word_area; Tech.scratchpad_bank_overhead;
      Tech.dma_engine_area; Tech.register_area; Tech.fsm_state_area;
      Tech.block_ctrl_area; Tech.pipeline_stage_area;
      Tech.accel_wrapper_area; Tech.mux_area_per_input;
      Tech.config_reg_area; Tech.cva6_tile_area ];
  Hash.digest b

(* Every profile/analysis fact the kernel model reads for [region], fed
   in a deterministic order under the original names: [block_order] is
   the region's blocks in the listing's walk order. *)
let facts b ~block_order (ctx : Ctx.t) (region : An.Region.t) =
  let m = Ctx.resolve ctx region in
  (* profile: region aggregate + per-block, in walk order *)
  Hash.int b (Ctx.region_cycles ctx region);
  Hash.int b (Ctx.region_entries ctx m);
  List.iter
    (fun l ->
      Hash.str b l;
      Hash.int b (Ctx.block_exec ctx l);
      Hash.int b (Ctx.block_cycles ctx l))
    block_order;
  (* loops fully inside the region, ordered by their header's position
     in the walk *)
  let loops =
    match Ctx.loops_inside ctx m with
    | ([] | [ _ ]) as loops -> loops
    | loops ->
      let tbl = Hashtbl.create 16 in
      List.iteri (fun i l -> Hashtbl.replace tbl l i) block_order;
      let pos l = Option.value ~default:max_int (Hashtbl.find_opt tbl l) in
      List.sort
        (fun (a : An.Loops.loop) (b : An.Loops.loop) ->
          compare (pos a.An.Loops.header) (pos b.An.Loops.header))
        loops
  in
  Hash.int b (List.length loops);
  List.iter
    (fun (l : An.Loops.loop) ->
      Hash.str b l.An.Loops.header;
      List.iter (Hash.str b) l.An.Loops.latches;
      List.iter
        (fun (f, t) ->
          Hash.str b f;
          Hash.str b t)
        l.An.Loops.exits;
      Hash.int b (Ctx.trip ctx l.An.Loops.header);
      Hash.int b (Ctx.loop_entries ctx l);
      Hash.bool b (An.Loops.is_innermost ctx.Ctx.loops l);
      match Ctx.loop_info ctx l.An.Loops.header with
      | None -> Hash.bool b false
      | Some info ->
        Hash.bool b true;
        Hash.bool b (An.Memdep.has_carried_dep info);
        List.iter (Hash.str b) info.An.Memdep.recurrences;
        Hash.int b (List.length info.An.Memdep.carried);
        List.iter
          (fun (d : An.Memdep.carried_dep) ->
            let access (a : An.Memdep.access) =
              Hash.str b a.An.Memdep.a_block;
              Hash.int b a.An.Memdep.a_pos;
              Hash.str b a.An.Memdep.a_base;
              Hash.bool b a.An.Memdep.a_is_store
            in
            access d.An.Memdep.src;
            access d.An.Memdep.dst;
            Hash.int_opt b d.An.Memdep.distance)
          info.An.Memdep.carried)
    loops;
  (* scalar evolution per memory access, exactly as assign_interfaces
     consumes it: pattern, static footprint w.r.t. the region's loop
     trips, and the affine address form *)
  List.iter
    (fun label ->
      let dfg = Ctx.dfg ctx label in
      let trips = Ctx.region_trips ctx m (Ir.Cfg.id ctx.Ctx.cfg label) in
      List.iter
        (fun i ->
          Hash.str b label;
          Hash.int b i;
          (match Ir.Instr.mem_ref_of dfg.Dfg.instrs.(i) with
           | Some m -> Hash.str b m.Ir.Instr.base
           | None -> Hash.str b "");
          Hash.str b
            (An.Scev.pattern_to_string
               (An.Scev.classify ctx.Ctx.scev ~block:label ~pos:i));
          Hash.int_opt b
            (An.Scev.footprint ctx.Ctx.scev ~block:label ~pos:i ~trips);
          match An.Scev.access_form ctx.Ctx.scev ~block:label ~pos:i with
          | An.Scev.Unknown -> Hash.bool b false
          | An.Scev.Affine a ->
            Hash.bool b true;
            Hash.int b a.An.Scev.const;
            List.iter
              (fun (h, c) ->
                Hash.str b h;
                Hash.int b c)
              a.An.Scev.ivs;
            List.iter
              (fun (s, c) ->
                Hash.str b s;
                Hash.int b c)
              a.An.Scev.syms)
        (Dfg.mem_nodes dfg))
    block_order

let netlist_key (ctx : Ctx.t) (region : An.Region.t) ~beta ~config =
  let b = Hash.builder ~ns:"netlist" in
  Hash.str b tech;
  Hash.str b (Kernel.config_to_string config);
  Hash.float b beta;
  let listing = Hash.exact_region ctx.Ctx.func region in
  Hash.str b listing.Hash.code;
  facts b ~block_order:listing.Hash.block_order ctx region;
  Hash.digest b
