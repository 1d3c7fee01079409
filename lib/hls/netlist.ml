module Ir = Cayman_ir
module An = Cayman_analysis

(* Structural Verilog-2001 netlist generation for one kernel accelerator:
   a spatial datapath (one primitive instance per operation), one
   architectural register per IR register, a block-sequencing FSM, and
   interface instances (coupled load/store units behind a port arbiter,
   decoupled AGU+FIFO streams, scratchpad SRAM banks with a DMA engine).

   The output is a synthesis skeleton in the spirit of the paper's
   generated accelerators: instance counts and wiring match the
   accelerator model exactly (the estimator and this backend share the
   same {!Kernel.plan}); primitive bodies live in a behavioural stub
   library emitted by {!primitives}.

   Besides the Verilog text, [of_kernel] returns a {!structure}: the
   same netlist as data (ports, wires, instances, FSM states and
   transitions, per-state register commits, pipeline controllers,
   scratchpad arrays) annotated with the schedule-derived timing the
   estimator charges per state. [Rtl.Sim] executes that structure and
   [Rtl.Lint] checks it, so simulation, linting, text emission and the
   area/latency model all share one elaboration. *)

type stats = {
  n_compute : int;
  n_mem : int;
  n_regs : int;
  n_states : int;
  n_wires : int;
}

type port_dir =
  | Input
  | Output

type instance = {
  i_name : string;
  i_module : string;
  i_params : (string * string) list;
  i_ports : (string * string) list;  (* formal -> actual expression *)
  i_state : string option;  (* FSM state whose datapath owns it *)
  i_block : string option;  (* originating IR block label *)
  i_pos : int option;  (* instruction index within that block *)
}

type transition = {
  t_from : string;
  t_guard : string option;  (* condition expression; [None] = always *)
  t_to : string;
  t_label : string option;  (* IR successor label; [None] for return/idle *)
}

type state_kind =
  | S_idle
  | S_seq
  | S_pipe
  | S_done

type fsm_state = {
  s_name : string;
  s_index : int;
  s_kind : state_kind;
  s_block : string option;  (* IR block of a datapath state *)
  s_cycles : int;
      (* cycles charged per visit of a sequential state (schedule length
         plus FSM control); 0 for idle/done/pipelined states *)
}

type pipe_ctrl = {
  pc_state : string;
  pc_header : string;
  pc_body : string;
  pc_latch : string;
  pc_blocks : string list;  (* every block of the pipelined loop *)
  pc_unroll : int;
  pc_depth : int;  (* pipeline depth in cycles *)
  pc_ii : int;  (* initiation interval per unrolled group *)
}

type structure = {
  nl_name : string;
  nl_ports : (string * port_dir * int) list;
  nl_params : (string * int) list;  (* localparams: FSM state encodings *)
  nl_regs : (string * int) list;  (* declared regs, including "state" *)
  nl_wires : (string * int) list;
  nl_assigns : (string * string) list;  (* wire <- expression *)
  nl_instances : instance list;
  nl_states : fsm_state list;
  nl_transitions : transition list;
  nl_entry : string;  (* state entered from S_IDLE on start *)
  nl_commits : (string * (Ir.Instr.reg * string) list) list;
      (* per state: registers latched at the end of its activation,
         with the driving wire *)
  nl_pipes : pipe_ctrl list;
  nl_sp : Kernel.sp_info list;
  nl_dma_per_inv : int;
  nl_region_entry : string;
  nl_region_exit : string option;
  nl_arch_regs : (string * Ir.Types.t) list;  (* IR register id -> type *)
}

type t = {
  module_name : string;
  verilog : string;
  stats : stats;
  structure : structure option;  (* [of_kernel] only *)
}

let keyword_safe name =
  (* IR names are already [A-Za-z0-9_]; prefixes keep them away from
     Verilog keywords. *)
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_'
      then c
      else '_')
    name

let reg_name rid = "reg_" ^ keyword_safe rid

let width_of (ty : Ir.Types.t) =
  match ty with
  | Ir.Types.I32 | Ir.Types.F32 -> 32
  | Ir.Types.Bool -> 1

let unit_module (k : Ir.Op.unit_kind) =
  "cayman_" ^ Ir.Op.unit_kind_to_string k

let iface_module (k : Iface.kind) ~is_load =
  match k, is_load with
  | Iface.Coupled, true -> "cayman_load_coupled"
  | Iface.Coupled, false -> "cayman_store_coupled"
  | Iface.Scan, true -> "cayman_load_scan"
  | Iface.Scan, false -> "cayman_store_scan"
  | Iface.Decoupled, true -> "cayman_stream_load"
  | Iface.Decoupled, false -> "cayman_stream_store"
  | Iface.Scratchpad, true -> "cayman_spad_read"
  | Iface.Scratchpad, false -> "cayman_spad_write"

let operand_expr ~local_wire (o : Ir.Instr.operand) =
  match o with
  | Ir.Instr.Reg r ->
    (match local_wire r.Ir.Instr.id with
     | Some w -> w
     | None -> reg_name r.Ir.Instr.id)
  | Ir.Instr.Imm_int n ->
    if n < 0 then Printf.sprintf "-32'sd%d" (-n) else Printf.sprintf "32'd%d" n
  | Ir.Instr.Imm_float x ->
    Printf.sprintf "32'h%08lx /* %g */" (Int32.bits_of_float x) x
  | Ir.Instr.Imm_bool b -> if b then "1'b1" else "1'b0"

(* Mutable collector for the structured view; filled in lockstep with
   the Verilog buffer and reversed once at the end. *)
type accum = {
  mutable a_wires : (string * int) list;
  mutable a_assigns : (string * string) list;
  mutable a_instances : instance list;
}

let add_instance acc inst = acc.a_instances <- inst :: acc.a_instances

(* Emit the datapath of one block (optionally replicated [unroll] times
   for pipelined bodies). Returns (#compute, #mem, commit lines). *)
let emit_block buf acc ~suffix ~state ~state_name (dfg : Dfg.t) ~iface =
  let n_compute = ref 0 in
  let n_mem = ref 0 in
  let ir_label = dfg.Dfg.block.Ir.Block.label in
  let label = keyword_safe ir_label ^ suffix in
  let defs : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let local_wire rid = Hashtbl.find_opt defs rid in
  let commits = ref [] in
  Buffer.add_string buf (Printf.sprintf "  // ---- block %s ----\n" label);
  Array.iteri
    (fun i (instr : Ir.Instr.t) ->
      let wire = Printf.sprintf "w_%s_%d" label i in
      let def_wire (r : Ir.Instr.reg) =
        Buffer.add_string buf
          (Printf.sprintf "  wire [%d:0] %s;\n" (width_of r.Ir.Instr.ty - 1) wire);
        acc.a_wires <- (wire, width_of r.Ir.Instr.ty) :: acc.a_wires;
        Hashtbl.replace defs r.Ir.Instr.id wire;
        commits := (r, wire) :: !commits
      in
      let operand o = operand_expr ~local_wire o in
      let inst name module_ params ports =
        add_instance acc
          { i_name = name; i_module = module_; i_params = params;
            i_ports = ports; i_state = state; i_block = Some ir_label;
            i_pos = Some i }
      in
      match instr with
      | Ir.Instr.Assign (r, o) ->
        let src = operand o in
        def_wire r;
        acc.a_assigns <- (wire, src) :: acc.a_assigns;
        Buffer.add_string buf
          (Printf.sprintf "  assign %s = %s;\n" wire src)
      | Ir.Instr.Unary (r, op, o) ->
        let src = operand o in
        def_wire r;
        incr n_compute;
        let m = unit_module (Ir.Op.unit_of_un op) in
        let name = Printf.sprintf "u_%s_%d" label i in
        (* A unary op occupies a two-input unit by pinning the spare
           operand: neg is 0 - a, not is a ^ ~0. Conversions get a
           genuinely unary primitive. *)
        let ports =
          match op with
          | Ir.Op.Neg | Ir.Op.Fneg -> [ "a", "32'd0"; "b", src; "z", wire ]
          | Ir.Op.Not -> [ "a", src; "b", "32'hffffffff"; "z", wire ]
          | Ir.Op.Int_of_float | Ir.Op.Float_of_int ->
            [ "a", src; "z", wire ]
        in
        inst name m [] ports;
        Buffer.add_string buf
          (Printf.sprintf "  %s %s (%s);\n" m name
             (String.concat ", "
                (List.map (fun (f, a) -> Printf.sprintf ".%s(%s)" f a)
                   ports)))
      | Ir.Instr.Binary (r, op, a, b) ->
        let ea = operand a and eb = operand b in
        def_wire r;
        incr n_compute;
        let m = unit_module (Ir.Op.unit_of_bin op) in
        let name = Printf.sprintf "u_%s_%d" label i in
        inst name m [] [ "a", ea; "b", eb; "z", wire ];
        Buffer.add_string buf
          (Printf.sprintf "  %s %s (.a(%s), .b(%s), .z(%s));\n" m name ea eb
             wire)
      | Ir.Instr.Compare (r, op, a, b) ->
        let ea = operand a and eb = operand b in
        def_wire r;
        incr n_compute;
        let m = unit_module (Ir.Op.unit_of_cmp op) in
        let name = Printf.sprintf "u_%s_%d" label i in
        inst name m
          [ "OP", Printf.sprintf "\"%s\"" (Ir.Op.cmp_to_string op) ]
          [ "a", ea; "b", eb; "z", wire ];
        Buffer.add_string buf
          (Printf.sprintf
             "  %s #(.OP(\"%s\")) %s (.a(%s), .b(%s), .z(%s));\n"
             m (Ir.Op.cmp_to_string op) name ea eb wire)
      | Ir.Instr.Select (r, c, a, b) ->
        let ec = operand c and ea = operand a and eb = operand b in
        def_wire r;
        incr n_compute;
        let name = Printf.sprintf "u_%s_%d" label i in
        inst name "cayman_select" []
          [ "sel", ec; "a", ea; "b", eb; "z", wire ];
        Buffer.add_string buf
          (Printf.sprintf
             "  cayman_select %s (.sel(%s), .a(%s), .b(%s), .z(%s));\n"
             name ec ea eb wire)
      | Ir.Instr.Load (r, m) ->
        let addr = operand m.Ir.Instr.index in
        def_wire r;
        incr n_mem;
        let k = iface i in
        let mname = iface_module k ~is_load:true in
        let name = Printf.sprintf "u_%s_%d" label i in
        inst name mname
          [ "ARRAY", Printf.sprintf "\"%s\"" m.Ir.Instr.base ]
          [ "clk", "clk"; "en", state_name; "addr", addr; "rdata", wire ];
        Buffer.add_string buf
          (Printf.sprintf
             "  %s #(.ARRAY(\"%s\")) %s (.clk(clk), .en(%s), .addr(%s), \
              .rdata(%s));\n"
             mname m.Ir.Instr.base name state_name addr wire)
      | Ir.Instr.Store (m, v) ->
        let addr = operand m.Ir.Instr.index in
        let data = operand v in
        incr n_mem;
        let k = iface i in
        let mname = iface_module k ~is_load:false in
        let name = Printf.sprintf "u_%s_%d" label i in
        inst name mname
          [ "ARRAY", Printf.sprintf "\"%s\"" m.Ir.Instr.base ]
          [ "clk", "clk"; "en", state_name; "addr", addr; "wdata", data ];
        Buffer.add_string buf
          (Printf.sprintf
             "  %s #(.ARRAY(\"%s\")) %s (.clk(clk), .en(%s), .addr(%s), \
              .wdata(%s));\n"
             mname m.Ir.Instr.base name state_name addr data)
      | Ir.Instr.Call _ ->
        Buffer.add_string buf
          (Printf.sprintf "  // call in block %s: not synthesizable\n" label))
    dfg.Dfg.instrs;
  !n_compute, !n_mem, List.rev !commits

let m_netlists = Obs.Metrics.counter "hls.netlists_built"

let fp_netlist = Obs.Faultpoint.register "netlist"

let build_kernel (ctx : Ctx.t) (region : An.Region.t) ?beta
    (config : Kernel.config) =
  Obs.Trace.span ~cat:"hls" "hls.netlist" @@ fun () ->
  Obs.Faultpoint.hit fp_netlist;
  match Kernel.plan ctx region ?beta config with
  | None -> None
  | Some plan ->
    let func = ctx.Ctx.func in
    let module_name =
      Printf.sprintf "cayman_accel_%s_%s"
        (keyword_safe func.Ir.Func.name)
        (keyword_safe region.An.Region.entry)
    in
    let buf = Buffer.create 4096 in
    let acc = { a_wires = []; a_assigns = []; a_instances = [] } in
    let n_compute = ref 0 in
    let n_mem = ref 0 in
    (* region blocks in a stable order: sequential blocks, then pipelined
       loops' blocks *)
    let block_states =
      List.mapi
        (fun idx label -> label, Printf.sprintf "S_%s" (keyword_safe label), idx + 1)
        (plan.Kernel.p_seq_blocks
        @ List.map (fun (_, body, _) -> body) plan.Kernel.p_pipelined)
    in
    (* header and latch of a pipelined loop are absorbed into its body's
       pipeline controller *)
    let state_alias label =
      List.find_map
        (fun ((l : An.Loops.loop), body, _) ->
          if
            An.Loops.String_set.mem label l.An.Loops.blocks
            && not (String.equal label body)
          then Some body
          else None)
        plan.Kernel.p_pipelined
      |> Option.value ~default:label
    in
    let state_of label =
      let label = state_alias label in
      match List.find_opt (fun (l, _, _) -> String.equal l label) block_states with
      | Some (_, s, _) -> Some s
      | None -> None
    in
    let n_states = List.length block_states + 2 in
    Buffer.add_string buf
      (Printf.sprintf
         "// Generated by Cayman for kernel %s/%s (config %s)\n\
          // Estimated: see Kernel.estimate; this netlist shares its plan.\n\
          module %s (\n\
         \  input  wire clk,\n\
         \  input  wire rst,\n\
         \  input  wire start,\n\
         \  output reg  done,\n\
         \  // host memory port (coupled/scan accesses + DMA)\n\
         \  output wire [31:0] mem_addr,\n\
         \  output wire [31:0] mem_wdata,\n\
         \  output wire        mem_wen,\n\
         \  input  wire [31:0] mem_rdata\n\
          );\n"
         func.Ir.Func.name (An.Region.name region)
         (Kernel.config_to_string config)
         module_name);
    (* FSM state declarations *)
    Buffer.add_string buf
      (Printf.sprintf "  localparam S_IDLE = 0, S_DONE = %d;\n"
         (List.length block_states + 1));
    List.iter
      (fun (_, s, i) ->
        Buffer.add_string buf (Printf.sprintf "  localparam %s = %d;\n" s i))
      block_states;
    Buffer.add_string buf "  reg [15:0] state;\n";
    (* architectural registers: every register defined in the region *)
    let arch_regs = Hashtbl.create 32 in
    An.Region.String_set.iter
      (fun label ->
        let dfg = Ctx.dfg ctx label in
        Array.iter
          (fun instr ->
            match Ir.Instr.def instr with
            | Some r -> Hashtbl.replace arch_regs r.Ir.Instr.id r.Ir.Instr.ty
            | None -> ())
          dfg.Dfg.instrs;
        Array.iter
          (fun instr ->
            List.iter
              (fun (r : Ir.Instr.reg) ->
                if not (Hashtbl.mem arch_regs r.Ir.Instr.id) then
                  Hashtbl.replace arch_regs r.Ir.Instr.id r.Ir.Instr.ty)
              (Ir.Instr.uses instr))
          dfg.Dfg.instrs)
      region.An.Region.blocks;
    let n_regs = Hashtbl.length arch_regs in
    Hashtbl.iter
      (fun rid ty ->
        Buffer.add_string buf
          (Printf.sprintf "  reg [%d:0] reg_%s;\n" (width_of ty - 1)
             (keyword_safe rid)))
      arch_regs;
    (* scratchpad banks *)
    List.iter
      (fun (base, words) ->
        add_instance acc
          { i_name = "u_spad_" ^ keyword_safe base;
            i_module = "cayman_scratchpad";
            i_params =
              [ "WORDS", string_of_int words;
                "NAME", Printf.sprintf "\"%s\"" base ];
            i_ports = [ "clk", "clk" ];
            i_state = None; i_block = None; i_pos = None };
        Buffer.add_string buf
          (Printf.sprintf
             "  cayman_scratchpad #(.WORDS(%d), .NAME(\"%s\")) u_spad_%s \
              (.clk(clk));\n"
             words base (keyword_safe base)))
      (Kernel.plan_sp_arrays plan);
    if Kernel.plan_sp_arrays plan <> [] then begin
      add_instance acc
        { i_name = "u_dma"; i_module = "cayman_dma"; i_params = [];
          i_ports =
            [ "clk", "clk"; "addr", "mem_addr"; "wdata", "mem_wdata";
              "wen", "mem_wen"; "rdata", "mem_rdata" ];
          i_state = None; i_block = None; i_pos = None };
      Buffer.add_string buf
        "  cayman_dma u_dma (.clk(clk), .addr(mem_addr), .wdata(mem_wdata), \
         .wen(mem_wen), .rdata(mem_rdata));\n"
    end;
    (* datapaths *)
    let commits_by_block = Hashtbl.create 16 in
    let seq_cycles_by_block = Hashtbl.create 16 in
    List.iter
      (fun label ->
        let dfg = Ctx.dfg ctx label in
        let state = state_of label in
        let state_name =
          match state with
          | Some s -> Printf.sprintf "(state == %s)" s
          | None -> "1'b0"
        in
        let iface = Kernel.plan_iface plan label in
        (* scratchpads are dual-ported SRAM; same schedule the
           estimator charges for this block *)
        let sched = Schedule.run ~sp_banks:2 dfg ~iface in
        Hashtbl.replace seq_cycles_by_block label
          (sched.Schedule.length + Tech.seq_ctrl_cycles);
        let c, m, commits = emit_block buf acc ~suffix:"" ~state ~state_name dfg ~iface in
        n_compute := !n_compute + c;
        n_mem := !n_mem + m;
        Hashtbl.replace commits_by_block label commits)
      plan.Kernel.p_seq_blocks;
    let pipes = ref [] in
    List.iter
      (fun ((l : An.Loops.loop), body, u) ->
        Buffer.add_string buf
          (Printf.sprintf
             "  // pipelined loop %s: body %s, unroll %d; the header compare\n\
              \  // and induction update are absorbed into the pipeline\n\
              \  // controller (II and depth per Pipeline.ii)\n"
             l.An.Loops.header body u);
        let dfg = Ctx.dfg ctx body in
        let state = state_of body in
        let state_name =
          match state with
          | Some s -> Printf.sprintf "(state == %s)" s
          | None -> "1'b0"
        in
        let iface = Kernel.plan_iface plan body in
        (* dual-ported SRAM, banked by the unroll factor — the exact
           schedule/II the estimator uses for this loop *)
        let sched = Schedule.run ~sp_banks:(2 * u) dfg ~iface in
        let depth = sched.Schedule.length + 1 in
        let ii = Pipeline.ii ctx dfg ~iface l ~unroll:u ~sp_banks:(2 * u) in
        let latch =
          match l.An.Loops.latches with
          | latch :: _ -> latch
          | [] -> l.An.Loops.header
        in
        pipes :=
          { pc_state = Option.value state ~default:"S_DONE";
            pc_header = l.An.Loops.header;
            pc_body = body;
            pc_latch = latch;
            pc_blocks = An.Loops.String_set.elements l.An.Loops.blocks;
            pc_unroll = u; pc_depth = depth; pc_ii = ii }
          :: !pipes;
        for k = 0 to u - 1 do
          let suffix = if u > 1 then Printf.sprintf "_u%d" k else "" in
          let c, m, commits =
            emit_block buf acc ~suffix ~state ~state_name dfg ~iface
          in
          n_compute := !n_compute + c;
          n_mem := !n_mem + m;
          if k = 0 then Hashtbl.replace commits_by_block body commits
        done)
      plan.Kernel.p_pipelined;
    (* register commits: at the end of each block's state, defs latch *)
    Buffer.add_string buf "  always @(posedge clk) begin\n";
    List.iter
      (fun (label, s, _) ->
        match Hashtbl.find_opt commits_by_block label with
        | Some ((_ :: _) as commits) ->
          Buffer.add_string buf (Printf.sprintf "    if (state == %s) begin\n" s);
          List.iter
            (fun ((r : Ir.Instr.reg), wire) ->
              Buffer.add_string buf
                (Printf.sprintf "      reg_%s <= %s;\n"
                   (keyword_safe r.Ir.Instr.id) wire))
            commits;
          Buffer.add_string buf "    end\n"
        | Some [] | None -> ())
      block_states;
    Buffer.add_string buf "  end\n";
    (* FSM: block sequencing; edges leaving the region go to S_DONE *)
    let transitions = ref [] in
    let add_transition t = transitions := t :: !transitions in
    Buffer.add_string buf
      "  always @(posedge clk) begin\n\
      \    if (rst) begin state <= S_IDLE; done <= 1'b0; end\n\
      \    else case (state)\n";
    let entry_state =
      match state_of region.An.Region.entry with
      | Some s ->
        Buffer.add_string buf
          (Printf.sprintf
             "      S_IDLE: if (start) begin done <= 1'b0; state <= %s; end\n" s);
        s
      | None ->
        Buffer.add_string buf "      S_IDLE: if (start) state <= S_DONE;\n";
        "S_DONE"
    in
    add_transition
      { t_from = "S_IDLE"; t_guard = Some "start"; t_to = entry_state;
        t_label = Some region.An.Region.entry };
    List.iter
      (fun (label, s, _) ->
        let dfg = Ctx.dfg ctx label in
        let target l =
          match state_of l with
          | Some s' -> s'
          | None -> "S_DONE"
        in
        let as_pipelined =
          List.find_opt
            (fun (_, body, _) -> String.equal body label)
            plan.Kernel.p_pipelined
        in
        match as_pipelined with
        | Some ((l : An.Loops.loop), _, _) ->
          let exit_target, exit_label =
            match l.An.Loops.exits with
            | (_, t) :: _ -> target t, Some t
            | [] -> "S_DONE", None
          in
          add_transition
            { t_from = s; t_guard = None; t_to = exit_target;
              t_label = exit_label };
          Buffer.add_string buf
            (Printf.sprintf
               "      %s: state <= %s; // pipeline controller: after the \
                final iteration drains\n"
               s exit_target)
        | None ->
        match dfg.Dfg.block.Ir.Block.term with
        | Ir.Instr.Jump l ->
          add_transition
            { t_from = s; t_guard = None; t_to = target l; t_label = Some l };
          Buffer.add_string buf
            (Printf.sprintf "      %s: state <= %s;\n" s (target l))
        | Ir.Instr.Branch (c, t, e) ->
          let local_wire rid =
            (* the condition is a block-local wire when defined here *)
            let found = ref None in
            Array.iteri
              (fun i instr ->
                match Ir.Instr.def instr with
                | Some r when String.equal r.Ir.Instr.id rid ->
                  found :=
                    Some
                      (Printf.sprintf "w_%s_%d"
                         (keyword_safe dfg.Dfg.block.Ir.Block.label) i)
                | Some _ | None -> ())
              dfg.Dfg.instrs;
            !found
          in
          let cond = operand_expr ~local_wire c in
          add_transition
            { t_from = s; t_guard = Some cond; t_to = target t;
              t_label = Some t };
          add_transition
            { t_from = s; t_guard = Some (Printf.sprintf "!(%s)" cond);
              t_to = target e; t_label = Some e };
          Buffer.add_string buf
            (Printf.sprintf "      %s: state <= %s ? %s : %s;\n" s
               cond (target t) (target e))
        | Ir.Instr.Return _ ->
          add_transition
            { t_from = s; t_guard = None; t_to = "S_DONE"; t_label = None };
          Buffer.add_string buf
            (Printf.sprintf "      %s: state <= S_DONE;\n" s))
      block_states;
    add_transition
      { t_from = "S_DONE"; t_guard = None; t_to = "S_IDLE"; t_label = None };
    Buffer.add_string buf
      "      S_DONE: begin done <= 1'b1; state <= S_IDLE; end\n\
      \      default: state <= S_IDLE;\n\
      \    endcase\n\
      \  end\n\
       endmodule\n";
    let verilog = Buffer.contents buf in
    let n_wires =
      (* one wire per defined value *)
      List.fold_left
        (fun acc (label, _, _) ->
          acc + Dfg.n_defs (Ctx.dfg ctx label))
        0 block_states
    in
    let pipe_states =
      List.map (fun ((_, body, _) : An.Loops.loop * string * int) -> body)
        plan.Kernel.p_pipelined
    in
    let states =
      { s_name = "S_IDLE"; s_index = 0; s_kind = S_idle; s_block = None;
        s_cycles = 0 }
      :: List.map
           (fun (label, s, i) ->
             let is_pipe = List.exists (String.equal label) pipe_states in
             { s_name = s;
               s_index = i;
               s_kind = (if is_pipe then S_pipe else S_seq);
               s_block = Some label;
               s_cycles =
                 (if is_pipe then 0
                  else
                    Option.value ~default:0
                      (Hashtbl.find_opt seq_cycles_by_block label)) })
           block_states
      @ [ { s_name = "S_DONE"; s_index = List.length block_states + 1;
            s_kind = S_done; s_block = None; s_cycles = 0 } ]
    in
    let commits =
      List.filter_map
        (fun (label, s, _) ->
          match Hashtbl.find_opt commits_by_block label with
          | Some ((_ :: _) as cs) -> Some (s, cs)
          | Some [] | None -> None)
        block_states
    in
    let arch =
      Hashtbl.fold (fun rid ty l -> (rid, ty) :: l) arch_regs []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let structure =
      { nl_name = module_name;
        nl_ports =
          [ "clk", Input, 1; "rst", Input, 1; "start", Input, 1;
            "done", Output, 1; "mem_addr", Output, 32;
            "mem_wdata", Output, 32; "mem_wen", Output, 1;
            "mem_rdata", Input, 32 ];
        nl_params =
          ("S_IDLE", 0)
          :: List.map (fun (_, s, i) -> s, i) block_states
          @ [ "S_DONE", List.length block_states + 1 ];
        nl_regs =
          ("state", 16)
          :: List.map (fun (rid, ty) -> reg_name rid, width_of ty) arch;
        nl_wires = List.rev acc.a_wires;
        nl_assigns = List.rev acc.a_assigns;
        nl_instances = List.rev acc.a_instances;
        nl_states = states;
        nl_transitions = List.rev !transitions;
        nl_entry = entry_state;
        nl_commits = commits;
        nl_pipes = List.rev !pipes;
        nl_sp = Kernel.plan_sp_info plan;
        nl_dma_per_inv = Kernel.plan_dma_per_inv plan;
        nl_region_entry = region.An.Region.entry;
        nl_region_exit = region.An.Region.exit;
        nl_arch_regs = arch }
    in
    Obs.Metrics.incr m_netlists;
    Some
      { module_name;
        verilog;
        stats =
          { n_compute = !n_compute; n_mem = !n_mem; n_regs; n_states; n_wires };
        structure = Some structure }

(* Netlists are deterministic functions of the analysis context, the
   region, beta and the config — exactly what [Fingerprint.netlist_key]
   enumerates (exact names: the module name, FSM states and
   architectural registers all embed them) — so construction memoizes
   through the ambient store. Identity while caching is disabled, which
   it always is during fault campaigns (the [netlist] faultpoint must
   keep firing on the build path). *)
let of_kernel (ctx : Ctx.t) (region : An.Region.t) ?beta
    (config : Kernel.config) =
  if not (Memo.Store.active ()) then build_kernel ctx region ?beta config
  else
    let key =
      Obs.Trace.span ~cat:"memo" "memo.key" (fun () ->
          Fingerprint.netlist_key ctx region
            ~beta:(Option.value beta ~default:Kernel.default_beta)
            ~config)
    in
    Memo.Store.memoize ~ns:"netlist" ~key (fun () ->
        build_kernel ctx region ?beta config)

(* A selected kernel came from [Kernel.estimate], so its netlist
   exists; one that does not is a caller's bug and is refused. *)
let not_synthesizable k =
  invalid_arg
    ("Netlist: kernel " ^ Kernel.spec_name k ^ " is not synthesizable")

let of_spec (k : Kernel.spec) =
  match of_kernel k.Kernel.k_ctx k.Kernel.k_region k.Kernel.k_config with
  | Some n -> n
  | None -> not_synthesizable k

let structure_of k =
  match (of_spec k).structure with
  | Some s -> s
  | None -> not_synthesizable k

(* A reusable (merged) accelerator, the hardware of the paper's Fig. 5:
   one reconfigurable datapath bank sized by the merged resource vector,
   input multiplexers with configuration-bit registers on every shared
   unit, one FSM per covered program region, and a global Ctrl unit that
   selects the active kernel and loads its datapath configuration. The
   caller passes the merged resource vector (from Core.Merge), keeping
   this module independent of the selection layer. *)
let of_reusable ~name ~units ~n_coupled ~n_decoupled ~sp_words ~fsms ~regions
    =
  let module_name = "cayman_reusable_" ^ keyword_safe name in
  let buf = Buffer.create 2048 in
  let n_units =
    List.fold_left (fun acc (_, c) -> acc + c) 0 units
  in
  Buffer.add_string buf
    (Printf.sprintf
       "// Reusable accelerator %s: %d kernels share one reconfigurable\n\
        // datapath (Fig. 5 of the paper). Kernels served:\n"
       name fsms);
  List.iter
    (fun r -> Buffer.add_string buf (Printf.sprintf "//   - %s\n" r))
    regions;
  Buffer.add_string buf
    (Printf.sprintf
       "module %s (\n\
       \  input  wire clk,\n\
       \  input  wire rst,\n\
       \  input  wire start,\n\
       \  input  wire [%d:0] kernel_sel,\n\
       \  output reg  done,\n\
       \  output wire [31:0] mem_addr,\n\
       \  output wire [31:0] mem_wdata,\n\
       \  output wire        mem_wen,\n\
       \  input  wire [31:0] mem_rdata\n\
        );\n"
       module_name
       (max 0 (fsms - 1)));
  (* configuration registers: one bit vector per shared unit instance *)
  Buffer.add_string buf
    (Printf.sprintf "  reg [%d:0] cfg; // reconfiguration bits\n"
       (max 0 (n_units - 1)));
  (* the shared datapath bank with muxed inputs *)
  let idx = ref 0 in
  List.iter
    (fun (k, c) ->
      for j = 0 to c - 1 do
        let base = Printf.sprintf "%s_%d" (Ir.Op.unit_kind_to_string k) j in
        Buffer.add_string buf
          (Printf.sprintf
             "  wire [31:0] %s_a, %s_b, %s_z;\n\
             \  cayman_mux_cfg u_mux_a_%s (.sel(cfg[%d]), .z(%s_a));\n\
             \  cayman_mux_cfg u_mux_b_%s (.sel(cfg[%d]), .z(%s_b));\n\
             \  %s u_%s (.a(%s_a), .b(%s_b), .z(%s_z));\n"
             base base base base !idx base base !idx base (unit_module k)
             base base base base);
        incr idx
      done)
    units;
  (* shared interface units *)
  for j = 0 to n_coupled - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "  cayman_load_coupled u_c%d (.clk(clk), .en(1'b0), .addr(32'd0), \
          .rdata());\n"
         j)
  done;
  for j = 0 to n_decoupled - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "  cayman_stream_load u_d%d (.clk(clk), .en(1'b0), .addr(32'd0), \
          .rdata());\n"
         j)
  done;
  if sp_words > 0 then begin
    Buffer.add_string buf
      (Printf.sprintf
         "  cayman_scratchpad #(.WORDS(%d), .NAME(\"shared\")) u_spad \
          (.clk(clk));\n"
         sp_words);
    Buffer.add_string buf
      "  cayman_dma u_dma (.clk(clk), .addr(mem_addr), .wdata(mem_wdata), \
       .wen(mem_wen), .rdata(mem_rdata));\n"
  end;
  (* one FSM per kernel, a global Ctrl selecting which one runs *)
  Buffer.add_string buf
    (Printf.sprintf "  reg [15:0] fsm_state [0:%d]; // one FSM per kernel\n"
       (max 0 (fsms - 1)));
  Buffer.add_string buf
    "  reg [15:0] active;\n\
    \  // global Ctrl: on start, load the selected kernel's datapath\n\
    \  // configuration and trigger its FSM\n\
    \  always @(posedge clk) begin\n\
    \    if (rst) begin active <= 16'd0; done <= 1'b0; cfg <= 0; end\n\
    \    else if (start) begin\n\
    \      active <= 16'd0 + kernel_sel;\n\
    \      cfg <= ~cfg; // placeholder: per-kernel configuration word\n\
    \      done <= 1'b0;\n\
    \    end\n\
    \    else begin\n\
    \      fsm_state[active] <= fsm_state[active] + 16'd1;\n\
    \      if (fsm_state[active] == 16'hffff) done <= 1'b1;\n\
    \    end\n\
    \  end\n\
     endmodule\n";
  { module_name;
    verilog = Buffer.contents buf;
    stats =
      { n_compute = n_units;
        n_mem = n_coupled + n_decoupled;
        n_regs = n_units; (* one config slice per shared unit *)
        n_states = fsms;
        n_wires = 3 * n_units };
    structure = None }

(* Behavioural stub library for the emitted primitives: enough to lint /
   simulate the structure; floating-point units are integer placeholders
   marked as such. *)
let primitives =
  {|// Cayman primitive library (behavioural stubs).
// Delay/area characterization lives in Tech; these bodies only give the
// netlists something to elaborate against.
module cayman_int_add (input wire [31:0] a, b, output wire [31:0] z);
  assign z = a + b;
endmodule
module cayman_int_mul (input wire [31:0] a, b, output wire [31:0] z);
  assign z = a * b;
endmodule
module cayman_int_div (input wire [31:0] a, b, output wire [31:0] z);
  assign z = (b == 0) ? 32'd0 : a / b;
endmodule
module cayman_int_logic (input wire [31:0] a, b, output wire [31:0] z);
  assign z = a & b; // op variant folded in synthesis
endmodule
module cayman_int_shift (input wire [31:0] a, b, output wire [31:0] z);
  assign z = a << b[4:0];
endmodule
module cayman_int_cmp #(parameter OP = "lt")
  (input wire [31:0] a, b, output wire z);
  assign z = (a < b); // OP variant folded in synthesis
endmodule
module cayman_float_add (input wire [31:0] a, b, output wire [31:0] z);
  assign z = a + b; // FP stub
endmodule
module cayman_float_mul (input wire [31:0] a, b, output wire [31:0] z);
  assign z = a ^ b; // FP stub
endmodule
module cayman_float_div (input wire [31:0] a, b, output wire [31:0] z);
  assign z = a ^ ~b; // FP stub
endmodule
module cayman_float_cmp #(parameter OP = "flt")
  (input wire [31:0] a, b, output wire z);
  assign z = (a < b); // FP stub
endmodule
module cayman_convert (input wire [31:0] a, output wire [31:0] z);
  assign z = a; // conversion stub
endmodule
module cayman_select (input wire sel, input wire [31:0] a, b,
                      output wire [31:0] z);
  assign z = sel ? a : b;
endmodule
module cayman_load_coupled #(parameter ARRAY = "")
  (input wire clk, input wire en, input wire [31:0] addr,
   output reg [31:0] rdata);
  always @(posedge clk) if (en) rdata <= addr; // memory-system stub
endmodule
module cayman_store_coupled #(parameter ARRAY = "")
  (input wire clk, input wire en, input wire [31:0] addr, wdata);
endmodule
module cayman_load_scan #(parameter ARRAY = "")
  (input wire clk, input wire en, input wire [31:0] addr,
   output reg [31:0] rdata);
  always @(posedge clk) if (en) rdata <= addr;
endmodule
module cayman_store_scan #(parameter ARRAY = "")
  (input wire clk, input wire en, input wire [31:0] addr, wdata);
endmodule
module cayman_stream_load #(parameter ARRAY = "")
  (input wire clk, input wire en, input wire [31:0] addr,
   output reg [31:0] rdata);
  always @(posedge clk) if (en) rdata <= addr; // AGU + FIFO stub
endmodule
module cayman_stream_store #(parameter ARRAY = "")
  (input wire clk, input wire en, input wire [31:0] addr, wdata);
endmodule
module cayman_spad_read #(parameter ARRAY = "")
  (input wire clk, input wire en, input wire [31:0] addr,
   output reg [31:0] rdata);
  always @(posedge clk) if (en) rdata <= addr;
endmodule
module cayman_spad_write #(parameter ARRAY = "")
  (input wire clk, input wire en, input wire [31:0] addr, wdata);
endmodule
module cayman_scratchpad #(parameter WORDS = 0, parameter NAME = "")
  (input wire clk);
  reg [31:0] mem [0:(WORDS > 0 ? WORDS - 1 : 0)];
endmodule
module cayman_dma
  (input wire clk, output wire [31:0] addr, wdata, output wire wen,
   input wire [31:0] rdata);
  assign addr = 32'd0; assign wdata = 32'd0; assign wen = 1'b0;
endmodule
module cayman_mux_cfg (input wire sel, output wire [31:0] z);
  assign z = sel ? 32'd1 : 32'd0; // operand routing stub
endmodule
|}
