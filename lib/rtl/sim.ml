module Ir = Cayman_ir
module Hls = Cayman_hls
module Value = Cayman_sim.Value
module Memory = Cayman_sim.Memory
module Interp = Cayman_sim.Interp

(* Deterministic simulator for the structured netlists of
   {!Hls.Netlist.of_kernel}: one kernel invocation is an FSM run from
   the entry state to S_DONE.

   Sequencing, register commits, interface selection and timing come
   from the netlist structure; datapath unit *bodies* are evaluated
   behaviourally through the IR operation each instance implements
   (via {!Interp.eval_bin} etc., so both sides of a co-simulation share
   bit-identical arithmetic — the Verilog stub library deliberately
   fakes the floating-point units).

   - A sequential state evaluates its block's datapath into block-local
     wires (reads of registers defined earlier in the same block go
     through the wire, as in the emitted Verilog), latches the state's
     commit list at the end of the activation, and pays the
     schedule-annotated cycles ([s_cycles] = schedule length +
     FSM control), which embed the interface load/store latencies and
     shared-port occupancy of {!Hls.Schedule}.
   - A pipelined state runs its loop (header -> body -> latch) to
     completion, counting header-to-body iterations, and pays
     [depth + II * (ceil(trip / unroll) - 1) + 2] cycles per entry with
     the netlist's annotated depth/II — the estimator's model applied
     to the *dynamic* trip count.
   - Scratchpad arrays live in a private shadow memory: DMA fills it
     at invocation start and writes stored arrays back at the end;
     every invocation additionally pays the DMA burst cycles and the
     invocation overhead, exactly as {!Hls.Kernel.estimate} charges
     them.

   The simulator is staged: {!compile} resolves a structure once —
   register ids to slots of a value bank with def bytes, block-local
   wires to slots of a wire bank, FSM states and successor labels to
   node indices or exits, commit lists to (slot, wire) pairs, array
   bases to slots resolved once per invocation — and turns every IR
   instruction into one closure. Whether an operand reads a wire or a
   register is decided statically: the wire when an earlier
   instruction of the same block defines it, the register otherwise.
   {!exec} then runs one invocation over those banks. Malformed
   structure found while compiling (an undefined state, a commit with
   no driving wire, ...) compiles to a node that raises the error when
   the walk reaches it, so a broken state the walk never visits never
   fails. *)

exception Rtl_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Rtl_error m)) fmt

(* --- register fault models ---

   A fault targets one architectural register and corrupts the value
   written to it. Writes are counted per invocation — power-up
   initialization is write 1, then every commit increments — so a
   given [f_nth] activates at a deterministic point of the FSM walk
   and stays active from that write onward: a stuck cell never
   recovers, and a shorted bit line or mis-selected commit mux
   corrupts every write through it. *)

type fault_kind =
  | Stuck_zero
  | Stuck_one
  | Flip_bit of int
  | Swap_with of string

type fault = {
  f_reg : string;
  f_kind : fault_kind;
  f_nth : int;
}

let stuck_zero = function
  | Value.Vint _ -> Value.Vint 0
  | Value.Vbool _ -> Value.Vbool false
  | Value.Vfloat _ -> Value.Vfloat 0.0

(* all-ones bit pattern of the value's storage (NaN for floats) *)
let stuck_one = function
  | Value.Vint _ -> Value.Vint (-1)
  | Value.Vbool _ -> Value.Vbool true
  | Value.Vfloat _ -> Value.Vfloat (Int64.float_of_bits (-1L))

let flip_bit k = function
  | Value.Vint n -> Value.Vint (n lxor (1 lsl (k mod 62)))
  | Value.Vbool b -> Value.Vbool (not b)
  | Value.Vfloat x ->
    Value.Vfloat
      (Int64.float_of_bits
         (Int64.logxor (Int64.bits_of_float x)
            (Int64.shift_left 1L (k mod 62))))

type outcome = {
  o_regs : (string * Value.t) list;
      (* architectural register file after S_DONE, sorted by id *)
  o_mem : Memory.t;  (* the simulator's memory image, write-back done *)
  o_exit : string option;  (* IR label control left to; None = return *)
  o_return : Value.t option;
  o_cycles : int;  (* invocation cycles incl. DMA + invoke overhead *)
  o_iterations : int;  (* pipelined-loop iterations executed *)
  o_activations : int;  (* FSM state activations *)
  o_fault_fired : bool;  (* the injected fault corrupted at least one write *)
}


(* An operand resolved at compile time. *)
type src =
  | Wire of int  (* defined earlier in the same block *)
  | Reg of int * string  (* register slot, and its id for the error *)
  | Const of Value.t

(* One block's compiled datapath. Once the block is compiled, [b_src]
   resolves an operand the way its terminator sees it: after every
   instruction of the block. *)
type block = {
  b_run : unit -> unit;
  b_src : Ir.Instr.operand -> src;
  b_final : string -> int option;  (* wire of a register's last definition *)
  b_def_commits : (int * int) array;  (* (slot, wire) per defining instruction *)
  b_term : Ir.Instr.term;
}

type compiled = {
  c_writes : string list;
  c_exec : env:(string -> Value.t option) -> mem:Memory.t -> outcome;
}

let writes c = c.c_writes

let exec c ~env ~mem = c.c_exec ~env ~mem

(* The dense index of [key] in [tbl], assigned on first sight. *)
let intern tbl key =
  match Hashtbl.find_opt tbl key with
  | Some i -> i
  | None ->
    let i = Hashtbl.length tbl in
    Hashtbl.replace tbl key i;
    i

(* The keys of an [intern] table, by index. *)
let keys_by_index tbl dummy =
  let a = Array.make (Hashtbl.length tbl) dummy in
  Hashtbl.iter (fun k i -> a.(i) <- k) tbl;
  a

(* Successor encoding of a compiled FSM node: [>= 0] is the node to
   activate next, [stop] ends the walk (S_IDLE/S_DONE or a return), and
   [exit_code k] leaves the region through the [k]-th exit label. *)
let stop = -1

let exit_code k = -2 - k

let compile ?(max_cycles = 2_000_000_000) ?fault (ctx : Hls.Ctx.t)
    (nl : Hls.Netlist.structure) =
  let open Hls.Netlist in
  (* index the structure; duplicate names resolve as a Hashtbl.replace
     walk over the lists would *)
  let state_by_name = Hashtbl.create 16 in
  List.iter
    (fun (s : fsm_state) -> Hashtbl.replace state_by_name s.s_name s)
    nl.nl_states;
  let pipe_by_state = Hashtbl.create 4 in
  List.iter
    (fun (pc : pipe_ctrl) -> Hashtbl.replace pipe_by_state pc.pc_state pc)
    nl.nl_pipes;
  let commits_by_state = Hashtbl.create 16 in
  List.iter
    (fun (s, cs) -> Hashtbl.replace commits_by_state s cs)
    nl.nl_commits;
  (* IR label -> FSM state (pipelined headers/latches alias to their
     controller's state) *)
  let state_of_label = Hashtbl.create 16 in
  List.iter
    (fun (s : fsm_state) ->
      match s.s_block with
      | Some l -> Hashtbl.replace state_of_label l s.s_name
      | None -> ())
    nl.nl_states;
  List.iter
    (fun (pc : pipe_ctrl) ->
      List.iter
        (fun l ->
          if not (Hashtbl.mem state_of_label l) then
            Hashtbl.replace state_of_label l pc.pc_state)
        pc.pc_blocks)
    nl.nl_pipes;
  (* the DFG of every block a state or controller can evaluate; a label
     without one raises Not_found when the walk reaches it *)
  let dfgs = Hashtbl.create 16 in
  let add_label l =
    if not (Hashtbl.mem dfgs l) then
      Hashtbl.replace dfgs l
        (try Some (Hls.Ctx.dfg ctx l) with Not_found -> None)
  in
  List.iter (fun (s : fsm_state) -> Option.iter add_label s.s_block)
    nl.nl_states;
  List.iter
    (fun (pc : pipe_ctrl) ->
      add_label pc.pc_header;
      List.iter add_label pc.pc_blocks)
    nl.nl_pipes;
  (* register slots: every id the netlist can read or write *)
  let slots = Hashtbl.create 32 in
  let add_reg id = ignore (intern slots id : int) in
  (* array bases, each resolved once per invocation *)
  let base_slots = Hashtbl.create 8 in
  let add_base base = ignore (intern base_slots base : int) in
  let stored = ref [] in
  let max_wires = ref 0 in
  List.iter (fun (rid, _) -> add_reg rid) nl.nl_arch_regs;
  Hashtbl.iter
    (fun _ dfg ->
      match dfg with
      | None -> ()
      | Some (dfg : Hls.Dfg.t) ->
        max_wires := max !max_wires (Array.length dfg.Hls.Dfg.instrs);
        Array.iter
          (fun instr ->
            List.iter
              (fun (r : Ir.Instr.reg) -> add_reg r.Ir.Instr.id)
              (Option.to_list (Ir.Instr.def instr) @ Ir.Instr.uses instr);
            match instr with
            | Ir.Instr.Load (_, m) -> add_base m.Ir.Instr.base
            | Ir.Instr.Store (m, _) ->
              add_base m.Ir.Instr.base;
              stored := m.Ir.Instr.base :: !stored
            | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
            | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Call _ ->
              ())
          dfg.Hls.Dfg.instrs;
        List.iter
          (fun (r : Ir.Instr.reg) -> add_reg r.Ir.Instr.id)
          (Ir.Instr.term_uses dfg.Hls.Dfg.block.Ir.Block.term))
    dfgs;
  List.iter
    (fun (_, cs) ->
      List.iter
        (fun ((r : Ir.Instr.reg), _) -> add_reg r.Ir.Instr.id)
        cs)
    nl.nl_commits;
  (match fault with
   | Some { f_reg; f_kind; _ } ->
     add_reg f_reg;
     (match f_kind with
      | Swap_with other -> add_reg other
      | Stuck_zero | Stuck_one | Flip_bit _ -> ())
   | None -> ());
  let n_regs = Hashtbl.length slots in
  let slot = Hashtbl.find slots in
  (* the banks: architectural registers with their def bytes, and the
     wires of the block being evaluated (blocks never overlap, so one
     bank serves them all) *)
  let regs = Array.make n_regs (Value.Vint 0) in
  let defined = Bytes.make n_regs '\000' in
  let wires = Array.make (max 1 !max_wires) (Value.Vint 0) in
  (* per-invocation state *)
  let fault_writes = ref 0 in
  let fault_fired = ref false in
  let cycles = ref 0 in
  let iterations = ref 0 in
  let activations = ref 0 in
  let exit_label = ref None in
  let return_value = ref None in
  let name = nl.nl_name in
  let get where = function
    | Wire w -> Array.unsafe_get wires w
    | Reg (s, id) ->
      if Bytes.unsafe_get defined s <> '\000' then Array.unsafe_get regs s
      else fail "undriven register %%%s in %s" id where
    | Const v -> v
  in
  let set_reg s v =
    Array.unsafe_set regs s v;
    Bytes.unsafe_set defined s '\001'
  in
  (* every register write funnels through here so the injected fault
     sees a deterministic write count *)
  let write_reg =
    match fault with
    | None -> set_reg
    | Some f ->
      let target = slot f.f_reg in
      let corrupt =
        match f.f_kind with
        | Stuck_zero -> stuck_zero
        | Stuck_one -> stuck_one
        | Flip_bit k -> flip_bit k
        | Swap_with other ->
          let o = slot other in
          fun v ->
            if Bytes.unsafe_get defined o <> '\000' then regs.(o) else v
      in
      fun s v ->
        if s <> target then set_reg s v
        else begin
          incr fault_writes;
          (* every fault class is persistent from the [f_nth] write on:
             a flipped bit or swapped commit source models a shorted
             line or wrong mux select, which corrupts every write
             through it, not just one *)
          if !fault_writes < f.f_nth then set_reg s v
          else begin
            fault_fired := true;
            set_reg s (corrupt v)
          end
        end
  in
  let charge n =
    cycles := !cycles + n;
    if !cycles > max_cycles then
      fail "cycle budget exceeded (%d cycles) in %s" !cycles name
  in
  (* scratchpad arrays resolve to the private shadow, the rest to the
     memory handed in *)
  let sp_bases =
    List.map (fun (sp : Hls.Kernel.sp_info) -> sp.Hls.Kernel.spi_base) nl.nl_sp
  in
  let bases = keys_by_index base_slots "" in
  let is_sp = Array.map (fun base -> List.mem base sp_bases) bases in
  let cells = Array.make (Array.length bases) None in
  let cell b base =
    match Array.unsafe_get cells b with
    | Some c -> c
    | None -> raise (Memory.Fault ("unknown array " ^ base))
  in
  let compile_block label (dfg : Hls.Dfg.t) =
    let wire_of = Hashtbl.create 8 in
    let where = "block " ^ label in
    let src (o : Ir.Instr.operand) =
      match o with
      | Ir.Instr.Reg r ->
        (match Hashtbl.find_opt wire_of r.Ir.Instr.id with
         | Some w -> Wire w
         | None -> Reg (slot r.Ir.Instr.id, r.Ir.Instr.id))
      | Ir.Instr.Imm_int n -> Const (Value.Vint n)
      | Ir.Instr.Imm_float x -> Const (Value.Vfloat x)
      | Ir.Instr.Imm_bool b -> Const (Value.Vbool b)
    in
    let def (r : Ir.Instr.reg) = intern wire_of r.Ir.Instr.id in
    let compile_instr (instr : Ir.Instr.t) : unit -> unit =
      match instr with
      | Ir.Instr.Assign (r, o) ->
        let o = src o in
        let d = def r in
        fun () -> wires.(d) <- get where o
      | Ir.Instr.Unary (r, op, o) ->
        let o = src o in
        let d = def r in
        fun () -> wires.(d) <- Interp.eval_un op (get where o)
      | Ir.Instr.Binary (r, op, a, b) ->
        let a = src a and b = src b in
        let d = def r in
        fun () -> wires.(d) <- Interp.eval_bin op (get where a) (get where b)
      | Ir.Instr.Compare (r, op, a, b) ->
        let a = src a and b = src b in
        let d = def r in
        fun () -> wires.(d) <- Interp.eval_cmp op (get where a) (get where b)
      | Ir.Instr.Select (r, c, a, b) ->
        let c = src c and a = src a and b = src b in
        let d = def r in
        fun () ->
          wires.(d) <-
            (if Value.to_bool (get where c) then get where a else get where b)
      | Ir.Instr.Load (r, m) ->
        let base = m.Ir.Instr.base in
        let bs = Hashtbl.find base_slots base in
        let i = src m.Ir.Instr.index in
        let d = def r in
        let load index = Memory.load_cell (cell bs base) ~base ~index in
        fun () -> wires.(d) <- load (Value.to_int (get where i))
      | Ir.Instr.Store (m, v) ->
        let base = m.Ir.Instr.base in
        let bs = Hashtbl.find base_slots base in
        let i = src m.Ir.Instr.index and v = src v in
        let store index v = Memory.store_cell (cell bs base) ~base ~index v in
        fun () -> store (Value.to_int (get where i)) (get where v)
      | Ir.Instr.Call _ ->
        fun () ->
          fail "call reached the datapath of block %s (unsynthesizable)" label
    in
    (* in program order: [src] depends on the definitions before it *)
    let body = Array.make (Array.length dfg.Hls.Dfg.instrs) ignore in
    Array.iteri (fun k i -> body.(k) <- compile_instr i) dfg.Hls.Dfg.instrs;
    let run () =
      for k = 0 to Array.length body - 1 do
        (Array.unsafe_get body k) ()
      done
    in
    let final_def = Hashtbl.find_opt wire_of in
    let def_commits =
      Array.of_list
        (List.filter_map
           (fun instr ->
             match Ir.Instr.def instr with
             | Some (r : Ir.Instr.reg) ->
               Option.map
                 (fun w -> slot r.Ir.Instr.id, w)
                 (final_def r.Ir.Instr.id)
             | None -> None)
           (Array.to_list dfg.Hls.Dfg.instrs))
    in
    { b_run = run;
      b_src = src;
      b_final = final_def;
      b_def_commits = def_commits;
      b_term = dfg.Hls.Dfg.block.Ir.Block.term }
  in
  let blocks = Hashtbl.create 16 in
  let block label =
    match Hashtbl.find_opt blocks label with
    | Some b -> b
    | None ->
      let b =
        Option.map (compile_block label)
          (Option.join (Hashtbl.find_opt dfgs label))
      in
      Hashtbl.replace blocks label b;
      b
  in
  (* FSM nodes: every state a label can lead to, plus the entry *)
  let node_names = Hashtbl.create 16 in
  let exits = Hashtbl.create 4 in
  let target_of_label l =
    match Hashtbl.find_opt state_of_label l with
    | Some n -> intern node_names n
    | None ->
      (* edge leaves the region: the netlist transitions to S_DONE *)
      exit_code (intern exits l)
  in
  let entry =
    match Hashtbl.find_opt state_by_name nl.nl_entry with
    | Some { s_kind = S_done; _ } | None -> stop
    | Some _ -> intern node_names nl.nl_entry
  in
  Hashtbl.iter (fun _ n -> ignore (intern node_names n : int)) state_of_label;
  let compile_commits state final_def =
    let pairs =
      Array.of_list
        (List.map
           (fun ((r : Ir.Instr.reg), _) ->
             ( slot r.Ir.Instr.id,
               Option.value ~default:(-1) (final_def r.Ir.Instr.id),
               r.Ir.Instr.id ))
           (Option.value ~default:[]
              (Hashtbl.find_opt commits_by_state state)))
    in
    (* nonblocking commits in program order: the final wire value of a
       register id wins, matching the emitted commit block *)
    fun () ->
      for k = 0 to Array.length pairs - 1 do
        let s, w, id = Array.unsafe_get pairs k in
        if w >= 0 then write_reg s wires.(w)
        else fail "commit of %%%s has no driving wire in %s" id name
      done
  in
  let compile_seq state label cost =
    match block label with
    | None -> fun () -> raise Not_found
    | Some b ->
      let next =
        match b.b_term with
        | Ir.Instr.Jump l ->
          let t = target_of_label l in
          fun () -> t
        | Ir.Instr.Branch (c, tl, el) ->
          let c = b.b_src c in
          let where = "branch of " ^ label in
          let t = target_of_label tl and e = target_of_label el in
          fun () -> if Value.to_bool (get where c) then t else e
        | Ir.Instr.Return None -> fun () -> stop
        | Ir.Instr.Return (Some o) ->
          let o = b.b_src o in
          let where = "return of " ^ label in
          fun () ->
            return_value := Some (get where o);
            stop
      in
      let run = b.b_run and commit = compile_commits state b.b_final in
      fun () ->
        run ();
        charge cost;
        let t = next () in
        commit ();
        t
  in
  (* One activation of a pipeline controller: run the loop to
     completion, return the successor of its exit edge. *)
  let compile_pipe (pc : pipe_ctrl) =
    (* the loop blocks get the first indices; the header is stepped
       first even when it is not one of them *)
    let stepped = Hashtbl.create 8 in
    List.iter (fun l -> ignore (intern stepped l : int)) pc.pc_blocks;
    let n_loop = Hashtbl.length stepped in
    let header = intern stepped pc.pc_header in
    let labels = keys_by_index stepped pc.pc_header in
    let pipe_exits = Hashtbl.create 4 in
    (* [>= 0]: the loop block to step next; [-1 - k]: leave through the
       [k]-th exit label *)
    let next_of l =
      match Hashtbl.find_opt stepped l with
      | Some i when i < n_loop -> i
      | Some _ | None -> -1 - intern pipe_exits l
    in
    let compile_step label =
      match block label with
      | None -> fun () -> raise Not_found
      | Some b ->
        let next =
          match b.b_term with
          | Ir.Instr.Jump l ->
            let n = next_of l in
            fun () -> n
          | Ir.Instr.Branch (c, tl, el) ->
            let c = b.b_src c in
            let where = "branch of " ^ label in
            let t = next_of tl and e = next_of el in
            fun () -> if Value.to_bool (get where c) then t else e
          | Ir.Instr.Return _ ->
            fun () ->
              fail "return terminator inside pipelined loop %s" pc.pc_header
        in
        let run = b.b_run and def_commits = b.b_def_commits in
        fun () ->
          run ();
          let n = next () in
          for k = 0 to Array.length def_commits - 1 do
            let s, w = Array.unsafe_get def_commits k in
            write_reg s wires.(w)
          done;
          n
    in
    let steps = Array.map compile_step labels in
    let pipe_exits =
      Array.map target_of_label (keys_by_index pipe_exits pc.pc_header)
    in
    fun () ->
      let trip = ref 0 in
      let walked = ref 0 in
      let cur = ref header in
      let next = ref 0 in
      while !next >= 0 do
        (* cycles are charged only once the loop converges, so bound the
           walk itself: an injected fault that corrupts the loop counter
           must hit the budget, not spin forever *)
        incr walked;
        if !walked > max_cycles then
          fail "cycle budget exceeded (pipelined loop %s walked %d blocks) \
                in %s"
            pc.pc_header !walked name;
        next := (Array.unsafe_get steps !cur) ();
        (* iterations as the profile counts them: header edges into the
           loop body *)
        if !cur = header && !next >= 0 then incr trip;
        if !next >= 0 then cur := !next
      done;
      let groups =
        max 1 ((!trip + pc.pc_unroll - 1) / pc.pc_unroll)
      in
      charge (pc.pc_depth + (pc.pc_ii * (groups - 1)) + 2);
      iterations := !iterations + !trip;
      pipe_exits.(-1 - !next)
  in
  let compile_node n : unit -> int =
    match Hashtbl.find_opt state_by_name n with
    | None -> fun () -> fail "undefined FSM state %s in %s" n name
    | Some st ->
      (match st.s_kind with
       | S_idle | S_done -> fun () -> stop
       | S_pipe ->
         (match Hashtbl.find_opt pipe_by_state n with
          | Some pc -> compile_pipe pc
          | None -> fun () -> fail "state %s has no pipeline controller" n)
       | S_seq ->
         (match st.s_block with
          | Some l -> compile_seq n l st.s_cycles
          | None -> fun () -> fail "sequential state %s has no block" n))
  in
  (* compiling a node can only name states already indexed above *)
  let nodes = Array.map compile_node (keys_by_index node_names "") in
  let exit_labels =
    Array.map Option.some (keys_by_index exits nl.nl_region_entry)
  in
  let arch =
    List.map (fun (rid, ty) -> slot rid, rid, ty) nl.nl_arch_regs
  in
  let sp_shadow = Memory.shadow sp_bases in
  let rec walk t =
    if t >= 0 then begin
      incr activations;
      if !activations > 1_000_000_000 then
        fail "FSM activation budget exceeded in %s" name;
      walk ((Array.unsafe_get nodes t) ())
    end
    else if t <> stop then exit_label := exit_labels.(-2 - t)
  in
  let c_exec ~env ~mem =
    Bytes.fill defined 0 n_regs '\000';
    fault_writes := 0;
    fault_fired := false;
    cycles := 0;
    iterations := 0;
    activations := 0;
    exit_label := None;
    return_value := None;
    (* unwritten registers power up at the invocation's incoming values
       (zero of their type if the host never defined them — the netlist
       reads them only on paths where the golden model defined them
       first, or not at all) *)
    List.iter
      (fun (s, rid, ty) ->
        write_reg s
          (match env rid with
           | Some v -> v
           | None -> Value.zero_of ty))
      arch;
    (* scratchpad shadow: DMA-in every cached array (store-only arrays
       are also fetched so partial write-back cannot clobber untouched
       words), write back the stored ones at S_DONE *)
    let shadow =
      if nl.nl_sp = [] then None else Some (Memory.view sp_shadow mem)
    in
    for b = 0 to Array.length bases - 1 do
      cells.(b) <-
        Memory.find_cell
          (match shadow with
           | Some s when is_sp.(b) -> s
           | Some _ | None -> mem)
          bases.(b)
    done;
    (* invocation prologue/epilogue: synchronization + DMA *)
    charge (nl.nl_dma_per_inv + Hls.Tech.invoke_overhead_cycles);
    walk entry;
    (* write-back of stored scratchpad arrays *)
    (match shadow with
     | Some s ->
       List.iter
         (fun (sp : Hls.Kernel.sp_info) ->
           if sp.Hls.Kernel.spi_stored then
             Memory.blit ~src:s ~dst:mem sp.Hls.Kernel.spi_base)
         nl.nl_sp
     | None -> ());
    { o_regs =
        List.map
          (fun (s, rid, ty) ->
            ( rid,
              if Bytes.get defined s <> '\000' then regs.(s)
              else Value.zero_of ty ))
          arch;
      o_mem = mem;
      o_exit = !exit_label;
      o_return = !return_value;
      o_cycles = !cycles;
      o_iterations = !iterations;
      o_activations = !activations;
      o_fault_fired = !fault_fired }
  in
  let c_writes =
    List.sort_uniq String.compare
      (!stored
       @ List.filter_map
           (fun (sp : Hls.Kernel.sp_info) ->
             if sp.Hls.Kernel.spi_stored then Some sp.Hls.Kernel.spi_base
             else None)
           nl.nl_sp)
  in
  { c_writes; c_exec }

let run ?max_cycles ?fault ctx nl ~env ~mem =
  exec (compile ?max_cycles ?fault ctx nl) ~env ~mem
