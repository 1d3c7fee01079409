module Ir = Cayman_ir
module An = Cayman_analysis
module Hls = Cayman_hls
module Value = Cayman_sim.Value
module Memory = Cayman_sim.Memory
module Interp = Cayman_sim.Interp

(* Differential co-simulation: one observed run of the golden IR
   interpreter, with the RTL netlist simulator replayed against it at
   every kernel-region entry.

   The run watches only the blocks where some kernel acts: each region's
   entry and the blocks its region exits to, plus the returns of the
   kernels' functions. A table built once per run maps each of those
   (function, label) pairs to the kernels that act there; every other
   block runs as in an unobserved run.

   Each kernel's netlist is compiled once ({!Sim.compile}). When the
   golden execution reaches a kernel's region entry, we execute it from
   the live registers and memory: the arrays in the kernel's write set
   are private copies refilled from the golden memory, every other array
   is the golden one. When the golden execution next leaves the region
   (first block outside it, or the function's return), the two worlds
   are compared exactly: architectural registers the golden model holds
   at the exit, the write set's arrays, the dynamic exit edge, and the
   return value if the region returned. Kernel regions contain no calls
   (unsynthesizable otherwise), so every golden observation between
   entry and exit belongs to the same invocation.

   The golden run ends as soon as no kernel can act again. Each kernel
   also watches its done points ({!done_points}): blocks from which
   neither the current activation nor any caller waiting on the stack
   can reach the kernel's region again. A kernel with no pending
   invocation is done at one of them, and a capped kernel is done at
   the entry that finds its cap reached; once every kernel is done,
   nothing the rest of the program does can change a report, so the
   run stops there.

   Simulated cycles accumulate across invocations and are compared to
   {!Hls.Kernel.estimate}'s [accel_cycles] under a documented tolerance:
   the estimator works from profiled *average* trip counts (rounded) and
   ceil-divided unroll groups, while the simulator executes actual
   per-entry trips, so the two agree exactly on affine loops with
   uniform trip counts and drift slightly when trip counts vary between
   entries. Functional comparison has no tolerance: values must be
   equal, bit-for-bit. *)

type tolerance = {
  tol_rel : float;
  tol_abs : int;
}

(* Estimate-vs-simulation cycle agreement: |est - sim| may not exceed
   tol_abs + tol_rel * sim. The default admits the rounding inherent in
   the estimator's averaged-trip model (see DESIGN.md §7); functional
   equivalence is always exact. *)
(* On kernels whose loops have uniform trip counts the simulator
   reproduces [Kernel.estimate] exactly (the Table II sweep agrees to
   +0.00%). Divergence appears only where per-invocation trip counts
   vary: the estimator charges the profile-average trip while the
   simulator executes each actual trip, and pipeline group quantisation
   does not commute with averaging. The worst case observed across the
   full suite x {heuristic, coupled-only, scan-only} is fft's butterfly
   loop at +8.4% (geometrically varying trips), so the default relative
   tolerance is 10%; the absolute floor absorbs rounding on very short
   kernels. *)
let default_tolerance = { tol_rel = 0.10; tol_abs = 16 }

type mismatch = {
  m_invocation : int;
  m_kind : string;  (* "register" | "memory" | "control" | "sim-error" *)
  m_detail : string;
}

type report = {
  r_kernel : string;
  r_config : string;
  r_invocations : int;  (* invocations co-simulated *)
  r_capped : bool;  (* hit [max_invocations]: cycle check skipped *)
  r_sim_cycles : int;
  r_est_cycles : float;
  r_cycles_checked : bool;
  r_cycles_ok : bool;
  r_iterations : int;
  r_mismatches : mismatch list;  (* first [mismatch_cap] in order *)
  r_n_mismatches : int;
  r_fault_fired : bool;  (* injected register fault activated at least once *)
}

let mismatch_cap = 8

let functional_ok r = r.r_n_mismatches = 0

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s [%s]: %d invocation%s, %s" r.r_kernel r.r_config
       r.r_invocations
       (if r.r_invocations = 1 then "" else "s")
       (if functional_ok r then "functionally equivalent"
        else Printf.sprintf "%d MISMATCH%s" r.r_n_mismatches
               (if r.r_n_mismatches = 1 then "" else "ES")));
  if r.r_cycles_checked then
    Buffer.add_string b
      (Printf.sprintf "; cycles sim=%d est=%.0f (%+.2f%%) %s" r.r_sim_cycles
         r.r_est_cycles
         (if r.r_sim_cycles = 0 then 0.0
          else
            (r.r_est_cycles -. float_of_int r.r_sim_cycles)
            *. 100.0
            /. float_of_int r.r_sim_cycles)
         (if r.r_cycles_ok then "within tolerance" else "OUT OF TOLERANCE"))
  else if r.r_capped then
    Buffer.add_string b "; cycle check skipped (invocation cap)"
  else Buffer.add_string b "; never invoked";
  List.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf "\n  inv %d %s: %s" m.m_invocation m.m_kind m.m_detail))
    r.r_mismatches;
  if r.r_n_mismatches > List.length r.r_mismatches then
    Buffer.add_string b
      (Printf.sprintf "\n  ... and %d more"
         (r.r_n_mismatches - List.length r.r_mismatches));
  Buffer.contents b

type spec = Hls.Kernel.spec = {
  k_ctx : Hls.Ctx.t;
  k_region : An.Region.t;
  k_config : Hls.Kernel.config;
}

(* A co-simulation harness invariant was violated: a bug in this
   module, not a netlist/golden-model mismatch (those are reported). *)
exception Internal_error of string

(* Arrays the golden execution of a region can store to. The region has
   no calls, so between its entry and exit the golden run executes
   these blocks only. *)
let region_stores (ctx : Hls.Ctx.t) (region : An.Region.t) =
  List.concat_map
    (fun (b : Ir.Block.t) ->
      if An.Region.String_set.mem b.Ir.Block.label region.An.Region.blocks
      then
        List.filter_map
          (fun (i : Ir.Instr.t) ->
            match i with
            | Ir.Instr.Store (m, _) -> Some m.Ir.Instr.base
            | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
            | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Load _
            | Ir.Instr.Call _ ->
              None)
          b.Ir.Block.instrs
      else [])
    ctx.Hls.Ctx.func.Ir.Func.blocks

(* Blocks control can leave a region to: the successors of its blocks
   that lie outside it, sorted. *)
let region_exits (ctx : Hls.Ctx.t) (region : An.Region.t) =
  let inside l = An.Region.String_set.mem l region.An.Region.blocks in
  List.sort_uniq String.compare
    (List.concat_map
       (fun (b : Ir.Block.t) ->
         if inside b.Ir.Block.label then
           List.filter
             (fun l -> not (inside l))
             (Ir.Instr.term_succs b.Ir.Block.term)
         else [])
       ctx.Hls.Ctx.func.Ir.Func.blocks)

module String_set = An.Region.String_set

(* The done points of a region of [func]: the (function, label) pairs
   of the blocks v of every function g such that, once control enters v
   in some activation of g, no activation can enter the region again.

   R holds [func] and every function that may transitively call it.
   [live g v] holds when, from the entry of block v, the current
   activation of g may still reach a block of the region (in [func])
   or a block that calls into R; it is the backward closure over
   [preds] of those blocks. Every block of the region is a seed, not
   only its entry: the inner blocks of a conditional region need not
   reach its entry, and its exit must still count as leaving it.
   [unsafe g] is the least set such that g is unsafe when some call
   site of g, in a function h, may be followed by a call into R in the
   rest of its block, by a live successor of its block, or when h is
   itself unsafe: a caller waiting on such a call site could still
   reach the region once g returns. A done point is a block v of a
   function g that is not unsafe, where v is not live and has a live
   predecessor, so that it is reached exactly when the current
   activation gives up its last way back to the region. *)
let done_points (program : Ir.Cfg.program) func (region : An.Region.t) =
  let funcs =
    List.concat
      (List.map2
         (fun (f : Ir.Func.t) ix ->
           match ix with
           | Some (cfg, _) -> [ f.Ir.Func.name, cfg ]
           | None -> [])
         program.Ir.Cfg.program.Ir.Program.funcs program.Ir.Cfg.funcs)
  in
  let callee (i : Ir.Instr.t) =
    match i with
    | Ir.Instr.Call (_, g, _) -> Some g
    | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
    | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Load _
    | Ir.Instr.Store _ ->
      None
  in
  let calls_into r instrs =
    List.exists
      (fun i ->
        match callee i with
        | Some g -> String_set.mem g r
        | None -> false)
      instrs
  in
  let rec callers_closure r =
    let r' =
      List.fold_left
        (fun r (g, (cfg : Ir.Cfg.t)) ->
          if
            Array.exists
              (fun (b : Ir.Block.t) -> calls_into r b.Ir.Block.instrs)
              cfg.Ir.Cfg.blocks
          then String_set.add g r
          else r)
        r funcs
    in
    if String_set.equal r r' then r else callers_closure r'
  in
  let into_r = callers_closure (String_set.singleton func) in
  let live =
    List.map
      (fun (g, (cfg : Ir.Cfg.t)) ->
        let l = Array.make cfg.Ir.Cfg.size false in
        let rec seed v =
          if not l.(v) then begin
            l.(v) <- true;
            Array.iter seed cfg.Ir.Cfg.preds.(v)
          end
        in
        Array.iteri
          (fun v (b : Ir.Block.t) ->
            if
              calls_into into_r b.Ir.Block.instrs
              || String.equal g func
                 && String_set.mem cfg.Ir.Cfg.labels.(v)
                      region.An.Region.blocks
            then seed v)
          cfg.Ir.Cfg.blocks;
        g, l)
      funcs
  in
  let unsafe = Hashtbl.create 8 in
  let rec mark g =
    if not (Hashtbl.mem unsafe g) then begin
      Hashtbl.replace unsafe g ();
      (* every callee of an unsafe function is unsafe *)
      Option.iter
        (fun (cfg : Ir.Cfg.t) ->
          Array.iter
            (fun (b : Ir.Block.t) ->
              List.iter
                (fun i -> Option.iter mark (callee i))
                b.Ir.Block.instrs)
            cfg.Ir.Cfg.blocks)
        (List.assoc_opt g funcs)
    end
  in
  List.iter
    (fun (h, (cfg : Ir.Cfg.t)) ->
      let l = List.assoc h live in
      Array.iteri
        (fun v (b : Ir.Block.t) ->
          let succ_live = Array.exists (fun s -> l.(s)) cfg.Ir.Cfg.succs.(v) in
          let rec scan = function
            | [] -> ()
            | i :: rest ->
              (match callee i with
               | Some g when succ_live || calls_into into_r rest -> mark g
               | Some _ | None -> ());
              scan rest
          in
          scan b.Ir.Block.instrs)
        cfg.Ir.Cfg.blocks)
    funcs;
  List.concat_map
    (fun (g, (cfg : Ir.Cfg.t)) ->
      if Hashtbl.mem unsafe g then []
      else
        let l = List.assoc g live in
        List.filter_map
          (fun v ->
            if
              (not l.(v))
              && Array.exists (fun p -> l.(p)) cfg.Ir.Cfg.preds.(v)
            then Some (g, cfg.Ir.Cfg.labels.(v))
            else None)
          (List.init cfg.Ir.Cfg.size Fun.id))
    funcs

(* per-kernel live state during the observed run *)
type kstate = {
  ks_spec : spec;
  ks_sim : Sim.compiled;  (* the netlist, with its injected fault if any *)
  ks_regs : string list;  (* the netlist's architectural registers *)
  ks_writes : string list;  (* sorted: every array an invocation can change *)
  ks_shadow : Memory.shadow;  (* private copies of [ks_writes] *)
  ks_func : string;
  ks_name : string;
  mutable ks_pending : (Sim.outcome, string) result option;
  mutable ks_from : int;  (* golden store-log length at the pending entry *)
  mutable ks_inv : int;  (* golden invocations seen *)
  mutable ks_sim_inv : int;  (* invocations actually co-simulated *)
  mutable ks_cycles : int;
  mutable ks_iters : int;
  mutable ks_mm : mismatch list;  (* reversed *)
  mutable ks_n_mm : int;
  mutable ks_capped : bool;
  mutable ks_fault_fired : bool;
  mutable ks_done : bool;  (* nothing later in the run changes the report *)
}

let note ks kind fmt =
  Printf.ksprintf
    (fun detail ->
      ks.ks_n_mm <- ks.ks_n_mm + 1;
      if ks.ks_n_mm <= mismatch_cap then
        ks.ks_mm <-
          { m_invocation = ks.ks_inv; m_kind = kind; m_detail = detail }
          :: ks.ks_mm)
    fmt

let value_str v = Format.asprintf "%a" Value.pp v

let opt_value_str = function
  | Some v -> value_str v
  | None -> "<none>"

let resolve ks (regs : Interp.regs) at (golden_mem : Memory.t) golden_log how =
  match ks.ks_pending with
  | None -> ()
  | Some pending ->
    ks.ks_pending <- None;
    (match pending with
     | Error msg -> note ks "sim-error" "%s" msg
     | Ok (o : Sim.outcome) ->
       ks.ks_cycles <- ks.ks_cycles + o.Sim.o_cycles;
       ks.ks_iters <- ks.ks_iters + o.Sim.o_iterations;
       (* control: the dynamic exit edge / return value *)
       (match how, o.Sim.o_exit with
        | `Exit l, Some l' when String.equal l l' -> ()
        | `Exit l, e ->
          note ks "control" "golden exits to %s, netlist to %s" l
            (Option.value ~default:"<return>" e)
        | `Return _, Some e ->
          note ks "control" "golden returns, netlist exits to %s" e
        | `Return gv, None ->
          let sv = o.Sim.o_return in
          let eq =
            match gv, sv with
            | None, None -> true
            | Some a, Some b -> Value.equal a b
            | Some _, None | None, Some _ -> false
          in
          if not eq then
            note ks "control" "return value: golden %s, netlist %s"
              (opt_value_str gv) (opt_value_str sv));
       (* registers: every architectural register the golden model holds
          at the exit must match; registers the golden execution never
          defined (dead paths) are unobservable and skipped *)
       List.iter
         (fun (rid, gv, sv) ->
           note ks "register" "%%%s: golden %s, netlist %s" rid (value_str gv)
             (value_str sv))
         (Sim.reg_mismatches ks.ks_sim regs at);
       (* memory: exact, array by array; every other array is shared
          by the two worlds. Both worlds started the invocation from the
          same contents, so an element neither stored since holds its
          entry value in both: only the logged ones can differ. *)
       List.iter
         (fun (base, detail) -> note ks "memory" "%s: %s" base detail)
         (Memory.diff_logged ~bases:ks.ks_writes golden_mem o.Sim.o_mem
            [ golden_log, ks.ks_from; o.Sim.o_stores, 0 ]))

(* The netlist runs to completion here, before the golden run moves
   on, so it may read every array it does not write straight from the
   golden memory. The golden stores of the invocation are those logged
   from here on. *)
let enter ks max_invocations (regs : Interp.regs) at (mem : Memory.t)
    golden_log =
  ks.ks_inv <- ks.ks_inv + 1;
  match max_invocations with
  | Some cap when ks.ks_sim_inv >= cap -> ks.ks_capped <- true
  | Some _ | None ->
    ks.ks_sim_inv <- ks.ks_sim_inv + 1;
    ks.ks_from <- Memory.Log.length golden_log;
    ks.ks_pending <-
      Some
        (try
           let o =
             Sim.exec ks.ks_sim ~env:regs ~at
               ~mem:(Memory.view ks.ks_shadow mem)
           in
           if o.Sim.o_fault_fired then ks.ks_fault_fired <- true;
           Ok o
         with
        | Sim.Rtl_error m -> Error ("Rtl_error: " ^ m)
        | Interp.Runtime_error m -> Error ("Runtime_error: " ^ m)
        | Memory.Fault m -> Error ("memory fault: " ^ m)
        | Value.Type_error m -> Error ("type error: " ^ m))

let m_runs = Obs.Metrics.counter "rtl.cosim_runs"
let m_kernels = Obs.Metrics.counter "rtl.cosim_kernels"
let m_invocations = Obs.Metrics.counter "rtl.cosim_invocations"
let m_sim_cycles = Obs.Metrics.counter "rtl.cosim_sim_cycles"
let m_mismatches = Obs.Metrics.counter "rtl.cosim_mismatches"
let m_golden_stops = Obs.Metrics.counter "rtl.cosim_golden_stops"

(* Raised by a watch handler once every kernel of the run is done. *)
exception Golden_done

let fp_cosim = Obs.Faultpoint.register "cosim"

(* [items] pairs each spec with its netlist structure when the caller
   has built it already; a fault slot's structure overrides both. *)
let run_many_uncached ?fuel ?(tolerance = default_tolerance) ?max_invocations
    ?max_cycles ?faults (program : Ir.Validate.t)
    (items : (spec * Hls.Netlist.structure option) list) =
  Obs.Trace.span ~cat:"rtl" "rtl.cosim" @@ fun () ->
  Obs.Faultpoint.hit fp_cosim;
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_kernels (List.length items);
  (* [faults] pairs up with [items] positionally: a structure override
     (a pre-mutated netlist replacing the freshly built one) and/or a
     register fault for the netlist simulator. *)
  let fault_for =
    match faults with
    | None -> fun _ -> None, None
    | Some fs ->
      let n_specs = List.length items and n_faults = List.length fs in
      if n_faults <> n_specs then
        invalid_arg
          (Printf.sprintf "Cosim: %d fault slots for %d specs" n_faults
             n_specs);
      let arr = Array.of_list fs in
      fun i -> arr.(i)
  in
  let kstates =
    List.mapi
      (fun i (spec, built) ->
        let func = spec.k_ctx.Hls.Ctx.func.Ir.Func.name in
        let structure_override, sim_fault = fault_for i in
        let nl =
          match structure_override, built with
          | Some s, _ | None, Some s -> s
          | None, None -> Hls.Netlist.structure_of spec
        in
        let sim = Sim.compile ?max_cycles ?fault:sim_fault spec.k_ctx nl in
        (* An invocation can change only what the netlist writes and
           what the golden region writes; every other array is equal in
           both worlds at the exit, so it is neither copied nor
           compared. *)
        let writes =
          List.sort_uniq String.compare
            (Sim.writes sim @ region_stores spec.k_ctx spec.k_region)
        in
        List.iter
          (fun base ->
            if not (List.mem base writes) then
              raise
                (Internal_error
                   (Printf.sprintf
                      "rtl.cosim: %s stores to %s outside its write set" func
                      base)))
          (Sim.writes sim);
        { ks_spec = spec;
          ks_sim = sim;
          ks_regs = List.map fst nl.Hls.Netlist.nl_arch_regs;
          ks_writes = writes;
          ks_shadow = Memory.shadow writes;
          ks_func = func;
          ks_name = Hls.Kernel.spec_name spec;
          ks_pending = None;
          ks_from = 0;
          ks_inv = 0;
          ks_sim_inv = 0;
          ks_cycles = 0;
          ks_iters = 0;
          ks_mm = [];
          ks_n_mm = 0;
          ks_capped = false;
          ks_fault_fired = false;
          ks_done = false })
      items
  in
  (* The dispatch table, built once per run. A kernel acts at three kinds
     of watch point: at a block its region exits to, it resolves its
     pending invocation; at its region's entry, it enters; at one of its
     done points, it is done. A kernel region holds no calls, so the
     first block the golden run executes outside the region after an
     entry is one of those exits. Each point resolves its exits, then
     enters its entries, then finishes its done points, each list in
     [kstates] order, so a kernel is done only after the block has
     resolved it; each function's return lists its kernels in [kstates]
     order. Kernels are independent of each other, so the order among
     different kernels changes no report. *)
  let exits = Hashtbl.create 16
  and entries = Hashtbl.create 16
  and dones = Hashtbl.create 16
  and returns = Hashtbl.create 4
  and logged = Hashtbl.create 64 in
  let add tbl key x =
    Hashtbl.replace tbl key
      (x :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
  in
  let checked = (program :> Ir.Cfg.program) in
  let done_points_of = Hashtbl.create 8 in
  List.iter
    (fun ks ->
      let region = ks.ks_spec.k_region in
      add entries (ks.ks_func, region.An.Region.entry) ks;
      List.iter
        (fun l -> add exits (ks.ks_func, l) ks)
        (region_exits ks.ks_spec.k_ctx region);
      String_set.iter
        (fun l -> Hashtbl.replace logged (ks.ks_func, l) ())
        region.An.Region.blocks;
      let key =
        ks.ks_func, String_set.elements region.An.Region.blocks
      in
      let points =
        match Hashtbl.find_opt done_points_of key with
        | Some points -> points
        | None ->
          let points = done_points checked ks.ks_func region in
          Hashtbl.replace done_points_of key points;
          points
      in
      List.iter (fun point -> add dones point ks) points;
      add returns ks.ks_func ks)
    (List.rev kstates);
  let remaining = ref (List.length kstates) in
  let finish ks =
    if (not ks.ks_done) && ks.ks_pending = None then begin
      ks.ks_done <- true;
      decr remaining
    end
  in
  (* The golden run logs the stores of the regions' blocks: between an
     entry and its exit it runs those blocks only, so the log holds
     every golden store of the invocation. It is cleared whenever no
     invocation is pending, so it never outgrows one invocation (the
     outermost, when regions nest). *)
  let golden_log = Memory.Log.create () in
  let n_pending = ref 0 in
  let settle (ks, at) regs mem how =
    if ks.ks_pending <> None then begin
      decr n_pending;
      resolve ks regs at mem golden_log how
    end
  in
  let block_watch label kexits kentries kdones : Interp.block_watch =
    let exit = `Exit label in
    fun ~regs ~mem ->
      List.iter (fun ks -> settle ks regs mem exit) kexits;
      if !n_pending = 0 then Memory.Log.clear golden_log;
      List.iter
        (fun (ks, at) ->
          if ks.ks_pending = None then begin
            enter ks max_invocations regs at mem golden_log;
            if ks.ks_pending <> None then incr n_pending;
            (* past its cap, an entry changes nothing in the report *)
            if ks.ks_capped then finish ks
          end)
        kentries;
      List.iter finish kdones;
      if !remaining = 0 then raise Golden_done
  in
  let return_watch kss : Interp.return_watch =
    fun ~regs ~value ~mem ->
    List.iter (fun ks -> settle ks regs mem (`Return value)) kss
  in
  (* Each watch point declares the architectural registers of the
     kernels that act there, the only registers [enter] and [resolve]
     read, and pairs each of those kernels with its registers' positions
     among them. *)
  let reads kss =
    List.sort_uniq String.compare (List.concat_map (fun ks -> ks.ks_regs) kss)
  in
  let with_positions reads kss =
    List.map (fun ks -> ks, Sim.positions ks.ks_sim reads) kss
  in
  let observer =
    { Interp.obs_block =
        (fun ~func ~label ->
          let find tbl =
            Option.value (Hashtbl.find_opt tbl (func, label)) ~default:[]
          in
          match find exits, find entries, find dones with
          | [], [], [] -> None
          | kexits, kentries, kdones ->
            let reads = reads (kexits @ kentries) in
            Some
              { Interp.w_reads = reads;
                w_run =
                  block_watch label (with_positions reads kexits)
                    (with_positions reads kentries)
                    kdones });
      obs_return =
        (fun ~func ->
          Option.map
            (fun kss ->
              let reads = reads kss in
              { Interp.w_reads = reads;
                w_run = return_watch (with_positions reads kss) })
            (Hashtbl.find_opt returns func));
      obs_logged = (fun ~func ~label -> Hashtbl.mem logged (func, label));
      obs_log = golden_log }
  in
  (* A run with no kernel has nothing to watch and is done before it
     starts. *)
  if kstates <> [] then begin
    let fuel = Engine.Config.fuel ?fuel () in
    match Interp.run ~fuel ~observer checked with
    | (_ : Interp.result) -> ()
    | exception Golden_done -> Obs.Metrics.incr m_golden_stops
  end;
  List.map
    (fun ks ->
      (* a pending invocation can only survive the run if the golden
         interpreter aborted inside the region; Interp.run raising would
         have propagated, so this is purely defensive *)
      if ks.ks_pending <> None then begin
        ks.ks_pending <- None;
        note ks "control" "invocation never left the region"
      end;
      let est =
        match
          Hls.Kernel.estimate ks.ks_spec.k_ctx ks.ks_spec.k_region
            ks.ks_spec.k_config
        with
        | Some p -> p.Hls.Kernel.accel_cycles
        | None -> 0.0
      in
      Obs.Metrics.add m_invocations ks.ks_sim_inv;
      Obs.Metrics.add m_sim_cycles ks.ks_cycles;
      Obs.Metrics.add m_mismatches ks.ks_n_mm;
      let checked = (not ks.ks_capped) && ks.ks_sim_inv > 0 in
      let ok =
        Float.abs (est -. float_of_int ks.ks_cycles)
        <= float_of_int tolerance.tol_abs
           +. (tolerance.tol_rel *. float_of_int ks.ks_cycles)
      in
      { r_kernel = ks.ks_name;
        r_config = Hls.Kernel.config_to_string ks.ks_spec.k_config;
        r_invocations = ks.ks_sim_inv;
        r_capped = ks.ks_capped;
        r_sim_cycles = ks.ks_cycles;
        r_est_cycles = est;
        r_cycles_checked = checked;
        r_cycles_ok = (not checked) || ok;
        r_iterations = ks.ks_iters;
        r_mismatches = List.rev ks.ks_mm;
        r_n_mismatches = ks.ks_n_mm;
        r_fault_fired = ks.ks_fault_fired })
    kstates

(* One spec's verdict is independent of which other specs observe the
   same golden run (observers are read-only), so reports cache
   per-spec. The key enumerates everything a verdict depends on: the
   whole program's exact listing (the golden run; "ir-exact" keeps these
   keys apart from those of the earlier listing, whose six-digit floats
   let two programs share a verdict), the interpreter fuel, the tolerance
   and caps, and the exact netlist key (code + profile/analysis facts +
   config + tech + version salt). Cached verdicts are only consulted on
   fault-free runs: an injection campaign must re-execute the build and
   simulate paths it is trying to break. *)
let m_cached = Obs.Metrics.counter "rtl.cosim_cached_reports"

let spec_key ~program_digest ~fuel ~tolerance ~max_invocations ~max_cycles
    spec =
  let b = Memo.Hash.builder ~ns:"cosim" in
  Memo.Hash.str b "ir-exact";
  Memo.Hash.str b program_digest;
  Memo.Hash.int b fuel;
  Memo.Hash.float b tolerance.tol_rel;
  Memo.Hash.int b tolerance.tol_abs;
  Memo.Hash.int_opt b max_invocations;
  Memo.Hash.int_opt b max_cycles;
  Memo.Hash.str b
    (Hls.Fingerprint.netlist_key spec.k_ctx spec.k_region
       ~beta:Hls.Kernel.default_beta ~config:spec.k_config);
  Memo.Hash.digest b

(* The cache in front of [run_many_uncached], for fault-free runs. *)
let run_cached ?fuel ~tolerance ?max_invocations ?max_cycles
    (program : Ir.Validate.t) (items : (spec * Hls.Netlist.structure option) list)
    =
  if not (Memo.Store.active ()) then
    run_many_uncached ?fuel ~tolerance ?max_invocations ?max_cycles program
      items
  else begin
    let fuel = Engine.Config.fuel ?fuel () in
    let keys =
      Obs.Trace.span ~cat:"memo" "memo.key" (fun () ->
          let program_digest =
            Memo.Hash.program_digest (Ir.Validate.program program)
          in
          List.map
            (fun (spec, _) ->
              spec_key ~program_digest ~fuel ~tolerance ~max_invocations
                ~max_cycles spec)
            items)
    in
    let cached =
      List.map (fun key -> (Memo.Store.find ~ns:"cosim" ~key : report option)) keys
    in
    let missing =
      List.filter_map
        (fun (item, hit) -> if hit = None then Some item else None)
        (List.combine items cached)
    in
    (* Only the uncached specs replay against the golden run; with a
       fully warm cache the interpreter pass is skipped entirely. *)
    let fresh =
      match missing with
      | [] -> []
      | _ ->
        run_many_uncached ~fuel ~tolerance ?max_invocations ?max_cycles
          program missing
    in
    let fresh = ref fresh in
    List.map2
      (fun key hit ->
        match hit with
        | Some r ->
          Obs.Metrics.incr m_cached;
          r
        | None ->
          (match !fresh with
           | r :: rest ->
             fresh := rest;
             Memo.Store.save ~ns:"cosim" ~key r;
             r
           | [] ->
             raise
               (Internal_error
                  "rtl.cosim: fewer fresh reports than uncached specs")))
      keys cached
  end

let run_many ?fuel ?(tolerance = default_tolerance) ?max_invocations
    ?max_cycles ?faults (program : Ir.Validate.t) (specs : spec list) =
  let items = List.map (fun spec -> spec, None) specs in
  match faults with
  | Some _ ->
    run_many_uncached ?fuel ~tolerance ?max_invocations ?max_cycles ?faults
      program items
  | None ->
    run_cached ?fuel ~tolerance ?max_invocations ?max_cycles program items

let run_built ?fuel ?(tolerance = default_tolerance) ?max_invocations program
    built =
  run_cached ?fuel ~tolerance ?max_invocations program
    (List.map (fun (spec, st) -> spec, Some st) built)

let run ?fuel ?tolerance ?max_invocations program spec =
  match run_many ?fuel ?tolerance ?max_invocations program [ spec ] with
  | [ r ] -> r
  | rs ->
    raise
      (Internal_error
         (Printf.sprintf
            "rtl.cosim: run_many returned %d reports for a singleton spec"
            (List.length rs)))
