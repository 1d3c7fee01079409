(* Tests for the accelerator model: DFGs, scheduling, pipelining, and the
   kernel estimator. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim
module Hls = Cayman_hls

let compile_ctx src fname =
  let program = (Cayman_frontend.Lower.compile src :> Ir.Cfg.program) in
  let res = Sim.Interp.run program in
  let ctxs = Hls.Ctx.for_program (An.Wpst.build program) res.Sim.Interp.profile in
  Hashtbl.find ctxs fname

(* The innermost (first) loop region of a function's PST. *)
let first_loop_region (ctx : Hls.Ctx.t) =
  let root = An.Region.pst_of_cfg ctx.Hls.Ctx.cfg in
  let found = ref None in
  An.Region.iter
    (fun r ->
      if r.An.Region.kind = An.Region.Loop_region && !found = None then
        found := Some r)
    root;
  match !found with
  | Some r -> r
  | None -> Alcotest.fail "no loop region"

(* --- DFG --- *)

let mac_src =
  {|const int N = 64;
    float a[N]; float b[N]; float out[1];
    void kernel() {
      float acc = 0.0;
      for (int i = 0; i < N; i++) { acc += a[i] * b[i]; }
      out[0] = acc;
    }
    int main() {
      for (int i = 0; i < N; i++) { a[i] = 1.0; b[i] = 0.5; }
      for (int t = 0; t < 4; t++) { kernel(); }
      return (int)out[0];
    }|}

let body_dfg ctx =
  let region = first_loop_region ctx in
  let body =
    An.Region.String_set.elements region.An.Region.blocks
    |> List.find (fun l -> Testutil.contains l "body")
  in
  Hls.Ctx.dfg ctx body

let test_dfg_structure () =
  let ctx = compile_ctx mac_src "kernel" in
  let dfg = body_dfg ctx in
  Alcotest.(check int) "two memory nodes" 2
    (List.length (Hls.Dfg.mem_nodes dfg));
  Alcotest.(check bool) "no calls" false (Hls.Dfg.has_call dfg);
  let units = Hls.Dfg.unit_counts dfg in
  Alcotest.(check (option int)) "one fmul" (Some 1)
    (List.assoc_opt Ir.Op.U_float_mul units);
  Alcotest.(check (option int)) "one fadd" (Some 1)
    (List.assoc_opt Ir.Op.U_float_add units);
  (* acc is a live-in of the body *)
  Alcotest.(check bool) "acc is live-in" true
    (Hashtbl.fold
       (fun rid _ acc -> acc || Testutil.contains rid "acc")
       dfg.Hls.Dfg.live_in_uses false)

let test_dfg_dependencies_respected () =
  (* in the schedule, every node issues at or after its predecessors'
     issue and no earlier than their finish when crossing cycles *)
  let ctx = compile_ctx mac_src "kernel" in
  let dfg = body_dfg ctx in
  let sched = Hls.Schedule.run dfg ~iface:(fun _ -> Hls.Iface.Coupled) in
  Array.iteri
    (fun i preds ->
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d after pred %d" i p)
            true
            (sched.Hls.Schedule.finish_cycle.(i)
             >= sched.Hls.Schedule.issue_cycle.(p)))
        preds)
    dfg.Hls.Dfg.preds

let test_memory_ordering () =
  (* store then load on the same array must keep order in the DFG *)
  let src =
    {|const int N = 8;
      float a[N];
      void kernel() {
        for (int i = 1; i < N; i++) {
          a[i] = a[i] + 1.0;
          a[i - 1] = a[i] * 2.0;
        }
      }
      int main() {
        for (int i = 0; i < N; i++) { a[i] = 1.0; }
        kernel();
        return (int)a[0];
      }|}
  in
  let ctx = compile_ctx src "kernel" in
  let dfg = body_dfg ctx in
  let mem = Hls.Dfg.mem_nodes dfg in
  (* the later load depends (transitively) on the earlier store *)
  let stores =
    List.filter
      (fun i ->
        match dfg.Hls.Dfg.instrs.(i) with
        | Ir.Instr.Store _ -> true
        | _ -> false)
      mem
  in
  Alcotest.(check int) "two stores" 2 (List.length stores);
  let first_store = List.hd stores in
  let later_loads =
    List.filter
      (fun i ->
        i > first_store
        &&
        match dfg.Hls.Dfg.instrs.(i) with
        | Ir.Instr.Load _ -> true
        | _ -> false)
      mem
  in
  List.iter
    (fun ld ->
      let rec reaches n =
        n = first_store || List.exists reaches dfg.Hls.Dfg.preds.(n)
      in
      Alcotest.(check bool)
        (Printf.sprintf "load %d ordered after store %d" ld first_store)
        true (reaches ld))
    later_loads

(* --- scheduling --- *)

let test_chaining_packs_cheap_ops () =
  (* a chain of 4 int adds fits in far fewer cycles than 4 *)
  let src =
    {|const int N = 4;
      int a[N];
      void kernel(int x) {
        for (int i = 0; i < N; i++) {
          a[i] = x + 1 + i + x + i;
        }
      }
      int main() { kernel(3); return a[1]; }|}
  in
  let ctx = compile_ctx src "kernel" in
  let dfg = body_dfg ctx in
  let sched = Hls.Schedule.run dfg ~iface:(fun _ -> Hls.Iface.Scratchpad) in
  Alcotest.(check bool) "chained adds take <= 4 cycles" true
    (sched.Hls.Schedule.length <= 4)

let test_interface_latency_ordering () =
  (* block latency: scan >= coupled >= decoupled >= scratchpad *)
  let ctx = compile_ctx mac_src "kernel" in
  let dfg = body_dfg ctx in
  let len k = (Hls.Schedule.run dfg ~iface:(fun _ -> k)).Hls.Schedule.length in
  let scan = len Hls.Iface.Scan in
  let coupled = len Hls.Iface.Coupled in
  let decoupled = len Hls.Iface.Decoupled in
  let scratchpad = len Hls.Iface.Scratchpad in
  Alcotest.(check bool) "scan slowest" true (scan >= coupled);
  Alcotest.(check bool) "coupled >= decoupled" true (coupled >= decoupled);
  Alcotest.(check bool) "decoupled >= scratchpad" true
    (decoupled >= scratchpad)

let test_coupled_port_serializes () =
  (* with one shared port, many loads serialize: latency grows with the
     number of coupled accesses *)
  let src =
    {|const int N = 16;
      float a[N]; float o[N];
      void kernel() {
        for (int i = 4; i < N - 4; i++) {
          o[i] = a[i - 2] + a[i - 1] + a[i] + a[i + 1] + a[i + 2];
        }
      }
      int main() {
        for (int i = 0; i < N; i++) { a[i] = 1.0; }
        kernel();
        return (int)o[5];
      }|}
  in
  let ctx = compile_ctx src "kernel" in
  let dfg = body_dfg ctx in
  let coupled =
    (Hls.Schedule.run dfg ~iface:(fun _ -> Hls.Iface.Coupled)).Hls.Schedule.length
  in
  let decoupled =
    (Hls.Schedule.run dfg ~iface:(fun _ -> Hls.Iface.Decoupled)).Hls.Schedule.length
  in
  Alcotest.(check bool) "5 loads serialize on the coupled port" true
    (coupled >= decoupled + 4)

(* --- pipelining --- *)

let test_rec_mii_accumulator () =
  let ctx = compile_ctx mac_src "kernel" in
  let dfg = body_dfg ctx in
  let loop =
    List.find
      (fun (l : An.Loops.loop) -> An.Loops.is_innermost ctx.Hls.Ctx.loops l)
      ctx.Hls.Ctx.loops
  in
  let mii =
    Hls.Pipeline.rec_mii ctx dfg ~iface:(fun _ -> Hls.Iface.Decoupled) loop
  in
  (* the acc += ... recurrence is one float add: latency 2 cycles *)
  Alcotest.(check int) "RecMII = fadd latency"
    (Hls.Tech.latency_cycles Ir.Op.U_float_add) mii

let test_res_mii_scaling () =
  let ctx = compile_ctx mac_src "kernel" in
  let dfg = body_dfg ctx in
  let coupled = fun _ -> Hls.Iface.Coupled in
  let m1 = Hls.Pipeline.res_mii dfg ~iface:coupled ~unroll:1 ~sp_banks:1 in
  let m4 = Hls.Pipeline.res_mii dfg ~iface:coupled ~unroll:4 ~sp_banks:1 in
  Alcotest.(check int) "coupled ResMII scales with unroll" (4 * m1) m4;
  let sp = fun _ -> Hls.Iface.Scratchpad in
  let s1 = Hls.Pipeline.res_mii dfg ~iface:sp ~unroll:1 ~sp_banks:1 in
  let s4 = Hls.Pipeline.res_mii dfg ~iface:sp ~unroll:4 ~sp_banks:4 in
  Alcotest.(check int) "banked scratchpad ResMII stays flat" s1 s4;
  let d = fun _ -> Hls.Iface.Decoupled in
  Alcotest.(check int) "decoupled ResMII is 1" 1
    (Hls.Pipeline.res_mii dfg ~iface:d ~unroll:8 ~sp_banks:1)

(* --- kernel estimation --- *)

let test_estimate_basic () =
  let ctx = compile_ctx mac_src "kernel" in
  let region = first_loop_region ctx in
  let config =
    { Hls.Kernel.unroll = 1; pipeline = true; mode = Hls.Kernel.Heuristic }
  in
  match Hls.Kernel.estimate ctx region config with
  | None -> Alcotest.fail "estimate must succeed"
  | Some p ->
    Alcotest.(check bool) "positive cycles" true (p.Hls.Kernel.accel_cycles > 0.0);
    Alcotest.(check bool) "positive area" true (p.Hls.Kernel.area > 0.0);
    Alcotest.(check int) "one pipelined region" 1 p.Hls.Kernel.n_pipelined;
    Alcotest.(check int) "4 invocations" 4 p.Hls.Kernel.invocations;
    Alcotest.(check bool) "has datapath units" true (p.Hls.Kernel.units <> [])

let test_pipeline_beats_sequential () =
  let ctx = compile_ctx mac_src "kernel" in
  let region = first_loop_region ctx in
  let est pipeline =
    match
      Hls.Kernel.estimate ctx region
        { Hls.Kernel.unroll = 1; pipeline; mode = Hls.Kernel.Heuristic }
    with
    | Some p -> p.Hls.Kernel.accel_cycles
    | None -> Alcotest.fail "estimate failed"
  in
  Alcotest.(check bool) "pipelined is faster" true (est true < est false)

let test_coupled_only_not_faster () =
  let ctx = compile_ctx mac_src "kernel" in
  let region = first_loop_region ctx in
  let est mode =
    match
      Hls.Kernel.estimate ctx region
        { Hls.Kernel.unroll = 1; pipeline = true; mode }
    with
    | Some p -> p.Hls.Kernel.accel_cycles
    | None -> Alcotest.fail "estimate failed"
  in
  Alcotest.(check bool) "heuristic <= coupled-only" true
    (est Hls.Kernel.Heuristic <= est Hls.Kernel.Coupled_only);
  Alcotest.(check bool) "coupled-only <= scan-only" true
    (est Hls.Kernel.Coupled_only <= est Hls.Kernel.Scan_only)

let test_region_with_call_rejected () =
  let src =
    {|const int N = 8;
      float a[N];
      float helper(float x) { return x * 2.0; }
      void kernel() {
        for (int i = 0; i < N; i++) { a[i] = helper(a[i]); }
      }
      int main() {
        for (int i = 0; i < N; i++) { a[i] = 1.0; }
        kernel();
        return (int)a[0];
      }|}
  in
  let ctx = compile_ctx src "kernel" in
  let region = first_loop_region ctx in
  Alcotest.(check bool) "region with call has no design points" true
    (Hls.Kernel.estimate ctx region
       { Hls.Kernel.unroll = 1; pipeline = true; mode = Hls.Kernel.Heuristic }
     = None)

let test_unroll_blocked_by_carried_dep () =
  (* the MAC loop has an accumulator: unroll must silently stay at 1, so
     u=4 and u=1 give identical unit counts *)
  let ctx = compile_ctx mac_src "kernel" in
  let region = first_loop_region ctx in
  let units u =
    match
      Hls.Kernel.estimate ctx region
        { Hls.Kernel.unroll = u; pipeline = true; mode = Hls.Kernel.Heuristic }
    with
    | Some p -> p.Hls.Kernel.units
    | None -> Alcotest.fail "estimate failed"
  in
  Alcotest.(check bool) "no replication under carried dep" true
    (units 1 = units 4)

let test_unroll_replicates_dep_free_loop () =
  let src =
    {|const int N = 64;
      float a[N]; float b[N];
      void kernel() {
        for (int i = 0; i < N; i++) { b[i] = a[i] * 2.0 + 1.0; }
      }
      int main() {
        for (int i = 0; i < N; i++) { a[i] = 1.0; }
        for (int t = 0; t < 4; t++) { kernel(); }
        return (int)b[0];
      }|}
  in
  let ctx = compile_ctx src "kernel" in
  let region = first_loop_region ctx in
  let point u =
    match
      Hls.Kernel.estimate ctx region
        { Hls.Kernel.unroll = u; pipeline = true; mode = Hls.Kernel.Heuristic }
    with
    | Some p -> p
    | None -> Alcotest.fail "estimate failed"
  in
  let p1 = point 1 and p4 = point 4 in
  let count p k = Option.value (List.assoc_opt k p.Hls.Kernel.units) ~default:0 in
  Alcotest.(check int) "fmul replicated x4"
    (4 * count p1 Ir.Op.U_float_mul)
    (count p4 Ir.Op.U_float_mul);
  Alcotest.(check bool) "unrolled area larger" true
    (p4.Hls.Kernel.area > p1.Hls.Kernel.area);
  Alcotest.(check bool) "unrolled not slower" true
    (p4.Hls.Kernel.accel_cycles <= p1.Hls.Kernel.accel_cycles)

let test_tech_sanity () =
  Alcotest.(check bool) "fdiv slower than fadd" true
    (Hls.Tech.delay_ns Ir.Op.U_float_div > Hls.Tech.delay_ns Ir.Op.U_float_add);
  Alcotest.(check bool) "fmul bigger than int add" true
    (Hls.Tech.area Ir.Op.U_float_mul > Hls.Tech.area Ir.Op.U_int_add);
  Alcotest.(check int) "sub-cycle op takes 1 cycle" 1
    (Hls.Tech.latency_cycles Ir.Op.U_int_add);
  Alcotest.(check (float 1e-9)) "frequency is 500 MHz" 0.5e9
    Hls.Tech.accel_freq_hz;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Ir.Op.unit_kind_to_string k ^ " positive tables")
        true
        (Hls.Tech.delay_ns k > 0.0 && Hls.Tech.area k > 0.0
         && Hls.Tech.latency_cycles k >= 1))
    Ir.Op.all_unit_kinds

let test_saved_seconds_sign () =
  let ctx = compile_ctx mac_src "kernel" in
  let region = first_loop_region ctx in
  match
    Hls.Kernel.estimate ctx region
      { Hls.Kernel.unroll = 1; pipeline = true; mode = Hls.Kernel.Heuristic }
  with
  | Some p ->
    Alcotest.(check bool) "pipelined MAC saves time" true
      (Hls.Kernel.saved_seconds p > 0.0)
  | None -> Alcotest.fail "estimate failed"

(* --- the per-region facts / per-config split --- *)

(* Every region of a program with its function's context. *)
let regions_of (a : Core.Cayman.analyzed) =
  let acc = ref [] in
  An.Wpst.iter
    (fun fname r ->
      match Hashtbl.find_opt a.Core.Cayman.ctxs fname with
      | Some ctx -> acc := (ctx, r) :: !acc
      | None -> ())
    a.Core.Cayman.wpst;
  List.rev !acc

let sweep_programs () =
  List.map
    (fun name ->
      name,
      Core.Cayman.analyze
        (Cayman_suites.Suite.compile (Cayman_suites.Suite.find_exn name)))
    [ "3mm"; "atax"; "fft" ]
  @ List.init 64 (fun i ->
      ( Printf.sprintf "genprog-%d" i,
        Core.Cayman.analyze_source (Fleet.Genprog.minic_source ~seed:7 ~index:i) ))

(* The naive sweep [estimate_all] must equal: one [estimate] per
   configuration, then the (cycles, area) dedup. *)
let naive_sweep ctx r configs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (p : Hls.Kernel.point) ->
      let key = (p.Hls.Kernel.accel_cycles, p.Hls.Kernel.area) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    (List.filter_map (Hls.Kernel.estimate ctx r) configs)

(* [estimate_all] analyses a region once and evaluates each configuration
   over the result; it must return exactly what one [estimate] call per
   configuration returns after the same (cycles, area) dedup. *)
let test_estimate_all_equals_per_config () =
  let configs =
    List.concat_map Hls.Kernel.default_configs Testutil.all_modes
    @ [ { Hls.Kernel.unroll = 0; pipeline = true; mode = Hls.Kernel.Heuristic } ]
  in
  let regions = ref 0 and with_points = ref 0 in
  List.iter
    (fun (name, a) ->
      List.iter
        (fun ((ctx : Hls.Ctx.t), (r : An.Region.t)) ->
          incr regions;
          let staged = Hls.Kernel.estimate_all ctx r configs in
          let single = naive_sweep ctx r configs in
          if staged <> [] then incr with_points;
          if staged <> single then
            Alcotest.failf "%s, region %s: estimate_all differs from per-config \
                            estimate" name (An.Region.name r))
        (regions_of a))
    (sweep_programs ());
  Alcotest.(check bool) "some regions synthesize" true (!with_points > 0);
  Alcotest.(check bool) "regions swept" true (!regions > !with_points)

(* Scev classification is a per-function fact: [Ctx.create] classifies
   each memory access of its function exactly once, and a sweep over
   the seven Heuristic configurations of any region classifies none. *)
let test_ctx_classifies_once () =
  let m = Obs.Metrics.counter "analysis.scev_accesses_classified" in
  let a =
    Core.Cayman.analyze
      (Cayman_suites.Suite.compile (Cayman_suites.Suite.find_exn "atax"))
  in
  let configs = Hls.Kernel.default_configs Hls.Kernel.Heuristic in
  Alcotest.(check int) "seven configurations" 7 (List.length configs);
  Engine.Config.set_jobs 1;
  Fun.protect ~finally:Engine.Config.clear_jobs (fun () ->
      let checked = ref 0 in
      List.iter
        (fun (ft : An.Wpst.func_tree) ->
          let cfg = ft.An.Wpst.cfg in
          let accesses =
            Array.fold_left
              (fun n b -> n + List.length (Hls.Dfg.mem_nodes (Hls.Dfg.of_block b)))
              0 cfg.Ir.Cfg.blocks
          in
          let before = Obs.Metrics.value m in
          ignore (Hls.Ctx.create a.Core.Cayman.wpst.An.Wpst.program
                    a.Core.Cayman.profile cfg ft.An.Wpst.md);
          if accesses > 0 then incr checked;
          Alcotest.(check int)
            (ft.An.Wpst.fname ^ " classified once per access")
            accesses
            (Obs.Metrics.value m - before))
        a.Core.Cayman.wpst.An.Wpst.funcs;
      Alcotest.(check bool) "functions with accesses checked" true (!checked > 0);
      List.iter
        (fun ((ctx : Hls.Ctx.t), (r : An.Region.t)) ->
          let before = Obs.Metrics.value m in
          ignore (Hls.Kernel.estimate_all ctx r configs);
          Alcotest.(check int)
            (An.Region.name r ^ " sweep classifies nothing")
            0
            (Obs.Metrics.value m - before))
        (regions_of a))

(* The distinct block plans of [configs] over region [r], counted from
   the plans alone: one (block, scratchpad banks, interface vector) triple
   per sequential block (two banks) and per pipelined body (two banks per
   unroll), over the configurations that yield a design point. *)
let distinct_block_plans ctx r configs =
  let triples = Hashtbl.create 16 in
  List.iter
    (fun config ->
      match Hls.Kernel.estimate ctx r config, Hls.Kernel.plan ctx r config with
      | Some _, Some p ->
        let add label banks =
          let kinds =
            List.map
              (Hls.Kernel.plan_iface p label)
              (Hls.Dfg.mem_nodes (Hls.Ctx.dfg ctx label))
          in
          Hashtbl.replace triples (label, banks, kinds) ()
        in
        List.iter (fun label -> add label 2) p.Hls.Kernel.p_seq_blocks;
        List.iter (fun (_, body, u) -> add body (2 * u)) p.Hls.Kernel.p_pipelined
      | None, _ | Some _, None -> ())
    configs;
  Hashtbl.length triples

let m_schedules = Obs.Metrics.counter "hls.schedules_run"

(* The schedules one [estimate_all] sweep runs. *)
let sweep_schedules ctx r configs =
  let before = Obs.Metrics.value m_schedules in
  let points = Hls.Kernel.estimate_all ctx r configs in
  points, Obs.Metrics.value m_schedules - before

(* A sweep schedules each distinct block plan once: over the seven
   Heuristic configurations of every atax region, the schedules one
   [estimate_all] runs are exactly the distinct block plans. *)
let test_estimate_all_schedules_once () =
  let a =
    Core.Cayman.analyze
      (Cayman_suites.Suite.compile (Cayman_suites.Suite.find_exn "atax"))
  in
  let configs = Hls.Kernel.default_configs Hls.Kernel.Heuristic in
  let shared = ref 0 in
  List.iter
    (fun ((ctx : Hls.Ctx.t), (r : An.Region.t)) ->
      let expected = distinct_block_plans ctx r configs in
      let _, ran = sweep_schedules ctx r configs in
      Alcotest.(check int)
        (An.Region.name r ^ " schedules each block plan once")
        expected ran;
      (* a region whose configurations share block plans *)
      let per_config =
        List.fold_left
          (fun n c -> n + distinct_block_plans ctx r [ c ])
          0 configs
      in
      if per_config > expected then incr shared)
    (regions_of a);
  Alcotest.(check bool) "some sweeps share block plans" true (!shared > 0)

(* Two configurations that differ only in unroll give a scratchpad-bound
   body the same interface vector but different bank counts; the table
   must keep them apart. The body's twelve independent scratchpad
   accesses need three cycles of four banks but two of eight. *)
let test_block_plans_keep_bank_counts () =
  let src =
    {|const int N = 64;
      const int M = 72;
      float a[M];
      float b0[N]; float b1[N]; float b2[N]; float b3[N]; float b4[N];
      float b5[N];
      void kernel() {
        for (int i = 0; i < N; i++) {
          b0[i] = a[i]; b1[i] = a[i + 1]; b2[i] = a[i + 2];
          b3[i] = a[i + 3]; b4[i] = a[i + 4]; b5[i] = a[i + 5];
        }
      }
      int main() {
        for (int i = 0; i < M; i++) { a[i] = 1.0; }
        for (int t = 0; t < 4; t++) { kernel(); }
        return (int)b5[0];
      }|}
  in
  let ctx = compile_ctx src "kernel" in
  let r = first_loop_region ctx in
  let config u =
    { Hls.Kernel.unroll = u; pipeline = true;
      mode = Hls.Kernel.Scratchpad_preferred }
  in
  let body_plan u =
    match Hls.Kernel.plan ctx r (config u) with
    | Some ({ Hls.Kernel.p_pipelined = [ (loop, body, u') ]; _ } as p) ->
      Alcotest.(check int) "unroll applies" u u';
      let dfg = Hls.Ctx.dfg ctx body in
      let iface = Hls.Kernel.plan_iface p body in
      let kinds = List.map iface (Hls.Dfg.mem_nodes dfg) in
      ( kinds,
        ( Hls.Schedule.block_latency ~sp_banks:(2 * u) dfg ~iface,
          Hls.Pipeline.ii ctx dfg ~iface loop ~unroll:u ~sp_banks:(2 * u) ) )
    | Some _ | None -> Alcotest.fail "expected one pipelined loop"
  in
  let kinds2, timing2 = body_plan 2 and kinds4, timing4 = body_plan 4 in
  Alcotest.(check bool) "all scratchpad" true
    (List.for_all (fun k -> k = Hls.Iface.Scratchpad) kinds2);
  Alcotest.(check bool) "same interface vector" true (kinds2 = kinds4);
  Alcotest.(check bool) "bank count moves the schedule" true (timing2 <> timing4);
  let configs = [ config 2; config 4 ] in
  let points, ran = sweep_schedules ctx r configs in
  Alcotest.(check int) "one schedule per block plan"
    (distinct_block_plans ctx r configs) ran;
  Alcotest.(check bool) "same points as per-config estimates" true
    (points = List.filter_map (Hls.Kernel.estimate ctx r) configs);
  Alcotest.(check int) "two points" 2 (List.length points)

(* --- one evaluation per plan --- *)

(* The distinct plans of a configuration list, read from the plans
   alone: a plan is fixed by its mode and the unroll factor of each
   pipelined loop (none for the sequential plan), over the
   configurations that yield a design point. *)
let distinct_plans ctx r configs =
  let keys = Hashtbl.create 8 in
  List.iter
    (fun (config : Hls.Kernel.config) ->
      match Hls.Kernel.estimate ctx r config, Hls.Kernel.plan ctx r config with
      | Some _, Some p ->
        Hashtbl.replace keys
          ( config.Hls.Kernel.mode,
            List.map (fun (_, _, u) -> u) p.Hls.Kernel.p_pipelined )
          ()
      | None, _ | Some _, None -> ())
    configs;
  Hashtbl.length keys

let m_estimates = Obs.Metrics.counter "hls.kernel_estimates"
let m_plans = Obs.Metrics.counter "hls.kernel_plans"

(* Every (program, context, region) of the shared corpus. *)
let corpus_regions () =
  List.concat_map
    (fun (name, a) -> List.map (fun (ctx, r) -> name, ctx, r) (regions_of a))
    (Lazy.force Testutil.sweep_corpus)

(* Over every wPST region of the Table II programs and four generated
   fleets, in all five modes: [estimate_all] returns the naive sweep's
   points (config fields included), counts one estimate per
   configuration, and evaluates one plan per distinct plan key. *)
let test_estimate_all_one_plan_each () =
  let regions = ref 0 and shared = ref 0 in
  List.iter
    (fun (name, ctx, r) ->
      List.iter
        (fun mode ->
          let configs = Hls.Kernel.default_configs mode in
          let expected = naive_sweep ctx r configs in
          let plans = distinct_plans ctx r configs in
          let e0 = Obs.Metrics.value m_estimates
          and p0 = Obs.Metrics.value m_plans in
          let got = Hls.Kernel.estimate_all ctx r configs in
          let where =
            Printf.sprintf "%s region %s, %s" name (An.Region.name r)
              (Hls.Kernel.mode_to_string mode)
          in
          incr regions;
          if got <> expected then
            Alcotest.failf "%s: estimate_all differs from the naive sweep" where;
          Alcotest.(check int) (where ^ ": estimates") (List.length configs)
            (Obs.Metrics.value m_estimates - e0);
          Alcotest.(check int) (where ^ ": plans") plans
            (Obs.Metrics.value m_plans - p0);
          if plans > 0 && plans < List.length configs then incr shared)
        Testutil.all_modes)
    (corpus_regions ());
  Alcotest.(check bool) "regions swept" true (!regions > 0);
  Alcotest.(check bool) "some sweeps share plans" true (!shared > 0)

(* The [schedule] fault point armed at its k-th hit stops [estimate_all]
   at the same configuration as the naive sweep: every configuration,
   skipped or not, hits it once, before it counts its estimate. *)
let test_estimate_all_fault_hits () =
  let raised_after sweep k =
    let e0 = Obs.Metrics.value m_estimates in
    match Obs.Faultpoint.with_armed ~nth:k "schedule" sweep with
    | _ -> None
    | exception Obs.Faultpoint.Injected "schedule" ->
      Some (Obs.Metrics.value m_estimates - e0)
  in
  let checked = ref 0 in
  List.iter
    (fun (name, ctx, r) ->
      List.iter
        (fun mode ->
          let configs = Hls.Kernel.default_configs mode in
          for k = 1 to List.length configs + 1 do
            let naive =
              raised_after (fun () -> ignore (naive_sweep ctx r configs)) k
            and swept =
              raised_after
                (fun () -> ignore (Hls.Kernel.estimate_all ctx r configs))
                k
            in
            incr checked;
            let expected =
              if k <= List.length configs then Some (k - 1) else None
            in
            if naive <> swept || naive <> expected then
              Alcotest.failf "%s region %s, %s, hit %d: sweep stops elsewhere"
                name (An.Region.name r) (Hls.Kernel.mode_to_string mode) k
          done)
        Testutil.all_modes)
    (corpus_regions ());
  Alcotest.(check bool) "armed sweeps checked" true (!checked > 0)

(* A region's facts visit its blocks in label order, the order the
   per-region derivation used, so every float sum of the model keeps its
   bits: a sequential plan lists every block of the region in that
   order, and a pipelined one the blocks outside its pipelined loops,
   still sorted. *)
let test_plans_in_label_order () =
  let checked = ref 0 in
  List.iter
    (fun (name, ctx, (r : An.Region.t)) ->
      let labels = An.Region.String_set.elements r.An.Region.blocks in
      List.iter
        (fun pipeline ->
          let config =
            { Hls.Kernel.unroll = 1; pipeline; mode = Hls.Kernel.Heuristic }
          in
          match Hls.Kernel.plan ctx r config with
          | None -> ()
          | Some p ->
            let seq = p.Hls.Kernel.p_seq_blocks in
            incr checked;
            let expected =
              if pipeline then
                List.filter
                  (fun l ->
                    not
                      (List.exists
                         (fun ((loop : An.Loops.loop), _, _) ->
                           An.Loops.String_set.mem l loop.An.Loops.blocks)
                         p.Hls.Kernel.p_pipelined))
                  labels
              else labels
            in
            if seq <> expected then
              Alcotest.failf "%s region %s: blocks out of label order" name
                (An.Region.name r))
        [ false; true ])
    (corpus_regions ());
  Alcotest.(check bool) "plans checked" true (!checked > 0)

let tests =
  [ Alcotest.test_case "DFG structure" `Quick test_dfg_structure;
    Alcotest.test_case "schedule respects dependencies" `Quick
      test_dfg_dependencies_respected;
    Alcotest.test_case "memory ordering in DFG" `Quick test_memory_ordering;
    Alcotest.test_case "chaining packs cheap ops" `Quick
      test_chaining_packs_cheap_ops;
    Alcotest.test_case "interface latency ordering" `Quick
      test_interface_latency_ordering;
    Alcotest.test_case "coupled port serializes" `Quick
      test_coupled_port_serializes;
    Alcotest.test_case "RecMII of accumulator" `Quick test_rec_mii_accumulator;
    Alcotest.test_case "ResMII scaling" `Quick test_res_mii_scaling;
    Alcotest.test_case "kernel estimate basics" `Quick test_estimate_basic;
    Alcotest.test_case "pipelining beats sequential" `Quick
      test_pipeline_beats_sequential;
    Alcotest.test_case "interface modes ordered" `Quick
      test_coupled_only_not_faster;
    Alcotest.test_case "calls reject synthesis" `Quick
      test_region_with_call_rejected;
    Alcotest.test_case "carried dep blocks unroll" `Quick
      test_unroll_blocked_by_carried_dep;
    Alcotest.test_case "unroll replicates datapath" `Quick
      test_unroll_replicates_dep_free_loop;
    Alcotest.test_case "tech table sanity" `Quick test_tech_sanity;
    Alcotest.test_case "saved seconds positive for MAC" `Quick
      test_saved_seconds_sign;
    Alcotest.test_case "estimate_all equals per-config estimate" `Quick
      test_estimate_all_equals_per_config;
    Alcotest.test_case "context classifies each access once" `Quick
      test_ctx_classifies_once;
    Alcotest.test_case "estimate_all schedules each distinct block plan once"
      `Quick test_estimate_all_schedules_once;
    Alcotest.test_case "block plans keep bank counts apart" `Quick
      test_block_plans_keep_bank_counts;
    Alcotest.test_case "estimate_all evaluates each plan once" `Slow
      test_estimate_all_one_plan_each;
    Alcotest.test_case "estimate_all stops at the naive fault hit" `Slow
      test_estimate_all_fault_hits;
    Alcotest.test_case "region facts visit blocks in label order" `Slow
      test_plans_in_label_order ]
