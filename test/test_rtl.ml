(* Tests for the RTL subsystem (lib/rtl): Rtl.Lint cleanliness over the
   kernel netlists the backend emits, exact differential co-simulation
   against the golden interpreter in all three interface modes, and
   job-count independence of pooled co-simulations. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim
module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

(* --- helpers --- *)

let all_mode_configs =
  List.concat_map Hls.Kernel.default_configs
    [ Hls.Kernel.Heuristic; Hls.Kernel.Coupled_only; Hls.Kernel.Scan_only ]

(* Every synthesizable kernel netlist of an analyzed benchmark: all
   regions of all functions crossed with the given configs. *)
let netlists_of (a : Core.Cayman.analyzed) configs =
  let acc = ref [] in
  Hashtbl.iter
    (fun fname (ctx : Hls.Ctx.t) ->
      match An.Wpst.func_tree a.Core.Cayman.wpst fname with
      | None -> ()
      | Some ft ->
        An.Region.iter
          (fun r ->
            List.iter
              (fun cfg ->
                match Hls.Netlist.of_kernel ctx r cfg with
                | Some { Hls.Netlist.structure = Some nl; _ } ->
                  acc := (ctx, r, cfg, nl) :: !acc
                | Some { Hls.Netlist.structure = None; _ } | None -> ())
              configs)
          ft.An.Wpst.root)
    a.Core.Cayman.ctxs;
  !acc

(* The kernels of a selected solution as cosim specs. *)
let specs_of (a : Core.Cayman.analyzed) (s : Core.Solution.t) =
  List.filter_map
    (fun (acc : Core.Solution.accel) ->
      let ctx = Hashtbl.find a.Core.Cayman.ctxs acc.Core.Solution.a_func in
      match
        An.Wpst.region a.Core.Cayman.wpst
          { An.Wpst.vfunc = acc.Core.Solution.a_func;
            vid = acc.Core.Solution.a_region_id }
      with
      | None -> None
      | Some region ->
        Some
          { Rtl.Cosim.k_ctx = ctx;
            k_region = region;
            k_config = acc.Core.Solution.a_point.Hls.Kernel.config })
    s.Core.Solution.accels

(* --- lint --- *)

(* A cross-suite sample (Fig. 6's one-per-suite picks, fft for its
   non-uniform trip counts, and loops-all-mid-10k-sp whose float-negate
   kernel once regressed the unary-operand port wiring); the bench
   harness's cosim experiment lints the full 28. *)
let lint_benchmarks = "fft" :: "loops-all-mid-10k-sp" :: Suite.fig6

let test_lint_clean () =
  let total = ref 0 in
  List.iter
    (fun name ->
      let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn name)) in
      List.iter
        (fun (_, _, cfg, nl) ->
          incr total;
          match Rtl.Lint.check nl with
          | [] -> ()
          | f :: _ ->
            Alcotest.failf "%s %s [%s]: %s" name nl.Hls.Netlist.nl_name
              (Hls.Kernel.config_to_string cfg)
              (Rtl.Lint.to_string f))
        (netlists_of a all_mode_configs))
    lint_benchmarks;
  (* guard against the walk silently matching nothing *)
  Alcotest.(check bool) "linted a real population" true (!total > 1000)

let test_lint_catches_damage () =
  let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn "atax")) in
  match
    List.find_opt
      (fun (_, _, _, nl) -> nl.Hls.Netlist.nl_wires <> [])
      (netlists_of a [ List.hd all_mode_configs ])
  with
  | None -> Alcotest.fail "no netlist to damage"
  | Some (_, _, _, nl) ->
    let undeclared =
      { nl with
        Hls.Netlist.nl_assigns =
          ("w_bogus_undeclared", "1'b0") :: nl.Hls.Netlist.nl_assigns }
    in
    Alcotest.(check bool) "undeclared assign target is reported" true
      (Rtl.Lint.check undeclared <> []);
    (* double-drive the first instance-driven wire *)
    (match nl.Hls.Netlist.nl_wires with
     | [] -> Alcotest.fail "netlist has no wires"
     | (w, _) :: _ ->
       let doubled =
         { nl with
           Hls.Netlist.nl_assigns =
             (w, "1'b1") :: (w, "1'b0") :: nl.Hls.Netlist.nl_assigns }
       in
       Alcotest.(check bool) "double-driven wire is reported" true
         (Rtl.Lint.check doubled <> []))

(* --- co-simulation --- *)

let test_cosim_three_modes () =
  let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn "atax")) in
  (* kernels' regions refer to the if-converted program *)
  let program = a.Core.Cayman.program in
  List.iter
    (fun mode ->
      let r = Core.Cayman.run ~mode a in
      let sel = Core.Cayman.best_under_ratio r ~budget_ratio:0.25 in
      let specs = specs_of a sel in
      Alcotest.(check bool) "kernels selected" true (specs <> []);
      List.iter
        (fun (rep : Rtl.Cosim.report) ->
          if not (Rtl.Cosim.functional_ok rep) then
            Alcotest.failf "functional mismatch:\n%s"
              (Rtl.Cosim.report_to_string rep);
          Alcotest.(check bool)
            (rep.Rtl.Cosim.r_kernel ^ " invoked")
            true
            (rep.Rtl.Cosim.r_invocations > 0);
          Alcotest.(check bool)
            (rep.Rtl.Cosim.r_kernel ^ " cycles within tolerance")
            true rep.Rtl.Cosim.r_cycles_ok)
        (Rtl.Cosim.run_many program specs))
    [ Hls.Kernel.Heuristic; Hls.Kernel.Coupled_only; Hls.Kernel.Scan_only ]

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

(* On a uniform-trip kernel the simulator must reproduce the estimator's
   cycle count exactly, not merely within tolerance. *)
let test_cosim_exact_cycles () =
  let a = Core.Cayman.analyze (Cayman_frontend.Lower.compile mac_src) in
  let program = a.Core.Cayman.program in
  let cfg =
    { Hls.Kernel.unroll = 1; pipeline = true; mode = Hls.Kernel.Heuristic }
  in
  let kernel_loops =
    List.filter
      (fun ((ctx : Hls.Ctx.t), (r : An.Region.t), _, _) ->
        String.equal ctx.Hls.Ctx.func.Ir.Func.name "kernel"
        && r.An.Region.kind = An.Region.Loop_region)
      (netlists_of a [ cfg ])
  in
  match kernel_loops with
  | [] -> Alcotest.fail "mac kernel loop not synthesizable"
  | (ctx, region, _, _) :: _ ->
    let rep =
      Rtl.Cosim.run program
        { Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = cfg }
    in
    if not (Rtl.Cosim.functional_ok rep) then
      Alcotest.failf "functional mismatch:\n%s"
        (Rtl.Cosim.report_to_string rep);
    Alcotest.(check int) "four invocations" 4 rep.Rtl.Cosim.r_invocations;
    Alcotest.(check int) "cycles match the estimator exactly"
      (int_of_float rep.Rtl.Cosim.r_est_cycles)
      rep.Rtl.Cosim.r_sim_cycles

(* --- watch points shared between kernels ---

   Kernel A is a loop with two exiting edges (the [break] and the loop
   test), both to the block where kernel B's region starts, so one
   watched block resolves A and enters B. A third kernel shares A's
   entry. The reports, with and without injected faults, are pinned as
   the harness printed them before the golden run watched only kernel
   entries and exits, and must not depend on the interpreter engine. *)

let shared_exit_src =
  {|const int N = 32;
    int a[N]; int b[N]; int out[N];
    int main() {
      for (int i = 0; i < N; i++) { a[i] = (i * 5) % 11; b[i] = 0; }
      for (int t = 0; t < 4; t++) {
        for (int i = 0; i < N; i++) {
          if (a[i] == t + 7) break;
          b[i] = b[i] + a[i];
        }
        for (int j = 0; j < N; j++) { out[j] = out[j] + b[j] * t; }
      }
      return out[3];
    }|}

let test_cosim_shared_exit_entry () =
  let a = Core.Cayman.analyze (Cayman_frontend.Lower.compile shared_exit_src) in
  let ctx = Hashtbl.find a.Core.Cayman.ctxs "main" in
  let ft = Option.get (An.Wpst.func_tree a.Core.Cayman.wpst "main") in
  let region entry exit =
    match
      An.Region.fold
        (fun acc (r : An.Region.t) ->
          if An.Region.is_ctrl_flow r && String.equal r.An.Region.entry entry
             && r.An.Region.exit = Some exit
          then Some r
          else acc)
        None ft.An.Wpst.root
    with
    | Some r -> r
    | None -> Alcotest.failf "no region %s -> %s" entry exit
  in
  let config pipeline =
    { Hls.Kernel.unroll = 1; pipeline; mode = Hls.Kernel.Heuristic }
  in
  let spec entry exit pipeline =
    { Rtl.Cosim.k_ctx = ctx;
      k_region = region entry exit;
      k_config = config pipeline }
  in
  let ka = spec "loop_head9" "loop_exit12" true in
  let kb = spec "loop_exit12" "loop_exit18" false in
  let ko = spec "loop_head9" "loop_exit18" false in
  let line_a =
    "main/loop:loop_head9 [u1+pipe/heuristic]: 4 invocations, functionally \
     equivalent; cycles sim=100 est=100 (+0.00%) within tolerance"
  and line_b =
    "main/cond:loop_exit12 [u1+seq/heuristic]: 4 invocations, functionally \
     equivalent; cycles sim=2112 est=2112 (+0.00%) within tolerance"
  and line_o =
    "main/loop:loop_head9 [u1+seq/heuristic]: 4 invocations, functionally \
     equivalent; cycles sim=2576 est=2576 (+0.00%) within tolerance"
  in
  let fault r kind nth =
    Some { Rtl.Sim.f_reg = r; f_kind = kind; f_nth = nth }
  in
  let faulted =
    [ String.concat "\n"
        [ "main/loop:loop_head9 [u1+pipe/heuristic]: 4 invocations, 16 \
           MISMATCHES; cycles sim=113 est=100 (-11.50%) within tolerance";
          "  inv 1 register: %t12: golden 2, netlist 1";
          "  inv 1 register: %t13: golden 2, netlist 1";
          "  inv 1 memory: b: b[2]: 10 vs 0";
          "  inv 2 register: %t11: golden 3, netlist 4";
          "  inv 2 register: %t12: golden 3, netlist 4";
          "  inv 2 register: %t13: golden 6, netlist 8";
          "  inv 2 memory: b: b[2]: 20 vs 10";
          "  inv 3 register: %t11: golden 8, netlist 6";
          "  ... and 8 more" ];
      String.concat "\n"
        [ "main/cond:loop_exit12 [u1+seq/heuristic]: 4 invocations, 6 \
           MISMATCHES; cycles sim=2112 est=2112 (+0.00%) within tolerance";
          "  inv 2 register: %t4: golden 1, netlist 0";
          "  inv 2 memory: out: out[1]: 10 vs 0";
          "  inv 3 register: %t4: golden 2, netlist 0";
          "  inv 3 memory: out: out[1]: 40 vs 10";
          "  inv 4 register: %t4: golden 3, netlist 0";
          "  inv 4 memory: out: out[1]: 100 vs 40" ] ]
  in
  let reports ?faults specs =
    List.map Rtl.Cosim.report_to_string
      (Rtl.Cosim.run_many ?faults a.Core.Cayman.program specs)
  in
  List.iter
    (fun engine ->
      Sim.Interp.with_engine engine @@ fun () ->
      Memo.Store.without_cache @@ fun () ->
      let check name want got =
        Alcotest.(check (list string))
          (name ^ " @ " ^ Sim.Interp.engine_name engine)
          want got
      in
      check "exit target is the next entry" [ line_a; line_b ]
        (reports [ ka; kb ]);
      check "reversed kernel order" [ line_b; line_a ] (reports [ kb; ka ]);
      check "shared entry" [ line_a; line_b; line_o ] (reports [ ka; kb; ko ]);
      check "injected faults" faulted
        (reports
           ~faults:
             [ None, fault "i6" (Rtl.Sim.Flip_bit 1) 3;
               None, fault "t4" Rtl.Sim.Stuck_zero 1 ]
           [ ka; kb ]))
    [ Sim.Interp.Reference; Sim.Interp.Staged ]

(* --- random-program smoke test --- *)

let compile_ok src =
  try Ok (Cayman_frontend.Lower.compile src) with
  | Cayman_frontend.Diag.Error d ->
    Error (Cayman_frontend.Diag.to_string d)

(* Small invocation budget; each kernel co-simulated independently
   through the pool so the jobs=1 and jobs=4 schedules must agree
   report-for-report. Every configuration the DSE sweeps is covered:
   the three interface modes, sequential and unroll 1/2/4/8 pipelined,
   and decoupled-preferred. *)
let qcheck_cosim_smoke =
  Testutil.qtest ~count:8
    "random-program co-simulation is exact and job-count independent"
    Test_random.arb_prog (fun p ->
      match compile_ok (Test_random.prog_to_minic p) with
      | Error m -> QCheck.Test.fail_report m
      | Ok program ->
        let a = Core.Cayman.analyze ~fuel:50_000_000 program in
        let program = a.Core.Cayman.program in
        let specs =
          List.map
            (fun (ctx, region, cfg, _) ->
              { Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = cfg })
            (netlists_of a all_mode_configs)
        in
        (match specs with
         | [] -> true  (* nothing synthesizable: vacuous but legal *)
         | specs ->
           let run jobs =
             Engine.Pool.map ~jobs
               (fun spec ->
                 Rtl.Cosim.run ~fuel:50_000_000 ~max_invocations:4 program
                   spec)
               specs
           in
           let r1 = run 1 in
           let r4 = run 4 in
           r1 = r4 && List.for_all Rtl.Cosim.functional_ok r1))

(* --- netlist simulator error paths ---

   Hand-damaged copies of the mac kernel's netlists, simulated directly.
   Each error must carry its exact text, and it must be raised only
   when the FSM walk reaches the damage. *)

let mac_analyzed () =
  Core.Cayman.analyze (Cayman_frontend.Lower.compile mac_src)

(* The pipelined u1 heuristic netlist of one of the kernel's regions. *)
let mac_netlist (a : Core.Cayman.analyzed) region_name =
  let cfg =
    { Hls.Kernel.unroll = 1; pipeline = true; mode = Hls.Kernel.Heuristic }
  in
  match
    List.find_opt
      (fun ((ctx : Hls.Ctx.t), r, _, _) ->
        String.equal ctx.Hls.Ctx.func.Ir.Func.name "kernel"
        && String.equal (An.Region.name r) region_name)
      (netlists_of a [ cfg ])
  with
  | Some (ctx, _, _, nl) -> Ir.Validate.program a.Core.Cayman.program, ctx, nl
  | None -> Alcotest.failf "mac kernel region %s not synthesizable" region_name

(* One invocation from power-up zeros on a fresh memory image. *)
let sim_once ?max_cycles (program, ctx, nl) =
  Rtl.Sim.run ?max_cycles ctx nl
    ~env:(fun _ -> None)
    ~mem:(Sim.Memory.create program)

let expect_rtl_error name expected (program, ctx, nl) ?max_cycles () =
  match sim_once ?max_cycles (program, ctx, nl) with
  | _ -> Alcotest.failf "%s: simulation succeeded" name
  | exception Rtl.Sim.Rtl_error m -> Alcotest.(check string) name expected m

let test_sim_errors () =
  let a = mac_analyzed () in
  let program, ctx, whole = mac_netlist a "func:entry0" in
  let _, _, loop = mac_netlist a "loop:loop_head1" in
  let open Hls.Netlist in
  let name = whole.nl_name in
  (* the loop header reads %i1 before anything in the region drives it *)
  expect_rtl_error "undriven register" "undriven register %i1 in block loop_head1"
    (program, ctx,
     { loop with
       nl_arch_regs =
         List.filter (fun (r, _) -> r <> "i1") loop.nl_arch_regs })
    ();
  (* entry0 defines %acc0 and %i1 only *)
  expect_rtl_error "commit without a driving wire"
    ("commit of %t5 has no driving wire in " ^ name)
    (program, ctx,
     { whole with
       nl_commits =
         List.map
           (fun (s, cs) ->
             if s = "S_entry0" then
               s, cs @ [ Ir.Instr.reg "t5" Ir.Types.F32, "w_bogus" ]
             else s, cs)
           whole.nl_commits })
    ();
  (* the loop's labels still map to the controller's state *)
  expect_rtl_error "undefined FSM state"
    ("undefined FSM state S_loop_body2 in " ^ name)
    (program, ctx,
     { whole with
       nl_states =
         List.filter (fun s -> s.s_name <> "S_loop_body2") whole.nl_states })
    ();
  expect_rtl_error "missing pipeline controller"
    "state S_loop_body2 has no pipeline controller"
    (program, ctx, { loop with nl_pipes = [] })
    ();
  (* prologue (12) + entry0 (2) = 14 cycles; at 20 the pipelined loop's
     block walk trips the budget first *)
  expect_rtl_error "cycle budget" ("cycle budget exceeded (14 cycles) in " ^ name)
    (program, ctx, whole) ~max_cycles:13 ();
  expect_rtl_error "pipelined walk budget"
    ("cycle budget exceeded (pipelined loop loop_head1 walked 21 blocks) in "
     ^ name)
    (program, ctx, whole) ~max_cycles:20 ()

let test_sim_unreachable_damage () =
  let program, ctx, whole = mac_netlist (mac_analyzed ()) "func:entry0" in
  let open Hls.Netlist in
  let orphan name kind block =
    { s_name = name; s_index = 99; s_kind = kind; s_block = block;
      s_cycles = 1 }
  in
  (* a controller-less pipe state, a state whose block does not exist,
     and a commit list with no driving wire: none is ever entered *)
  let damaged =
    { whole with
      nl_states =
        whole.nl_states
        @ [ orphan "S_orphan_pipe" S_pipe None;
            orphan "S_orphan_seq" S_seq (Some "no_such_block") ];
      nl_commits =
        ("S_orphan_seq", [ Ir.Instr.reg "t5" Ir.Types.F32, "w_bogus" ])
        :: whole.nl_commits }
  in
  let strip (o : Rtl.Sim.outcome) =
    o.Rtl.Sim.o_regs, o.Rtl.Sim.o_exit, o.Rtl.Sim.o_return,
    o.Rtl.Sim.o_cycles, o.Rtl.Sim.o_iterations, o.Rtl.Sim.o_activations
  in
  let clean = sim_once (program, ctx, whole) in
  Alcotest.(check int) "the loop ran" 64 clean.Rtl.Sim.o_iterations;
  Alcotest.(check bool) "unreachable damage simulates like the original" true
    (strip clean = strip (sim_once (program, ctx, damaged)))

(* --- co-simulation memory traffic ---

   A netlist invocation may only copy the arrays it can write. The
   kernel below writes [out]; the 8192-float [big] is never touched in
   the region, so co-simulating 40 invocations instead of 10 must not
   allocate more directly in the major heap (where any copy of [big]
   would land). *)

let repeat_src reps =
  Printf.sprintf
    {|const int N = 16;
      float big[8192]; float a[N]; float out[N];
      void kernel() {
        for (int i = 0; i < N; i++) { out[i] = a[i] * 2.0 + out[i]; }
      }
      int main() {
        for (int i = 0; i < N; i++) { a[i] = 1.0; }
        for (int t = 0; t < %d; t++) { kernel(); }
        big[0] = out[0];
        return 0;
      }|}
    reps

let direct_major_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let cosim_major_growth reps =
  let a = Core.Cayman.analyze (Cayman_frontend.Lower.compile (repeat_src reps)) in
  let cfg =
    { Hls.Kernel.unroll = 1; pipeline = true; mode = Hls.Kernel.Heuristic }
  in
  match
    List.find_opt
      (fun ((ctx : Hls.Ctx.t), (r : An.Region.t), _, _) ->
        String.equal ctx.Hls.Ctx.func.Ir.Func.name "kernel"
        && r.An.Region.kind = An.Region.Loop_region)
      (netlists_of a [ cfg ])
  with
  | None -> Alcotest.fail "repeat kernel loop not synthesizable"
  | Some (ctx, region, _, _) ->
    let spec = { Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = cfg } in
    Memo.Store.without_cache @@ fun () ->
    let before = direct_major_words () in
    let rep = Rtl.Cosim.run a.Core.Cayman.program spec in
    let growth = direct_major_words () -. before in
    if not (Rtl.Cosim.functional_ok rep) then
      Alcotest.failf "functional mismatch:\n%s" (Rtl.Cosim.report_to_string rep);
    Alcotest.(check int) "every entry co-simulated" reps
      rep.Rtl.Cosim.r_invocations;
    growth

let test_cosim_no_per_invocation_major_alloc () =
  let g10 = cosim_major_growth 10 in
  let g40 = cosim_major_growth 40 in
  if g40 -. g10 > 1024.0 then
    Alcotest.failf
      "direct major allocation grows with invocations: %.0f words at 10, \
       %.0f at 40"
      g10 g40

(* --- tracing ---

   A traced co-simulation books the golden interpreter and the netlist
   simulator to spans of their own: every [rtl.sim] invocation runs
   inside the [sim.interp] span of the golden run that drives it. *)
let test_cosim_trace_spans () =
  let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn "atax")) in
  let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
  let specs = specs_of a (Core.Cayman.best_under_ratio r ~budget_ratio:0.25) in
  Obs.Trace.reset ();
  Obs.Trace.set_enabled true;
  let reports =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_enabled false)
      (fun () ->
        Memo.Store.without_cache (fun () ->
            Rtl.Cosim.run_many a.Core.Cayman.program specs))
  in
  let spans = Obs.Trace.spans () in
  Obs.Trace.reset ();
  List.iter
    (fun (rep : Rtl.Cosim.report) ->
      if not (Rtl.Cosim.functional_ok rep) then
        Alcotest.failf "functional mismatch:\n%s"
          (Rtl.Cosim.report_to_string rep))
    reports;
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Trace.span) -> Hashtbl.replace by_id s.sp_id s)
    spans;
  let rec under name (s : Obs.Trace.span) =
    match Hashtbl.find_opt by_id s.sp_parent with
    | None -> false
    | Some p -> String.equal p.sp_name name || under name p
  in
  let named name =
    List.filter (fun (s : Obs.Trace.span) -> String.equal s.sp_name name) spans
  in
  Alcotest.(check bool)
    "sim.interp span recorded" true
    (named "sim.interp" <> []);
  let sims = named "rtl.sim" in
  Alcotest.(check bool) "rtl.sim span recorded" true (sims <> []);
  List.iter
    (fun s ->
      if not (under "sim.interp" s) then
        Alcotest.fail "an rtl.sim span is not nested inside sim.interp")
    sims

let tests =
  [ Alcotest.test_case "lint: suite netlists are clean" `Slow test_lint_clean;
    Alcotest.test_case "lint: damaged netlist is flagged" `Quick
      test_lint_catches_damage;
    Alcotest.test_case "cosim: atax agrees in all three modes" `Slow
      test_cosim_three_modes;
    Alcotest.test_case "cosim: uniform-trip kernel cycles are exact" `Quick
      test_cosim_exact_cycles;
    Alcotest.test_case "cosim: one block exits a kernel and enters another"
      `Quick test_cosim_shared_exit_entry;
    Alcotest.test_case "sim: error paths carry their exact text" `Quick
      test_sim_errors;
    Alcotest.test_case "sim: unreachable damage is never raised" `Quick
      test_sim_unreachable_damage;
    Alcotest.test_case "cosim: no major allocation per invocation" `Quick
      test_cosim_no_per_invocation_major_alloc;
    Alcotest.test_case "trace: rtl.sim nests inside sim.interp" `Quick
      test_cosim_trace_spans;
    qcheck_cosim_smoke ]

