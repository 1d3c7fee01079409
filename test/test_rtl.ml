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

(* A kernel's netlist, found by function and region name, in one
   config. *)
let find_netlist (a : Core.Cayman.analyzed) ~func ~region cfg =
  match
    List.find_opt
      (fun ((ctx : Hls.Ctx.t), r, _, _) ->
        String.equal ctx.Hls.Ctx.func.Ir.Func.name func
        && String.equal (An.Region.name r) region)
      (netlists_of a [ cfg ])
  with
  | Some (ctx, r, _, nl) -> ctx, r, nl
  | None -> Alcotest.failf "%s/%s is not synthesizable" func region

let seq_cfg =
  { Hls.Kernel.unroll = 1; pipeline = false; mode = Hls.Kernel.Heuristic }

let pipe_cfg = { seq_cfg with Hls.Kernel.pipeline = true }

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
      let specs = Core.Cayman.kernels a sel in
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

(* --- the co-simulation oracle over generated programs ---

   For every synthesizable kernel of a Fleet.Genprog program (every
   region in every configuration the DSE sweeps: the three interface
   modes, sequential and unroll 1/2/4/8 pipelined, decoupled-preferred),
   under a random invocation cap or none: the kernel's report from a
   singleton run equals its report from one run over all the kernels,
   and its invocations, counting the capped entry, equal the region
   entries that a complete observed run counts. The singleton runs go
   through the pool, so the schedule must not matter either. *)

(* Entries of [region] in a complete run: entries of its entry block
   from a block of [func] outside the region, or from a call. *)
let region_entries (program : Ir.Validate.t) func (region : An.Region.t) =
  let entries = ref 0 and inside = ref false in
  let observer =
    { Sim.Interp.obs_block =
        (fun ~func:f ~label ->
          if String.equal f func then
            Some
              { Sim.Interp.w_reads = [];
                w_run =
                  (fun ~regs:_ ~mem:_ ->
                    if String.equal label region.An.Region.entry && not !inside
                    then incr entries;
                    inside :=
                      An.Region.String_set.mem label region.An.Region.blocks) }
          else None);
      obs_return =
        (fun ~func:f ->
          if String.equal f func then
            Some
              { Sim.Interp.w_reads = [];
                w_run = (fun ~regs:_ ~value:_ ~mem:_ -> inside := false) }
          else None);
      obs_logged = (fun ~func:_ ~label:_ -> false);
      obs_log = Sim.Memory.Log.create () }
  in
  ignore
    (Sim.Interp.run ~observer (program :> Ir.Cfg.program) : Sim.Interp.result);
  !entries

let arb_oracle_case =
  QCheck.make
    ~print:(fun (index, cap) ->
      Printf.sprintf "%s\nmax_invocations %s"
        (Fleet.Genprog.minic_source ~seed:17 ~index)
        (Option.fold ~none:"none" ~some:string_of_int cap))
    QCheck.Gen.(pair (int_range 0 999) (opt (int_range 0 3)))

let qcheck_cosim_oracle =
  Testutil.qtest ~count:10 "cosim oracle on generated programs"
    arb_oracle_case (fun (index, max_invocations) ->
      Memo.Store.without_cache @@ fun () ->
      let a =
        Core.Cayman.analyze
          (Cayman_frontend.Lower.compile
             (Fleet.Genprog.minic_source ~seed:17 ~index))
      in
      let program = a.Core.Cayman.program in
      let specs =
        List.map
          (fun (ctx, region, cfg, _) ->
            { Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = cfg })
          (netlists_of a all_mode_configs)
      in
      let batched = Rtl.Cosim.run_many ?max_invocations program specs in
      let singles =
        Engine.Pool.map ~jobs:4
          (fun spec -> Rtl.Cosim.run ?max_invocations program spec)
          specs
      in
      List.for_all2
        (fun (spec : Rtl.Cosim.spec) ((single : Rtl.Cosim.report), batch) ->
          let entries =
            region_entries program
              spec.Rtl.Cosim.k_ctx.Hls.Ctx.func.Ir.Func.name
              spec.Rtl.Cosim.k_region
          in
          let seen =
            single.Rtl.Cosim.r_invocations
            + if single.Rtl.Cosim.r_capped then 1 else 0
          in
          let want =
            match max_invocations with
            | Some cap -> min entries (cap + 1)
            | None -> entries
          in
          if single <> batch then
            QCheck.Test.fail_reportf "%s: singleton and batched reports differ"
              single.Rtl.Cosim.r_kernel
          else if seen <> want then
            QCheck.Test.fail_reportf "%s: %d invocations seen, %d entries"
              single.Rtl.Cosim.r_kernel seen want
          else Rtl.Cosim.functional_ok single)
        specs (List.combine singles batched))

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
  Rtl.Sim.run ?max_cycles ctx nl ~env:[] ~mem:(Sim.Memory.create program)

let expect_rtl_error name expected (program, ctx, nl) ?max_cycles () =
  match sim_once ?max_cycles (program, ctx, nl) with
  | _ -> Alcotest.failf "%s: simulation succeeded" name
  | exception Rtl.Sim.Rtl_error m -> Alcotest.(check string) name expected m

(* Damage that names a block the kernel has no data-flow graph for: the
   entry state's block, or a pipelined loop's header. *)
let no_dfg_state (nl : Hls.Netlist.structure) =
  { nl with
    Hls.Netlist.nl_states =
      List.map
        (fun (s : Hls.Netlist.fsm_state) ->
          if String.equal s.Hls.Netlist.s_name "S_entry0" then
            { s with Hls.Netlist.s_block = Some "no_such_block" }
          else s)
        nl.Hls.Netlist.nl_states }

let no_dfg_header (nl : Hls.Netlist.structure) =
  { nl with
    Hls.Netlist.nl_pipes =
      List.map
        (fun (pc : Hls.Netlist.pipe_ctrl) ->
          { pc with Hls.Netlist.pc_header = "no_such_block" })
        nl.Hls.Netlist.nl_pipes }

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
    (program, ctx, whole) ~max_cycles:20 ();
  (* a reachable state or loop block with no data-flow graph *)
  expect_rtl_error "state without a data-flow graph"
    ("state S_entry0 evaluates block no_such_block, which has no data-flow \
      graph, in " ^ name)
    (program, ctx, no_dfg_state whole)
    ();
  expect_rtl_error "loop block without a data-flow graph"
    ("pipelined loop no_such_block steps block no_such_block, which has no \
      data-flow graph, in " ^ loop.nl_name)
    (program, ctx, no_dfg_header loop)
    ()

(* A state of a co-simulated kernel with no data-flow graph is that
   kernel's sim-error; a kernel observed in the same golden run keeps
   its verdict. *)
let test_cosim_no_dfg_is_a_sim_error () =
  let a = mac_analyzed () in
  let _, ctx, loop = mac_netlist a "loop:loop_head1" in
  let spec region =
    match
      List.find_opt
        (fun (_, r, _, _) -> String.equal (An.Region.name r) region)
        (netlists_of a [ pipe_cfg ])
    with
    | Some (_, r, _, _) ->
      { Rtl.Cosim.k_ctx = ctx; k_region = r; k_config = pipe_cfg }
    | None -> Alcotest.failf "no region %s" region
  in
  let reports =
    List.map Rtl.Cosim.report_to_string
      (Rtl.Cosim.run_many
         ~faults:[ Some (no_dfg_header loop), None; None, None ]
         a.Core.Cayman.program
         [ spec "loop:loop_head1"; spec "func:entry0" ])
  in
  let damaged =
    Printf.sprintf
      "  inv %d sim-error: Rtl_error: pipelined loop no_such_block steps \
       block no_such_block, which has no data-flow graph, in %s"
  in
  Alcotest.(check (list string)) "reports"
    [ String.concat "\n"
        ("kernel/loop:loop_head1 [u1+pipe/heuristic]: 4 invocations, 4 \
          MISMATCHES; cycles sim=0 est=592 (+0.00%) OUT OF TOLERANCE"
        :: List.map
             (fun k -> damaged k loop.Hls.Netlist.nl_name)
             [ 1; 2; 3; 4 ]);
      "kernel/func:entry0 [u1+pipe/heuristic]: 4 invocations, functionally \
       equivalent; cycles sim=616 est=616 (+0.00%) within tolerance" ]
    reports

(* The netlist's architectural registers after its last [exec], sorted
   by id: each is compared with a golden zero of its type, and reported
   where it differs. *)
let arch_values sim (nl : Hls.Netlist.structure) =
  let zeros =
    List.map
      (fun (rid, ty) -> rid, Sim.Value.zero_of ty)
      nl.Hls.Netlist.nl_arch_regs
  in
  let differ =
    Rtl.Sim.reg_mismatches sim
      (Sim.Interp.regs_of_list zeros)
      (Rtl.Sim.positions sim (List.map fst zeros))
  in
  List.map
    (fun (rid, zero) ->
      match List.find_opt (fun (r, _, _) -> String.equal r rid) differ with
      | Some (_, _, v) -> rid, v
      | None -> rid, zero)
    zeros

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
  let strip nl =
    let sim = Rtl.Sim.compile ctx nl in
    let o =
      Rtl.Sim.exec sim ~env:(Sim.Interp.regs_of_list [])
        ~at:(Rtl.Sim.positions sim [])
        ~mem:(Sim.Memory.create program)
    in
    ( arch_values sim nl,
      (o.Rtl.Sim.o_exit, o.Rtl.Sim.o_return, o.Rtl.Sim.o_cycles,
       o.Rtl.Sim.o_iterations, o.Rtl.Sim.o_activations) )
  in
  let clean = strip whole in
  let _, (_, _, _, iterations, _) = clean in
  Alcotest.(check int) "the loop ran" 64 iterations;
  Alcotest.(check bool) "unreachable damage simulates like the original" true
    (clean = strip damaged)

(* --- register fault semantics ---

   The reports of faults whose effect depends on how the simulator
   carries values, pinned as the boxed-value simulator printed them. A
   register swapped with one of another type takes a value of the
   wrong type: an operator that reads it fails with a type error, while
   an assign or a commit copies it onward unchanged, so it can reach the
   region exit as a register mismatch. A stuck-at-1 float is the
   all-ones bit pattern (a negative NaN), a flipped bool is negated,
   and every commit counts as one write, also when one state commits a
   register twice. *)

let faults_src =
  {|const int N = 16;
    float a[N]; float out[2];
    void kernel() {
      float s = 0.0; float keep = 0.0; float keep2 = 0.0;
      for (int i = 0; i < N; i++) { keep2 = keep; keep = s; s = s + a[i]; }
      out[0] = s + keep + keep2;
    }
    void twice() {
      float s = 0.0; float acc = 0.0;
      for (int i = 0; i < N; i++) { s = s + a[i]; s = s * 0.5; acc = acc + s; }
      out[1] = acc;
    }
    int main() {
      for (int i = 0; i < N; i++) { a[i] = 1.5; }
      for (int t = 0; t < 3; t++) { kernel(); twice(); }
      return (int)out[0];
    }|}

let fault_reports func cfg faults =
  let a = Core.Cayman.analyze (Cayman_frontend.Lower.compile faults_src) in
  let ctx, region, _ = find_netlist a ~func ~region:"loop:loop_head1" cfg in
  let spec = { Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = cfg } in
  List.map
    (fun fault ->
      Rtl.Cosim.report_to_string
        (List.hd
           (Rtl.Cosim.run_many ~faults:[ None, Some fault ]
              a.Core.Cayman.program [ spec ])))
    faults

let fault f_reg f_kind f_nth = { Rtl.Sim.f_reg; f_kind; f_nth }

let test_fault_semantics () =
  let check name want got =
    Alcotest.(check string) name (String.concat "\n" want) got
  in
  let head = "kernel/loop:loop_head1 [u1+pipe/heuristic]: 3 invocations, " in
  let mismatches n = head ^ n ^ " MISMATCHES; cycles sim=150 est=150 \
                                 (+0.00%) within tolerance" in
  match
    fault_reports "kernel" pipe_cfg
      [ fault "s0" (Rtl.Sim.Swap_with "i3") 2;
        fault "keep1" (Rtl.Sim.Swap_with "i3") 2;
        fault "t4" (Rtl.Sim.Swap_with "i3") 2;
        fault "keep1" Rtl.Sim.Stuck_one 2;
        fault "t4" (Rtl.Sim.Flip_bit 0) 2 ]
  with
  | [ consumed; travels; bool_int; stuck_one; flip_bool ] ->
    check "cross-type swap consumed by an operator"
      [ head ^ "3 MISMATCHES; cycles sim=0 est=150 (+0.00%) OUT OF TOLERANCE";
        "  inv 1 sim-error: type error: expected float, got int";
        "  inv 2 sim-error: type error: expected float, got int";
        "  inv 3 sim-error: type error: expected float, got int" ]
      consumed;
    check "cross-type swap travels to the exit"
      [ mismatches "6";
        "  inv 1 register: %keep1: golden 22.5, netlist 15";
        "  inv 1 register: %keep22: golden 21, netlist 14";
        "  inv 2 register: %keep1: golden 22.5, netlist 15";
        "  inv 2 register: %keep22: golden 21, netlist 14";
        "  inv 3 register: %keep1: golden 22.5, netlist 15";
        "  inv 3 register: %keep22: golden 21, netlist 14" ]
      travels;
    check "int into a bool register"
      [ mismatches "3";
        "  inv 1 register: %t4: golden false, netlist 16";
        "  inv 2 register: %t4: golden false, netlist 16";
        "  inv 3 register: %t4: golden false, netlist 16" ]
      bool_int;
    check "stuck-at-1 float"
      [ mismatches "6";
        "  inv 1 register: %keep1: golden 22.5, netlist -nan";
        "  inv 1 register: %keep22: golden 21, netlist -nan";
        "  inv 2 register: %keep1: golden 22.5, netlist -nan";
        "  inv 2 register: %keep22: golden 21, netlist -nan";
        "  inv 3 register: %keep1: golden 22.5, netlist -nan";
        "  inv 3 register: %keep22: golden 21, netlist -nan" ]
      stuck_one;
    check "flipped bool"
      [ mismatches "3";
        "  inv 1 register: %t4: golden false, netlist true";
        "  inv 2 register: %t4: golden false, netlist true";
        "  inv 3 register: %t4: golden false, netlist true" ]
      flip_bool
  | _ -> Alcotest.fail "one report per fault"

(* [twice] assigns [s] two times in one block, so each activation of
   that block commits it twice: write 2N+1 is the last body's second
   commit, and a fault pinned there fires only if both count. *)
let test_fault_counts_double_commit () =
  let n = 16 in
  List.iter
    (fun cfg ->
      match
        fault_reports "twice" cfg
          [ fault "s0" Rtl.Sim.Stuck_zero ((2 * n) + 1);
            fault "s0" Rtl.Sim.Stuck_zero ((2 * n) + 2) ]
      with
      | [ last; past ] ->
        let name = Hls.Kernel.config_to_string cfg in
        let head =
          Printf.sprintf "twice/loop:loop_head1 [%s]: 3 invocations, " name
        and cycles = if cfg.Hls.Kernel.pipeline then 252 else 762 in
        Alcotest.(check string) ("last write " ^ name)
          (String.concat "\n"
             (Printf.sprintf
                "%s3 MISMATCHES; cycles sim=%d est=%d (+0.00%%) within \
                 tolerance"
                head cycles cycles
             :: List.map
                  (Printf.sprintf
                     "  inv %d register: %%s0: golden 1.49998, netlist 0")
                  [ 1; 2; 3 ]))
          last;
        Alcotest.(check string) ("past the last write " ^ name)
          (Printf.sprintf
             "%sfunctionally equivalent; cycles sim=%d est=%d (+0.00%%) \
              within tolerance"
             head cycles cycles)
          past
      | _ -> Alcotest.fail "one report per fault")
    [ seq_cfg; pipe_cfg ]

(* --- datapath parity ---

   One loop whose body runs every binary, compare and unary operator of
   the IR on negative operands, shifts, a NaN and a negative zero. The
   netlist must agree with the golden run exactly, cycles included. *)

let parity_src =
  {|const int N = 6;
    int ia[N]; int ib[N]; float fa[N]; float fb[N];
    int io[96]; float fo[96];
    void kernel() {
      for (int i = 0; i < N; i++) {
        int x = ia[i]; int y = ib[i]; float u = fa[i]; float v = fb[i];
        int k = i * 16;
        io[k] = x + y; io[k + 1] = x - y; io[k + 2] = x * y;
        io[k + 3] = x / y; io[k + 4] = x % y; io[k + 5] = x & y;
        io[k + 6] = x | y; io[k + 7] = x ^ y; io[k + 8] = x << (y & 7);
        io[k + 9] = x >> (y & 7); io[k + 10] = -x; io[k + 11] = (int)v;
        fo[k] = u + v; fo[k + 1] = u - v; fo[k + 2] = u * v;
        fo[k + 3] = u / v; fo[k + 4] = -u; fo[k + 5] = (float)x;
        int m = 0;
        if (x == y) { m = m + 1; }
        if (x != y) { m = m + 2; }
        if (x < y) { m = m + 4; }
        if (x <= y) { m = m + 8; }
        if (x > y) { m = m + 16; }
        if (x >= y) { m = m + 32; }
        if (u == v) { m = m + 64; }
        if (u != v) { m = m + 128; }
        if (u < v) { m = m + 256; }
        if (u <= v) { m = m + 512; }
        if (u > v) { m = m + 1024; }
        if (u >= v) { m = m + 2048; }
        if (!(x < y) && u < v) { m = m + 4096; }
        io[k + 12] = m;
      }
    }
    int main() {
      ia[0] = 7; ia[1] = -7; ia[2] = 12; ia[3] = -1; ia[4] = 0; ia[5] = 5;
      ib[0] = 3; ib[1] = 3; ib[2] = -5; ib[3] = -2; ib[4] = 9; ib[5] = 5;
      fa[0] = 1.5; fa[1] = -2.25; fa[2] = fa[4] / fa[4]; fa[3] = 3.0;
      fa[5] = 0.5;
      fb[0] = 2.0; fb[1] = -fb[4]; fb[2] = 1.0; fb[3] = fa[2]; fb[5] = 0.5;
      for (int t = 0; t < 3; t++) { kernel(); }
      return io[3];
    }|}

let test_datapath_parity () =
  let a = Core.Cayman.analyze (Cayman_frontend.Lower.compile parity_src) in
  let ops = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ (ctx : Hls.Ctx.t) ->
      List.iter
        (fun (b : Ir.Block.t) ->
          List.iter
            (fun (i : Ir.Instr.t) ->
              match i with
              | Ir.Instr.Binary (_, op, _, _) ->
                Hashtbl.replace ops (Ir.Op.bin_to_string op) ()
              | Ir.Instr.Compare (_, op, _, _) ->
                Hashtbl.replace ops (Ir.Op.cmp_to_string op) ()
              | Ir.Instr.Unary (_, op, _) ->
                Hashtbl.replace ops (Ir.Op.un_to_string op) ()
              | Ir.Instr.Assign _ | Ir.Instr.Select _ | Ir.Instr.Load _
              | Ir.Instr.Store _ | Ir.Instr.Call _ ->
                ())
            b.Ir.Block.instrs)
        ctx.Hls.Ctx.func.Ir.Func.blocks)
    a.Core.Cayman.ctxs;
  Alcotest.(check int) "every operator occurs" (14 + 12 + 5)
    (Hashtbl.length ops);
  List.iter
    (fun cfg ->
      let ctx, region, _ =
        find_netlist a ~func:"kernel" ~region:"loop:loop_head1" cfg
      in
      let rep =
        Rtl.Cosim.run a.Core.Cayman.program
          { Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = cfg }
      in
      if not (Rtl.Cosim.functional_ok rep) then
        Alcotest.failf "functional mismatch:\n%s"
          (Rtl.Cosim.report_to_string rep);
      Alcotest.(check int) "three invocations" 3 rep.Rtl.Cosim.r_invocations;
      Alcotest.(check int)
        ("exact cycles " ^ Hls.Kernel.config_to_string cfg)
        (int_of_float rep.Rtl.Cosim.r_est_cycles)
        rep.Rtl.Cosim.r_sim_cycles)
    [ seq_cfg; pipe_cfg ]

(* --- datapath error texts and order ---

   Each kernel is a whole function, simulated once from a fresh memory.
   Operands are read in the order the boxed-value simulator evaluated
   them: a binary operator's right operand before its left, a store's
   value before its index, and only the arm a select takes. *)

let errors_src =
  {|int p[4]; int q[4]; int o[4];
    void kbin(int x, int y) { o[0] = x - y; }
    void kstore(int i, int v) { p[i] = v; }
    void ksel(int c, int u, int v) { o[1] = u; }
    void kdiv() { o[2] = p[0] / q[0]; }
    void krem() { o[3] = p[1] % q[1]; }
    void kload(int i) { o[0] = p[i]; }
    int main() {
      kbin(5, 3); kstore(1, 2); ksel(1, 4, 5); q[0] = 1; q[1] = 1;
      kdiv(); krem(); kload(2);
      return o[0];
    }|}

(* If-conversion copies each arm into a register of its own block, so
   [ksel] is written by hand: a select whose arms are its parameters. *)
let with_direct_select (p : Ir.Program.t) =
  let reg = Ir.Instr.reg in
  let c = reg "c" Ir.Types.I32 and u = reg "u" Ir.Types.I32
  and v = reg "v" Ir.Types.I32 in
  let t = reg "t" Ir.Types.Bool and r = reg "r" Ir.Types.I32 in
  let ksel =
    Ir.Func.v ~name:"ksel" ~params:[ c; u; v ] ~ret:None
      ~blocks:
        [ Ir.Block.v ~label:"entry0"
            ~instrs:
              [ Ir.Instr.Compare
                  (t, Ir.Op.Gt, Ir.Instr.Reg c, Ir.Instr.Imm_int 0);
                Ir.Instr.Select
                  (r, Ir.Instr.Reg t, Ir.Instr.Reg u, Ir.Instr.Reg v);
                Ir.Instr.Store
                  ( { Ir.Instr.base = "o"; index = Ir.Instr.Imm_int 1 },
                    Ir.Instr.Reg r ) ]
            ~term:(Ir.Instr.Return None) ]
  in
  Ir.Validate.check_exn
    { p with
      Ir.Program.funcs =
        List.map
          (fun (f : Ir.Func.t) ->
            if String.equal f.Ir.Func.name "ksel" then ksel else f)
          p.Ir.Program.funcs }

let test_sim_error_order () =
  let a =
    Core.Cayman.analyze
      (with_direct_select
         (Ir.Validate.program (Cayman_frontend.Lower.compile errors_src)))
  in
  let program = Ir.Validate.program a.Core.Cayman.program in
  let run ?(undriven = []) ?(env = []) func =
    let ctx, _, nl = find_netlist a ~func ~region:"func:entry0" seq_cfg in
    let nl =
      { nl with
        Hls.Netlist.nl_arch_regs =
          List.filter
            (fun (r, _) -> not (List.mem r undriven))
            nl.Hls.Netlist.nl_arch_regs }
    in
    match
      Rtl.Sim.run ctx nl ~env ~mem:(Sim.Memory.create program)
    with
    | o -> Ok o
    | exception Rtl.Sim.Rtl_error m -> Error ("Rtl_error: " ^ m)
    | exception Sim.Interp.Runtime_error m -> Error ("Runtime_error: " ^ m)
    | exception Sim.Memory.Fault m -> Error ("memory fault: " ^ m)
  in
  let expect name want got =
    match got with
    | Ok _ -> Alcotest.failf "%s: simulation succeeded" name
    | Error m -> Alcotest.(check string) name want m
  in
  let i n = Sim.Value.Vint n in
  expect "division by zero" "Runtime_error: integer division by zero"
    (run "kdiv");
  expect "remainder by zero" "Runtime_error: integer remainder by zero"
    (run "krem");
  expect "load out of bounds" "memory fault: index 4 out of bounds for p[4]"
    (run ~env:[ "i", i 4 ] "kload");
  expect "store out of bounds"
    "memory fault: index -1 out of bounds for p[4]"
    (run ~env:[ "i", i (-1) ] "kstore");
  expect "binary reads b before a"
    "Rtl_error: undriven register %y in block entry0"
    (run ~undriven:[ "x"; "y" ] "kbin");
  expect "binary reads a" "Rtl_error: undriven register %x in block entry0"
    (run ~undriven:[ "x" ] "kbin");
  expect "store reads the value before the index"
    "Rtl_error: undriven register %v in block entry0"
    (run ~undriven:[ "i"; "v" ] "kstore");
  expect "store reads the index"
    "Rtl_error: undriven register %i in block entry0"
    (run ~undriven:[ "i" ] "kstore");
  expect "select reads the arm it takes"
    "Rtl_error: undriven register %u in block entry0"
    (run ~undriven:[ "u"; "v" ] ~env:[ "c", i 1 ] "ksel");
  expect "select reads the other arm"
    "Rtl_error: undriven register %v in block entry0"
    (run ~undriven:[ "u"; "v" ] "ksel");
  match run ~undriven:[ "v" ] ~env:[ "c", i 1; "u", i 9 ] "ksel" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "the arm a select skips was read: %s" m

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

(* --- netlist simulator allocation ---

   A datapath step reads and writes unboxed banks, so the minor words of
   one invocation do not depend on how many instructions it executes:
   the same loop kernel at 10 and at 1000 iterations, sequential and
   pipelined, int and float arithmetic, loads, stores and a select. *)

let trips_src n =
  Printf.sprintf
    {|const int N = %d;
      float a[16]; float out[16]; int cnt[1];
      void kernel() {
        int c = 0;
        for (int i = 0; i < N; i++) {
          int k = i %% 16;
          out[k] = a[k] * 2.0 + out[k];
          if (a[k] > 0.5) { c = c + 1; }
        }
        cnt[0] = c;
      }
      int main() {
        for (int i = 0; i < 16; i++) { a[i] = 1.0; }
        kernel();
        return cnt[0];
      }|}
    n

let exec_minor_words n cfg =
  let a = Core.Cayman.analyze (Cayman_frontend.Lower.compile (trips_src n)) in
  let ctx, _, nl =
    find_netlist a ~func:"kernel" ~region:"loop:loop_head1" cfg
  in
  let program = Ir.Validate.program a.Core.Cayman.program in
  let sim = Rtl.Sim.compile ctx nl in
  let mem = Sim.Memory.create program in
  let env = Sim.Interp.regs_of_list [] and at = Rtl.Sim.positions sim [] in
  let exec () = Rtl.Sim.exec sim ~env ~at ~mem in
  let (_ : Rtl.Sim.outcome) = exec () in
  let before = Gc.minor_words () in
  let o = exec () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "the loop ran" true
    (o.Rtl.Sim.o_iterations + o.Rtl.Sim.o_activations > n);
  words

let test_sim_no_per_instruction_alloc () =
  List.iter
    (fun cfg ->
      let w10 = exec_minor_words 10 cfg
      and w1000 = exec_minor_words 1000 cfg in
      if w1000 > w10 then
        Alcotest.failf
          "%s: minor words grow with the trip count: %.0f at 10 iterations, \
           %.0f at 1000"
          (Hls.Kernel.config_to_string cfg)
          w10 w1000)
    [ seq_cfg; pipe_cfg ]

(* --- the RTL work count ---

   [rtl.sim_instrs] counts the datapath instructions of every state
   activation and pipeline step. Every entry of a region is
   co-simulated, so it equals the golden profile's work in the region:
   the sum over its blocks of executions times instructions. *)
let test_sim_instrs_match_profile () =
  let counter = Obs.Metrics.counter "rtl.sim_instrs" in
  List.iter
    (fun name ->
      let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn name)) in
      let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
      let specs =
        Core.Cayman.kernels a
          (Core.Cayman.best_under_ratio r ~budget_ratio:0.25)
      in
      let expected =
        List.fold_left
          (fun acc (spec : Rtl.Cosim.spec) ->
            let ctx = spec.Rtl.Cosim.k_ctx in
            An.Region.String_set.fold
              (fun l acc ->
                acc
                + Hls.Ctx.block_exec ctx l
                  * Array.length (Hls.Ctx.dfg ctx l).Hls.Dfg.instrs)
              spec.Rtl.Cosim.k_region.An.Region.blocks acc)
          0 specs
      in
      let before = Obs.Metrics.value counter in
      let reports =
        Memo.Store.without_cache (fun () ->
            Rtl.Cosim.run_many a.Core.Cayman.program specs)
      in
      List.iter
        (fun rep ->
          if not (Rtl.Cosim.functional_ok rep) then
            Alcotest.failf "functional mismatch:\n%s"
              (Rtl.Cosim.report_to_string rep))
        reports;
      Alcotest.(check bool) (name ^ ": kernels selected") true (specs <> []);
      Alcotest.(check int) (name ^ ": rtl.sim_instrs") expected
        (Obs.Metrics.value counter - before))
    [ "atax"; "fft"; "mvt" ]

(* --- tracing ---

   A traced co-simulation books the golden interpreter and the netlist
   simulator to spans of their own: every [rtl.sim] invocation runs
   inside the [sim.interp] span of the golden run that drives it. *)
let test_cosim_trace_spans () =
  let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn "atax")) in
  let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
  let specs =
    Core.Cayman.kernels a (Core.Cayman.best_under_ratio r ~budget_ratio:0.25)
  in
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

(* --- when the golden run stops ---

   Each program stores [dv[0] = 1] first and later divides by a value
   derived from [dv[0]]. The analysis profiles it as written; the golden
   run under test is the same if-converted program with that store
   writing 0, so the division faults wherever control reaches it. A
   fault the stopped run no longer reaches is unseen; one before the
   stop still raises. *)

let m_golden_stops = Obs.Metrics.counter "rtl.cosim_golden_stops"

let faulting (a : Core.Cayman.analyzed) =
  let p = Ir.Validate.program a.Core.Cayman.program in
  let zero_dv (i : Ir.Instr.t) =
    match i with
    | Ir.Instr.Store (({ Ir.Instr.base = "dv"; _ } as m), Ir.Instr.Imm_int 1)
      ->
      Ir.Instr.Store (m, Ir.Instr.Imm_int 0)
    | i -> i
  in
  let funcs =
    List.map
      (fun (f : Ir.Func.t) ->
        { f with
          Ir.Func.blocks =
            List.map
              (fun (b : Ir.Block.t) ->
                { b with Ir.Block.instrs = List.map zero_dv b.Ir.Block.instrs })
              f.Ir.Func.blocks })
      p.Ir.Program.funcs
  in
  let checked = Ir.Validate.check_exn { p with Ir.Program.funcs } in
  (match Sim.Interp.run (checked :> Ir.Cfg.program) with
   | _ -> Alcotest.fail "the faulting program runs to completion"
   | exception Sim.Interp.Runtime_error _ -> ());
  checked

(* The synthesizable region of [func] of the given kind with the fewest
   blocks (the innermost loop). *)
let stop_spec (a : Core.Cayman.analyzed) ~func kind =
  let regions =
    List.filter
      (fun ((ctx : Hls.Ctx.t), (r : An.Region.t), _, _) ->
        String.equal ctx.Hls.Ctx.func.Ir.Func.name func
        && r.An.Region.kind = kind)
      (netlists_of a [ seq_cfg ])
  in
  let size (_, (r : An.Region.t), _, _) =
    An.Region.String_set.cardinal r.An.Region.blocks
  in
  match List.sort (fun x y -> compare (size x) (size y)) regions with
  | (ctx, region, _, _) :: _ ->
    { Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = seq_cfg }
  | [] ->
    Alcotest.failf "no synthesizable %s region in %s"
      (An.Region.kind_to_string kind)
      func

let stop_setup src ~func kind =
  let a = Core.Cayman.analyze (Cayman_frontend.Lower.compile src) in
  faulting a, stop_spec a ~func kind

(* The reports of a run that must end before its fault, and the golden
   stops it counted. *)
let stopped_reports ?max_invocations golden specs =
  Memo.Store.without_cache @@ fun () ->
  let before = Obs.Metrics.value m_golden_stops in
  let reports = Rtl.Cosim.run_many ?max_invocations golden specs in
  List.iter
    (fun rep ->
      if not (Rtl.Cosim.functional_ok rep) then
        Alcotest.failf "functional mismatch:\n%s"
          (Rtl.Cosim.report_to_string rep))
    reports;
  reports, Obs.Metrics.value m_golden_stops - before

(* Every kernel here runs past its cap when it has one. *)
let check_stopped ?max_invocations name golden spec ~invocations =
  match stopped_reports ?max_invocations golden [ spec ] with
  | [ rep ], stops ->
    Alcotest.(check int) (name ^ ": invocations") invocations
      rep.Rtl.Cosim.r_invocations;
    Alcotest.(check bool) (name ^ ": capped") (max_invocations <> None)
      rep.Rtl.Cosim.r_capped;
    Alcotest.(check int) (name ^ ": golden stops") 1 stops
  | _ -> Alcotest.failf "%s: one report expected" name

let check_faults ?max_invocations name golden specs =
  Memo.Store.without_cache @@ fun () ->
  match Rtl.Cosim.run_many ?max_invocations golden specs with
  | _ -> Alcotest.failf "%s: the fault before the stop went unseen" name
  | exception Sim.Interp.Runtime_error m ->
    Alcotest.(check string) name "integer division by zero" m

(* [between] runs after [init] returns and before main's loop. *)
let init_program between =
  Printf.sprintf
    {|const int N = 16;
      int dv[1]; int a[N]; int b[N]; int out[2];
      void init() {
        for (int i = 0; i < N; i++) { a[i] = i * 3; }
      }
      int main() {
        dv[0] = 1;
        init();
        %s
        for (int t = 0; t < 4; t++) {
          for (int i = 0; i < N; i++) { b[i] = b[i] + a[i]; }
        }
        out[1] = 5 / dv[0];
        return b[3];
      }|}
    between

let test_stop_once_called () =
  let golden, spec =
    stop_setup (init_program "") ~func:"init" An.Region.Loop_region
  in
  check_stopped "init" golden spec ~invocations:1;
  (* a second call later in the same block keeps the first from ending
     the run *)
  let golden, spec =
    stop_setup (init_program "init();") ~func:"init" An.Region.Loop_region
  in
  check_stopped "init twice" golden spec ~invocations:2

(* Two divisors: [in_loop] is evaluated after the call in iteration [t]
   of main's loop, [after] after the loop. Each must be non-zero for
   [dv[0] = 1]. *)
let called_src ~in_loop ~after =
  Printf.sprintf
    {|const int N = 16;
      int dv[1]; int a[N]; int b[N]; int out[2];
      void kernel() {
        for (int i = 0; i < N; i++) { b[i] = b[i] + a[i]; }
      }
      int main() {
        dv[0] = 1;
        for (int i = 0; i < N; i++) { a[i] = i; }
        for (int t = 0; t < 4; t++) {
          kernel();
          out[0] = 5 / (%s);
        }
        out[1] = 5 / (%s);
        return b[3];
      }|}
    in_loop after

let test_stop_called_in_loop () =
  let golden, spec =
    stop_setup
      (called_src ~in_loop:"dv[0] + 3 - t" ~after:"1")
      ~func:"kernel" An.Region.Loop_region
  in
  check_faults "fault after the last call" golden [ spec ];
  let golden, spec =
    stop_setup
      (called_src ~in_loop:"1" ~after:"dv[0]")
      ~func:"kernel" An.Region.Loop_region
  in
  check_stopped "fault after the loop" golden spec ~invocations:4

let test_stop_recursive () =
  let golden, spec =
    stop_setup
      {|const int N = 16;
        int dv[1]; int a[N]; int b[N]; int out[2];
        void rec(int d) {
          for (int i = 0; i < N; i++) { b[i] = b[i] + a[i] * d; }
          if (d > 0) { rec(d - 1); }
        }
        int main() {
          dv[0] = 1;
          for (int i = 0; i < N; i++) { a[i] = i; }
          rec(3);
          out[1] = 5 / dv[0];
          return b[3];
        }|}
      ~func:"rec" An.Region.Loop_region
  in
  check_stopped "recursive" golden spec ~invocations:4

let test_stop_in_main () =
  let golden, spec =
    stop_setup
      {|const int N = 16;
        int dv[1]; int a[N]; int b[N]; int out[2];
        int main() {
          dv[0] = 1;
          for (int i = 0; i < N; i++) { a[i] = i; }
          for (int t = 0; t < 4; t++) {
            for (int i = 0; i < N; i++) { b[i] = b[i] + a[i] * t; }
          }
          out[1] = 5 / dv[0];
          return b[3];
        }|}
      ~func:"main" An.Region.Loop_region
  in
  check_stopped "main" golden spec ~invocations:4

(* The region is a branch over two loops, run once: its exit is the
   only block where the golden run can learn it is done, and the inner
   blocks cannot reach its entry. *)
let test_stop_conditional () =
  let golden, spec =
    stop_setup
      {|const int N = 16;
        int dv[1]; int a[N]; int b[N]; int out[2];
        int main() {
          dv[0] = 1;
          for (int i = 0; i < N; i++) { a[i] = i; }
          if (a[1] > 0) {
            for (int i = 0; i < N; i++) { b[i] = a[i] * 2; }
          } else {
            for (int i = 0; i < N; i++) { b[i] = a[i] + 1; }
          }
          out[0] = b[3];
          out[1] = 5 / dv[0];
          return out[0];
        }|}
      ~func:"main" An.Region.Cond_region
  in
  check_stopped "conditional" golden spec ~invocations:1

(* An early kernel (in [init]) and a late one (main's loop): the run
   stops only once the late one is done, so a fault between the two is
   seen by the batch and not by the early kernel alone. *)
let test_stop_waits_for_late_kernel () =
  let a =
    Core.Cayman.analyze (Cayman_frontend.Lower.compile (init_program ""))
  in
  let early = stop_spec a ~func:"init" An.Region.Loop_region
  and late = stop_spec a ~func:"main" An.Region.Loop_region in
  let golden = faulting a in
  let single spec =
    match stopped_reports golden [ spec ] with
    | [ rep ], _ -> rep
    | _ -> Alcotest.fail "one report expected"
  in
  (match stopped_reports golden [ early; late ] with
   | [ e; l ], stops ->
     Alcotest.(check int) "golden stops" 1 stops;
     Alcotest.(check int) "late invocations" 4 l.Rtl.Cosim.r_invocations;
     Alcotest.(check bool) "early report alone" true (e = single early);
     Alcotest.(check bool) "late report alone" true (l = single late)
   | _ -> Alcotest.fail "two reports expected");
  let a =
    Core.Cayman.analyze
      (Cayman_frontend.Lower.compile (init_program "out[0] = 5 / dv[0];"))
  in
  let early = stop_spec a ~func:"init" An.Region.Loop_region
  and late = stop_spec a ~func:"main" An.Region.Loop_region in
  let golden = faulting a in
  check_stopped "early alone" golden early ~invocations:1;
  check_faults "fault between the kernels" golden [ early; late ]

(* With one invocation allowed, the run stops at the second entry: a
   fault after it is unseen, one before it raises. *)
let test_stop_capped () =
  let golden, spec =
    stop_setup
      (called_src ~in_loop:"dv[0] * 4 + 1 - t" ~after:"1")
      ~func:"kernel" An.Region.Loop_region
  in
  check_stopped ~max_invocations:1 "after the second entry" golden spec
    ~invocations:1;
  check_faults "uncapped" golden [ spec ];
  let golden, spec =
    stop_setup
      (called_src ~in_loop:"dv[0] * (t + 1)" ~after:"1")
      ~func:"kernel" An.Region.Loop_region
  in
  check_faults ~max_invocations:1 "before the second entry" golden [ spec ]

(* --- memory mismatches under the logged check ---

   An invocation's memory check reads only the elements the golden run
   or the netlist stored. Netlists that skip a golden store, add a store
   the golden run never makes, or store the right value at the wrong
   index must each be reported, with the detail a whole-memory
   [Memory.diff] gives. The damage is done to the netlist's data-flow
   graphs only: the golden program, and with it the kernel's write set,
   stays as it is. *)

let stores_src =
  {|int a[8]; int b[9];
    void k(int s) {
      for (int i = 0; i < 8; i++) { b[i] = a[i] + s; }
    }
    int main() {
      for (int i = 0; i < 8; i++) { a[i] = i * 3 + 1; }
      k(1); k(2); k(5);
      return b[3];
    }|}

(* [spec]'s context with the block that stores to [b] rewritten by
   [f], which maps that store to its replacement. *)
let damage_store (spec : Rtl.Cosim.spec) f =
  let ctx = spec.Rtl.Cosim.k_ctx in
  let rewrite (d : Hls.Dfg.t) =
    let b = d.Hls.Dfg.block in
    let instrs =
      List.concat_map
        (fun (i : Ir.Instr.t) ->
          match i with
          | Ir.Instr.Store ({ Ir.Instr.base = "b"; index }, v) -> f index v
          | i -> [ i ])
        b.Ir.Block.instrs
    in
    if List.length instrs = List.length b.Ir.Block.instrs
       && List.for_all2 ( == ) instrs b.Ir.Block.instrs
    then d
    else Hls.Dfg.of_block { b with Ir.Block.instrs }
  in
  { spec with
    Rtl.Cosim.k_ctx = { ctx with Hls.Ctx.dfgs = Array.map rewrite ctx.Hls.Ctx.dfgs } }

(* Every invocation of [spec] replayed as a whole-memory check: at the
   entry, the netlist runs on private copies of every array; at the
   exit, [Memory.diff] compares all of them with the golden memory. *)
let full_diff_mismatches (program : Ir.Validate.t) (spec : Rtl.Cosim.spec) nl =
  let sim = Rtl.Sim.compile spec.Rtl.Cosim.k_ctx nl in
  let bases =
    List.map
      (fun (g : Ir.Program.global) -> g.Ir.Program.gname)
      (Ir.Validate.program program).Ir.Program.globals
  in
  let shadow = Sim.Memory.shadow bases in
  let func = spec.Rtl.Cosim.k_ctx.Hls.Ctx.func.Ir.Func.name in
  let region = spec.Rtl.Cosim.k_region in
  let regs = List.map fst nl.Hls.Netlist.nl_arch_regs in
  let at = Rtl.Sim.positions sim regs in
  let pending = ref None and inv = ref 0 and found = ref [] in
  let close mem =
    Option.iter
      (fun (o : Rtl.Sim.outcome) ->
        List.iter
          (fun (base, detail) ->
            found :=
              Printf.sprintf "inv %d memory: %s: %s" !inv base detail :: !found)
          (Sim.Memory.diff ~bases mem o.Rtl.Sim.o_mem))
      !pending;
    pending := None
  in
  let observer =
    { Sim.Interp.obs_block =
        (fun ~func:f ~label ->
          if not (String.equal f func) then None
          else
            Some
              { Sim.Interp.w_reads = regs;
                w_run =
                  (fun ~regs ~mem ->
                    if not (An.Region.String_set.mem label region.An.Region.blocks)
                    then close mem
                    else if
                      String.equal label region.An.Region.entry && !pending = None
                    then begin
                      incr inv;
                      pending :=
                        Some
                          (Rtl.Sim.exec sim ~env:regs ~at
                             ~mem:(Sim.Memory.view shadow mem))
                    end) });
      obs_return =
        (fun ~func:f ->
          if not (String.equal f func) then None
          else
            Some
              { Sim.Interp.w_reads = regs;
                w_run = (fun ~regs:_ ~value:_ ~mem -> close mem) });
      obs_logged = (fun ~func:_ ~label:_ -> false);
      obs_log = Sim.Memory.Log.create () }
  in
  ignore
    (Sim.Interp.run ~observer (program :> Ir.Cfg.program) : Sim.Interp.result);
  List.rev !found

let test_cosim_memory_damage () =
  let a = Core.Cayman.analyze (Cayman_frontend.Lower.compile stores_src) in
  let program = a.Core.Cayman.program in
  let ctx, region, nl = find_netlist a ~func:"k" ~region:"func:entry0" seq_cfg in
  let spec = { Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = seq_cfg } in
  let shifted = Ir.Instr.reg "shifted" Ir.Types.I32 in
  let damages =
    [ "skips the golden store", (fun _ _ -> []);
      ( "adds a store",
        fun index v ->
          [ Ir.Instr.Store ({ Ir.Instr.base = "b"; index }, v);
            Ir.Instr.Store ({ Ir.Instr.base = "b"; index = Ir.Instr.Imm_int 8 }, v)
          ] );
      ( "stores at the wrong index",
        fun index v ->
          [ Ir.Instr.Binary (shifted, Ir.Op.Add, index, Ir.Instr.Imm_int 1);
            Ir.Instr.Store
              ({ Ir.Instr.base = "b"; index = Ir.Instr.Reg shifted }, v) ] ) ]
  in
  List.iter
    (fun (name, f) ->
      let damaged = damage_store spec f in
      let want = full_diff_mismatches program damaged nl in
      Alcotest.(check int) (name ^ ": one memory mismatch per invocation") 3
        (List.length want);
      List.iter
        (fun engine ->
          Sim.Interp.with_engine engine @@ fun () ->
          match Rtl.Cosim.run_many ~faults:[ Some nl, None ] program [ damaged ] with
          | [ rep ] ->
            Alcotest.(check (list string))
              (name ^ " @ " ^ Sim.Interp.engine_name engine)
              want
              (List.map
                 (fun (m : Rtl.Cosim.mismatch) ->
                   Printf.sprintf "inv %d %s: %s" m.Rtl.Cosim.m_invocation
                     m.Rtl.Cosim.m_kind m.Rtl.Cosim.m_detail)
                 rep.Rtl.Cosim.r_mismatches)
          | _ -> Alcotest.fail "one report expected")
        [ Sim.Interp.Reference; Sim.Interp.Staged ])
    damages;
  (* the undamaged netlist agrees *)
  Alcotest.(check (list string)) "undamaged" []
    (full_diff_mismatches program spec nl)

(* --- def bytes of an observed run ---

   A watch point keeps def bytes only for the registers it declares and
   cannot prove written there. Covariance's second selected kernel
   declares its netlist's architectural registers at its region's entry
   and exits and at its function's returns, as co-simulation does. The
   same watch points declaring nothing run the links of an unobserved
   run plus their own: one per watched block entry, and one more per
   entry of a watched loop header that the unobserved run threaded into
   its latch's jump. Declaring the registers adds one def-byte link per
   execution of a block that defines a declared register some watch
   point cannot prove written, and nothing else: a register outside the
   declared ones keeps no byte. *)
let m_links = Obs.Metrics.counter "sim.profile_links"
let m_entries = Obs.Metrics.counter "sim.profile_entries"

let test_declared_reads_keep_no_def_bytes () =
  let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn "covariance")) in
  let program = (a.Core.Cayman.program :> Ir.Cfg.program) in
  let sel =
    Core.Cayman.best_under_ratio
      (Core.Cayman.run ~jobs:1 ~mode:Hls.Kernel.Heuristic a)
      ~budget_ratio:0.25
  in
  let spec = Core.Cayman.kernel_of a (List.nth sel.Core.Solution.accels 1) in
  let nl = Hls.Netlist.structure_of spec in
  let regs = List.map fst nl.Hls.Netlist.nl_arch_regs in
  let ctx = spec.Rtl.Cosim.k_ctx and region = spec.Rtl.Cosim.k_region in
  let func = ctx.Hls.Ctx.func.Ir.Func.name in
  let inside l = An.Region.String_set.mem l region.An.Region.blocks in
  let points =
    region.An.Region.entry
    :: List.concat_map
         (fun (b : Ir.Block.t) ->
           if inside b.Ir.Block.label then
             List.filter
               (fun l -> not (inside l))
               (Ir.Instr.term_succs b.Ir.Block.term)
           else [])
         ctx.Hls.Ctx.func.Ir.Func.blocks
  in
  let watched = ref 0 in
  let observer reads =
    let watch f = Some { Sim.Interp.w_reads = reads; w_run = f } in
    let read_all regs =
      List.iter (fun r -> ignore (Sim.Interp.read regs r : Sim.Value.t option)) reads
    in
    { Sim.Interp.obs_block =
        (fun ~func:f ~label ->
          if String.equal f func && List.mem label points then
            watch (fun ~regs ~mem:_ ->
                incr watched;
                read_all regs)
          else None);
      obs_return =
        (fun ~func:f ->
          if String.equal f func then
            watch (fun ~regs ~value:_ ~mem:_ -> read_all regs)
          else None);
      obs_logged = (fun ~func:_ ~label:_ -> false);
      obs_log = Sim.Memory.Log.create () }
  in
  (* The links of a completed staged run, the block executions threaded
     into a jump (not block-loop entries), and the profile. *)
  let links ?observer () =
    let before = Obs.Metrics.value m_links
    and entries = Obs.Metrics.value m_entries in
    let res = Sim.Interp.run ~engine:Sim.Interp.Staged ?observer program in
    let blocks =
      List.fold_left
        (fun acc (f : Ir.Func.t) ->
          Array.fold_left ( + ) acc
            (Sim.Profile.find res.Sim.Interp.profile f.Ir.Func.name)
              .Sim.Profile.blocks)
        0 program.Ir.Cfg.program.Ir.Program.funcs
    in
    ( Obs.Metrics.value m_links - before,
      blocks - (Obs.Metrics.value m_entries - entries),
      res.Sim.Interp.profile )
  in
  let unobserved, threaded, profile = links () in
  let bare, bare_threaded, _ = links ~observer:(observer []) () in
  if !watched = 0 then Alcotest.fail "no watched block ran";
  Alcotest.(check int) "links: unobserved plus the watch points'"
    (unobserved + !watched + (threaded - bare_threaded))
    bare;
  let declared, _, _ = links ~observer:(observer regs) () in
  (* The declared registers some watch point cannot prove written: at a
     block's entry, or after the instructions of a returning block. *)
  let cfg, md = Option.get (Ir.Cfg.find program func) in
  let written (b : Ir.Block.t) r =
    List.exists
      (fun i ->
        match Ir.Instr.def i with
        | Some d -> String.equal d.Ir.Instr.id r
        | None -> false)
      b.Ir.Block.instrs
  in
  let proven v r =
    let u = Ir.Cfg.Must_defined.reg md r in
    u >= 0 && Ir.Cfg.Bits.mem (Ir.Cfg.Must_defined.at_entry md v) u
  in
  let unproven =
    List.filter
      (fun r ->
        Ir.Cfg.Must_defined.reg md r >= 0
        && (List.exists (fun l -> not (proven (Ir.Cfg.id cfg l) r)) points
           || Array.exists
                (fun (b : Ir.Block.t) ->
                  match b.Ir.Block.term with
                  | Ir.Instr.Return _ ->
                    not
                      (proven (Ir.Cfg.id cfg b.Ir.Block.label) r || written b r)
                  | Ir.Instr.Jump _ | Ir.Instr.Branch _ -> false)
                cfg.Ir.Cfg.blocks))
      regs
  in
  (* A block that returns keeps no byte: its frame dies there. *)
  let execs = (Sim.Profile.find profile func).Sim.Profile.blocks in
  let def_links = ref 0 in
  Array.iteri
    (fun v (b : Ir.Block.t) ->
      match b.Ir.Block.term with
      | Ir.Instr.Return _ -> ()
      | Ir.Instr.Jump _ | Ir.Instr.Branch _ ->
        if List.exists (written b) unproven then
          def_links := !def_links + execs.(v))
    cfg.Ir.Cfg.blocks;
  Alcotest.(check int) "links: the watch points' plus declared def bytes"
    (bare + !def_links) declared

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
    Alcotest.test_case "cosim: a state without a data-flow graph" `Quick
      test_cosim_no_dfg_is_a_sim_error;
    Alcotest.test_case "sim: fault semantics of cross-type swaps and bits"
      `Quick test_fault_semantics;
    Alcotest.test_case "sim: a register committed twice counts two writes"
      `Quick test_fault_counts_double_commit;
    Alcotest.test_case "sim: every operator agrees with the golden run"
      `Quick test_datapath_parity;
    Alcotest.test_case "sim: datapath errors and their order" `Quick
      test_sim_error_order;
    Alcotest.test_case "cosim: no major allocation per invocation" `Quick
      test_cosim_no_per_invocation_major_alloc;
    Alcotest.test_case "sim: no allocation per datapath instruction" `Quick
      test_sim_no_per_instruction_alloc;
    Alcotest.test_case "sim: rtl.sim_instrs is the profiled region work"
      `Quick test_sim_instrs_match_profile;
    Alcotest.test_case "trace: rtl.sim nests inside sim.interp" `Quick
      test_cosim_trace_spans;
    Alcotest.test_case "stop: kernel in a once-called function" `Quick
      test_stop_once_called;
    Alcotest.test_case "stop: kernel called in a loop" `Quick
      test_stop_called_in_loop;
    Alcotest.test_case "stop: kernel in a recursive function" `Quick
      test_stop_recursive;
    Alcotest.test_case "stop: kernel in main" `Quick test_stop_in_main;
    Alcotest.test_case "stop: conditional region" `Quick
      test_stop_conditional;
    Alcotest.test_case "stop: a batch waits for its late kernel" `Quick
      test_stop_waits_for_late_kernel;
    Alcotest.test_case "stop: a capped kernel at its second entry" `Quick
      test_stop_capped;
    Alcotest.test_case "cosim: damaged stores are memory mismatches" `Quick
      test_cosim_memory_damage;
    Alcotest.test_case "interp: declared reads keep no def byte" `Quick
      test_declared_reads_keep_no_def_bytes;
    qcheck_cosim_oracle ]

