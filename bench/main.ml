(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 for the experiment index).

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- table2        # one experiment
     dune exec bench/main.exe -- --json out table2 cosim
         # additionally write out_table2.json, out_cosim.json

   Experiments: table1 fig2 fig4 table2 fig6 cosim faults
   ablation-filter ablation-merge ablation-cache ablation-dse, the fast
   variants table2-small cosim-small faults-small, and the opt-in
   fleet fleet-small serve-load serve-load-small serve-chaos. Speed is
   measured by perfbench/, not here. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim
module Hls = Cayman_hls
module Fe = Cayman_frontend
module Suite = Cayman_suites.Suite

let budgets = [ 0.25; 0.65 ]

(* ------------------------------------------------------------------ *)
(* Method runners                                                      *)
(* ------------------------------------------------------------------ *)

type method_run = {
  m_frontier : Core.Solution.t list;
  m_runtime : float;  (* wall-clock seconds; [Sys.time] is CPU time and
                         over-reports under the parallel engine *)
}

(* [memo_key] names the generator for the on-disk memoization store
   (see lib/memo); per-region kernel generation is shared across
   benchmarks and across runs when the cache is enabled (the default —
   [--no-cache] turns it off, and cached results are bit-identical to
   recomputed ones, so stdout stays byte-stable either way). *)
let run_gen ~memo_key (gen : Core.Select.accel_gen) (a : Core.Cayman.analyzed)
    =
  let (frontier, _), m_runtime =
    Engine.Clock.timed (fun () ->
        Core.Select.select ~memo_key ~gen a.Core.Cayman.ctxs
          a.Core.Cayman.wpst a.Core.Cayman.profile)
  in
  { m_frontier = frontier; m_runtime }

type eval = {
  bench : Suite.benchmark;
  a : Core.Cayman.analyzed;
  full : method_run;
  coupled : method_run;
  novia : method_run;
  qscores : method_run;
}

let evaluate (bench : Suite.benchmark) =
  let a = Core.Cayman.analyze (Suite.compile bench) in
  { bench;
    a;
    full =
      run_gen
        ~memo_key:(Core.Cayman.gen_key Hls.Kernel.Heuristic)
        (Core.Cayman.gen Hls.Kernel.Heuristic) a;
    coupled =
      run_gen
        ~memo_key:(Core.Cayman.gen_key Hls.Kernel.Coupled_only)
        (Core.Cayman.gen Hls.Kernel.Coupled_only) a;
    novia = run_gen ~memo_key:"baseline.novia" Cayman_baselines.Novia.gen a;
    qscores =
      run_gen ~memo_key:"baseline.qscores" Cayman_baselines.Qscores.gen a }

let best frontier budget_ratio =
  let budget = budget_ratio *. Hls.Tech.cva6_tile_area in
  match Core.Solution.best_under ~budget frontier with
  | Some s -> s
  | None -> Core.Solution.empty

let speedup_of (a : Core.Cayman.analyzed) frontier budget_ratio =
  Core.Solution.speedup ~t_all:a.Core.Cayman.t_all (best frontier budget_ratio)

(* ------------------------------------------------------------------ *)
(* Table I: qualitative comparison                                     *)
(* ------------------------------------------------------------------ *)

let table1 () =
  print_endline @@ String.concat "\n"
    [ "== Table I: comparison between prior works and Cayman ==";
      "method   | design entry | selection | control flow | data access  | sharing";
      "---------+--------------+-----------+--------------+--------------+---------";
      "HLS      | kernel       | manual    | optimized    | specified    | /";
      "CFU      | application  | auto      | /            | scalar-only  | restricted";
      "OCA      | application  | auto      | sequential   | slow         | restricted";
      "Cayman   | application  | auto      | optimized    | specialized  | flexible";
      "(CFU baseline here: lib/baselines/novia.ml; OCA baseline: qscores.ml)" ]

(* ------------------------------------------------------------------ *)
(* Fig 2: wPST + profiling + analysis of the paper's example           *)
(* ------------------------------------------------------------------ *)

let fig2_src =
  {|
const int N = 64;
const int M = 32;

float x[N]; float y[N]; float A[N][M]; float B[N][M]; float z[N];

void func0(float k, float b) {
  linear: for (int i = 0; i < N; i++) {
    y[i] = k * x[i] + b;
  }
}

void func1() {
  outer: for (int i = 0; i < N; i++) {
    dot_product: for (int j = 0; j < M; j++) {
      z[i] += A[i][j] * B[i][j];
    }
  }
}

int main() {
  for (int i = 0; i < N; i++) {
    x[i] = (float)i;
    z[i] = 0.0;
    for (int j = 0; j < M; j++) {
      A[i][j] = (float)(i + j);
      B[i][j] = (float)(i * j % 7);
    }
  }
  func0(2.0, 1.0);
  func1();
  float s = 0.0;
  for (int i = 0; i < N; i++) { s += y[i] + z[i]; }
  return (int)s;
}
|}

let fig2 () =
  print_endline "== Fig 2: wPST representation, profiling and analysis ==";
  let a = Core.Cayman.analyze_source fig2_src in
  Format.printf "%a@." An.Wpst.pp a.Core.Cayman.wpst;
  let ctx = Hashtbl.find a.Core.Cayman.ctxs "func1" in
  let func = ctx.Hls.Ctx.func in
  (* the dot_product loop region *)
  List.iter
    (fun (l : An.Loops.loop) ->
      let entries = Hls.Ctx.loop_entries ctx l in
      let trip = Hls.Ctx.trip ctx l.An.Loops.header in
      Format.printf "loop %-18s entries=%-6d avg-trip=%-5d@." l.An.Loops.header
        entries trip;
      match Hls.Ctx.loop_info ctx l.An.Loops.header with
      | Some info ->
        Format.printf "  loop-carried deps: %d, scalar recurrences: [%s]@."
          (List.length info.An.Memdep.carried)
          (String.concat ", " info.An.Memdep.recurrences)
      | None -> ())
    ctx.Hls.Ctx.loops;
  (* classification and footprints of every access of func1 *)
  List.iter
    (fun (b : Ir.Block.t) ->
      List.iteri
        (fun pos instr ->
          if Ir.Instr.is_mem instr then begin
            let label = b.Ir.Block.label in
            let pat = An.Scev.classify ctx.Hls.Ctx.scev ~block:label ~pos in
            let trips =
              List.map
                (fun (l : An.Loops.loop) ->
                  l.An.Loops.header, Hls.Ctx.trip ctx l.An.Loops.header)
                (An.Loops.enclosing ctx.Hls.Ctx.loops label)
            in
            let fp =
              An.Scev.footprint ctx.Hls.Ctx.scev ~block:label ~pos
                ~trips:
                  (List.filter
                     (fun (h, _) ->
                       (* innermost loop only: footprint per dot_product run *)
                       String.equal h
                         (match An.Loops.enclosing ctx.Hls.Ctx.loops label with
                          | l :: _ -> l.An.Loops.header
                          | [] -> ""))
                     trips)
            in
            Format.printf "  %-32s pattern=%-12s footprint/inner-run=%s@."
              (Format.asprintf "%a" Ir.Instr.pp instr)
              (An.Scev.pattern_to_string pat)
              (match fp with
               | Some f -> string_of_int f
               | None -> "n/a")
          end)
        b.Ir.Block.instrs)
    func.Ir.Func.blocks

(* ------------------------------------------------------------------ *)
(* Fig 4: impact of data access interfaces                             *)
(* ------------------------------------------------------------------ *)

let fig4_src =
  {|
const int N = 1024;
float x[N]; float y[N];

void kernel(float k, float b) {
  for (int i = 0; i < N; i++) {
    y[i] = k * x[i] + b;
  }
}

int main() {
  for (int i = 0; i < N; i++) { x[i] = (float)i * 0.25; }
  for (int t = 0; t < 4; t++) { kernel(1.5, 2.0); }
  float s = 0.0;
  for (int i = 0; i < N; i++) { s += y[i]; }
  return (int)s;
}
|}

let fig4 () =
  print_endline
    "== Fig 4: impact of data access interfaces (y[i] = k*x[i] + b) ==";
  let a = Core.Cayman.analyze_source fig4_src in
  let ctx = Hashtbl.find a.Core.Cayman.ctxs "kernel" in
  (* the loop region inside kernel *)
  let ft =
    match An.Wpst.func_tree a.Core.Cayman.wpst "kernel" with
    | Some ft -> ft
    | None -> failwith "fig4: kernel function missing"
  in
  let loop_region = ref None in
  An.Region.iter
    (fun r ->
      if r.An.Region.kind = An.Region.Loop_region && !loop_region = None then
        loop_region := Some r)
    ft.An.Wpst.root;
  let region =
    match !loop_region with
    | Some r -> r
    | None -> failwith "fig4: loop region not found"
  in
  let trip = 1024 in
  let show name config =
    match Hls.Kernel.estimate ctx region config with
    | Some p ->
      let per_iter =
        p.Hls.Kernel.accel_cycles /. float_of_int (4 * trip)
      in
      Printf.printf
        "  %-32s total=%9.0f cyc  per-iteration=%5.2f cyc  area=%8.0f um^2\n"
        name p.Hls.Kernel.accel_cycles per_iter p.Hls.Kernel.area
    | None -> Printf.printf "  %-32s (not synthesizable)\n" name
  in
  let cfg unroll pipeline mode = { Hls.Kernel.unroll; pipeline; mode } in
  print_endline "sequential loop:";
  show "coupled" (cfg 1 false Hls.Kernel.Coupled_only);
  show "decoupled" (cfg 1 false Hls.Kernel.Decoupled_preferred);
  print_endline "loop pipelining:";
  show "coupled" (cfg 1 true Hls.Kernel.Coupled_only);
  show "decoupled (heuristic)" (cfg 1 true Hls.Kernel.Heuristic);
  print_endline "loop unrolling (factor 2):";
  show "coupled" (cfg 2 true Hls.Kernel.Coupled_only);
  show "scratchpad" (cfg 2 true Hls.Kernel.Scratchpad_preferred);
  print_endline
    "(expected shape: decoupled < coupled for sequential; pipelined II\n\
    \ coupled > decoupled; unrolled coupled serializes on the port while\n\
    \ the banked scratchpad keeps scaling)"

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

type row = {
  r_name : string;
  r_suite : string;
  (* per budget: ratio over novia, over qscores, totals, merge saving *)
  r_cells : (float * float * Core.Report.totals * float) list;
  r_runtime : float;
}

let table2_row (e : eval) =
  let cells =
    List.map
      (fun budget ->
        let s_full = best e.full.m_frontier budget in
        let sp_full =
          Core.Solution.speedup ~t_all:e.a.Core.Cayman.t_all s_full
        in
        let sp_novia = speedup_of e.a e.novia.m_frontier budget in
        let sp_qs = speedup_of e.a e.qscores.m_frontier budget in
        let t = Core.Report.totals s_full in
        let m = Core.Cayman.merge e.a s_full in
        sp_full /. sp_novia, sp_full /. sp_qs, t, m.Core.Merge.saving_pct)
      budgets
  in
  { r_name = e.bench.Suite.name;
    r_suite = e.bench.Suite.suite;
    r_cells = cells;
    r_runtime = e.full.m_runtime +. e.coupled.m_runtime }

(* Selection runtimes are wall-clock measurements and vary run to run,
   so they go to stderr: stdout stays byte-identical for any
   CAYMAN_JOBS value (the engine's determinism contract). *)
let print_table2_header () =
  Printf.printf "%-26s %-12s" "benchmark" "suite";
  List.iter
    (fun b ->
      Printf.printf
        " | x/NOVIA x/QsCor  #SB  #PR   #C   #D   #S save%% (@%.0f%%)"
        (100.0 *. b))
    budgets;
  Printf.printf "\n";
  Printf.printf "%s\n" (String.make 150 '-')

let print_table2_row r =
  Printf.printf "%-26s %-12s" r.r_name r.r_suite;
  List.iter
    (fun (rn, rq, (t : Core.Report.totals), save) ->
      Printf.printf " | %7.1f %7.1f %4d %4d %4d %4d %4d %5.0f        "
        rn rq t.Core.Report.sb t.Core.Report.pr t.Core.Report.c
        t.Core.Report.d t.Core.Report.s save)
    r.r_cells;
  Printf.printf "\n"

let print_table2_average rows =
  let n = float_of_int (List.length rows) in
  let cell_avgs =
    List.mapi
      (fun i _ ->
        let get r = List.nth r.r_cells i in
        let sum_f f = List.fold_left (fun acc r -> acc +. f (get r)) 0.0 rows in
        let sum_i f = List.fold_left (fun acc r -> acc + f (get r)) 0 rows in
        ( sum_f (fun (a, _, _, _) -> a) /. n,
          sum_f (fun (_, b, _, _) -> b) /. n,
          { Core.Report.sb = sum_i (fun (_, _, t, _) -> t.Core.Report.sb) / List.length rows;
            pr = sum_i (fun (_, _, t, _) -> t.Core.Report.pr) / List.length rows;
            c = sum_i (fun (_, _, t, _) -> t.Core.Report.c) / List.length rows;
            d = sum_i (fun (_, _, t, _) -> t.Core.Report.d) / List.length rows;
            s = sum_i (fun (_, _, t, _) -> t.Core.Report.s) / List.length rows;
            n_accels = 0 },
          sum_f (fun (_, _, _, s) -> s) /. n ))
      budgets
  in
  let avg_runtime =
    List.fold_left (fun acc r -> acc +. r.r_runtime) 0.0 rows /. n
  in
  print_table2_row
    { r_name = "average"; r_suite = ""; r_cells = cell_avgs;
      r_runtime = avg_runtime }

let table2_json rows =
  Json_out.Obj
    [ ( "rows",
        Json_out.List
          (List.map
             (fun r ->
               Json_out.Obj
                 [ "benchmark", Json_out.String r.r_name;
                   "suite", Json_out.String r.r_suite;
                   ( "budgets",
                     Json_out.List
                       (List.map2
                          (fun b (rn, rq, (t : Core.Report.totals), save) ->
                            Json_out.Obj
                              [ "budget_ratio", Json_out.Float b;
                                "speedup_vs_novia", Json_out.Float rn;
                                "speedup_vs_qscores", Json_out.Float rq;
                                "sb", Json_out.Int t.Core.Report.sb;
                                "pr", Json_out.Int t.Core.Report.pr;
                                "coupled", Json_out.Int t.Core.Report.c;
                                "decoupled", Json_out.Int t.Core.Report.d;
                                "scratchpad", Json_out.Int t.Core.Report.s;
                                "merge_saving_pct", Json_out.Float save ])
                          budgets r.r_cells) ) ])
             rows) ) ]

let table2 ?(name = "table2") ?(benchmarks = Suite.all) () =
  print_endline
    "== Table II: speedup over NOVIA / QsCores, configurations, merging ==";
  print_table2_header ();
  (* One task per benchmark across the domain pool; rows come back in
     suite order, so the printed table is independent of the worker
     count and of task completion order. Completion-order progress goes
     to stderr so a long run isn't silent until the table prints. *)
  let n_benchmarks = List.length benchmarks in
  let n_done = Atomic.make 0 in
  let evaluate_logged b =
    let e, dt = Engine.Clock.timed (fun () -> evaluate b) in
    let k = 1 + Atomic.fetch_and_add n_done 1 in
    Printf.eprintf "  [%d/%d] %-26s %7.2f s (jobs=%d)\n%!" k n_benchmarks
      b.Suite.name dt
      (Engine.Config.jobs ());
    e
  in
  (* map_result isolates per-benchmark failures: a benchmark whose
     evaluation throws (e.g. under fault injection) prints a
     deterministic failure row and drops out of the averages instead of
     aborting the whole table. *)
  let results, wall =
    Engine.Clock.timed (fun () ->
        Engine.Pool.map_result evaluate_logged benchmarks)
  in
  let (evals : eval list) =
    List.filter_map
      (function Ok e -> Some e | Error _ -> None)
      results
  in
  let rows = List.map table2_row evals in
  List.iter2
    (fun (b : Suite.benchmark) res ->
      match res with
      | Ok e -> print_table2_row (table2_row e)
      | Error (e, _) ->
        Printf.printf "%-26s FAILED: %s (excluded from the table)\n"
          b.Suite.name
          (Cayman_fault.Classify.exn_class e))
    benchmarks results;
  Printf.printf "%s\n" (String.make 150 '-');
  print_table2_average rows;
  flush stdout;
  Json_out.write name (table2_json rows);
  (* Timing report (stderr, excluded from the deterministic stdout):
     per-benchmark selection wall times plus the serial-equivalent total
     (the jobs=1 wall time) next to the actual elapsed wall time. *)
  let serial_equiv =
    List.fold_left
      (fun acc e ->
        acc +. e.full.m_runtime +. e.coupled.m_runtime +. e.novia.m_runtime
        +. e.qscores.m_runtime)
      0.0 evals
  in
  List.iter
    (fun e ->
      Printf.eprintf "  %-26s selection %8.2f s (full %.2f coupled %.2f \
                      novia %.2f qscores %.2f)\n"
        e.bench.Suite.name
        (e.full.m_runtime +. e.coupled.m_runtime +. e.novia.m_runtime
         +. e.qscores.m_runtime)
        e.full.m_runtime e.coupled.m_runtime e.novia.m_runtime
        e.qscores.m_runtime)
    evals;
  Printf.eprintf
    "table2 timing: selection %.2f s serial-equivalent (jobs=1), whole \
     table %.2f s wall with %d job(s)\n"
    serial_equiv wall
    (Engine.Config.jobs ());
  flush stderr

(* ------------------------------------------------------------------ *)
(* Fig 6: Pareto fronts of four benchmarks                             *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  print_endline
    "== Fig 6: speedup (y) vs area ratio (x) Pareto fronts ==";
  let evals =
    Engine.Pool.map (fun name -> evaluate (Suite.find_exn name)) Suite.fig6
  in
  List.iter2
    (fun name e ->
      Printf.printf "benchmark %s (T_all = %.4fs)\n" name e.a.Core.Cayman.t_all;
      let series label (m : method_run) =
        Printf.printf "  %-16s" label;
        List.iter
          (fun s ->
            Printf.printf " (%.3f, %.2f)"
              (Core.Report.area_ratio s)
              (Core.Solution.speedup ~t_all:e.a.Core.Cayman.t_all s))
          m.m_frontier;
        print_newline ()
      in
      series "NOVIA" e.novia;
      series "QsCores" e.qscores;
      series "Cayman-coupled" e.coupled;
      series "Cayman-full" e.full)
    Suite.fig6 evals;
  let json_series (e : eval) label (m : method_run) =
    Json_out.Obj
      [ "method", Json_out.String label;
        ( "points",
          Json_out.List
            (List.map
               (fun s ->
                 Json_out.Obj
                   [ "area_ratio", Json_out.Float (Core.Report.area_ratio s);
                     ( "speedup",
                       Json_out.Float
                         (Core.Solution.speedup ~t_all:e.a.Core.Cayman.t_all s)
                     ) ])
               m.m_frontier) ) ]
  in
  Json_out.write "fig6"
    (Json_out.Obj
       [ ( "benchmarks",
           Json_out.List
             (List.map2
                (fun name e ->
                  Json_out.Obj
                    [ "benchmark", Json_out.String name;
                      "t_all_s", Json_out.Float e.a.Core.Cayman.t_all;
                      ( "series",
                        Json_out.List
                          [ json_series e "novia" e.novia;
                            json_series e "qscores" e.qscores;
                            json_series e "cayman-coupled" e.coupled;
                            json_series e "cayman-full" e.full ] ) ])
                Suite.fig6 evals) ) ])

(* ------------------------------------------------------------------ *)
(* Co-simulation: Rtl.Sim netlists vs the golden interpreter           *)
(* ------------------------------------------------------------------ *)

(* The kernels a selected solution accelerates, as co-simulation specs
   paired with the structured netlists Rtl.Lint checks. Every selected
   kernel came from [Kernel.estimate], so [of_kernel] is expected to
   succeed; a kernel it cannot elaborate is reported, not skipped
   silently. *)
let cosim_specs (a : Core.Cayman.analyzed) (s : Core.Solution.t) =
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
        let config = acc.Core.Solution.a_point.Hls.Kernel.config in
        (match Hls.Netlist.of_kernel ctx region config with
         | Some { Hls.Netlist.structure = Some nl; _ } ->
           Some
             ( { Rtl.Cosim.k_ctx = ctx; k_region = region; k_config = config },
               nl )
         | Some { Hls.Netlist.structure = None; _ } | None -> None))
    s.Core.Solution.accels

let cosim_modes =
  [ "heuristic", Hls.Kernel.Heuristic;
    "coupled-only", Hls.Kernel.Coupled_only;
    "scan-only", Hls.Kernel.Scan_only ]

type cosim_row = {
  c_bench : string;
  c_lines : string list;  (* per-kernel report lines, deterministic *)
  c_kernels : int;
  c_lint : int;
  c_func_fail : int;
  c_cycle_fail : int;
  c_json : Json_out.t;
}

let cosim_bench (b : Suite.benchmark) =
  let a = Core.Cayman.analyze (Suite.compile b) in
  (* The analyses — and therefore every kernel's region labels — refer
     to the if-converted program, so that is the golden program the
     observed interpreter must run. *)
  let program = a.Core.Cayman.program in
  let lines = ref [] in
  let kernels = ref 0 and lint = ref 0 in
  let func_fail = ref 0 and cycle_fail = ref 0 in
  let json_modes =
    List.map
      (fun (mname, mode) ->
        let r = Core.Cayman.run ~mode a in
        let sel = Core.Cayman.best_under_ratio r ~budget_ratio:0.25 in
        let pairs = cosim_specs a sel in
        let n_lint = ref 0 in
        List.iter
          (fun (_, nl) ->
            List.iter
              (fun f ->
                incr n_lint;
                lines :=
                  Printf.sprintf "  [%s] lint %s: %s" mname
                    nl.Hls.Netlist.nl_name (Rtl.Lint.to_string f)
                  :: !lines)
              (Rtl.Lint.check nl))
          pairs;
        lint := !lint + !n_lint;
        let reports = Rtl.Cosim.run_many program (List.map fst pairs) in
        let json_kernels =
          List.map
            (fun (rep : Rtl.Cosim.report) ->
              incr kernels;
              if not (Rtl.Cosim.functional_ok rep) then incr func_fail;
              if not rep.Rtl.Cosim.r_cycles_ok then incr cycle_fail;
              lines :=
                Printf.sprintf "  [%s] %s" mname
                  (Rtl.Cosim.report_to_string rep)
                :: !lines;
              Json_out.Obj
                [ "kernel", Json_out.String rep.Rtl.Cosim.r_kernel;
                  "config", Json_out.String rep.Rtl.Cosim.r_config;
                  "invocations", Json_out.Int rep.Rtl.Cosim.r_invocations;
                  "sim_cycles", Json_out.Int rep.Rtl.Cosim.r_sim_cycles;
                  "est_cycles", Json_out.Float rep.Rtl.Cosim.r_est_cycles;
                  ( "functional_ok",
                    Json_out.Bool (Rtl.Cosim.functional_ok rep) );
                  "cycles_ok", Json_out.Bool rep.Rtl.Cosim.r_cycles_ok;
                  "mismatches", Json_out.Int rep.Rtl.Cosim.r_n_mismatches;
                  "iterations", Json_out.Int rep.Rtl.Cosim.r_iterations ])
            reports
        in
        Json_out.Obj
          [ "mode", Json_out.String mname;
            "lint_findings", Json_out.Int !n_lint;
            "kernels", Json_out.List json_kernels ])
      cosim_modes
  in
  { c_bench = b.Suite.name;
    c_lines = List.rev !lines;
    c_kernels = !kernels;
    c_lint = !lint;
    c_func_fail = !func_fail;
    c_cycle_fail = !cycle_fail;
    c_json =
      Json_out.Obj
        [ "benchmark", Json_out.String b.Suite.name;
          "modes", Json_out.List json_modes ] }

let cosim ?(benchmarks = Suite.all) () =
  print_endline
    "== Co-simulation: netlist simulator vs golden interpreter \
     (25% budget, three interface modes) ==";
  let n_benchmarks = List.length benchmarks in
  let n_done = Atomic.make 0 in
  let cosim_logged b =
    let row, dt = Engine.Clock.timed (fun () -> cosim_bench b) in
    let k = 1 + Atomic.fetch_and_add n_done 1 in
    Printf.eprintf "  [%d/%d] %-26s %7.2f s (jobs=%d)\n%!" k n_benchmarks
      b.Suite.name dt
      (Engine.Config.jobs ());
    row
  in
  (* One task per benchmark across the domain pool, like table2; rows
     print in list order so stdout is byte-identical for any
     CAYMAN_JOBS. *)
  let results, wall =
    Engine.Clock.timed (fun () ->
        Engine.Pool.map_result cosim_logged benchmarks)
  in
  let rows =
    List.filter_map
      (function Ok r -> Some r | Error _ -> None)
      results
  in
  List.iter2
    (fun (b : Suite.benchmark) res ->
      match res with
      | Ok row ->
        Printf.printf "%s: %d kernels, %d lint finding(s), %d functional \
                       mismatch(es), %d cycle-tolerance miss(es)\n"
          row.c_bench row.c_kernels row.c_lint row.c_func_fail
          row.c_cycle_fail;
        List.iter print_endline row.c_lines
      | Error (e, _) ->
        Printf.printf "%s: FAILED: %s (excluded from the summary)\n"
          b.Suite.name
          (Cayman_fault.Classify.exn_class e))
    benchmarks results;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let kernels = sum (fun r -> r.c_kernels) in
  let lint = sum (fun r -> r.c_lint) in
  let func_fail = sum (fun r -> r.c_func_fail) in
  let cycle_fail = sum (fun r -> r.c_cycle_fail) in
  Printf.printf
    "cosim summary: %d kernel co-simulations over %d benchmark(s) x %d \
     mode(s); %d lint finding(s), %d functional mismatch(es), %d \
     cycle-tolerance miss(es)\n"
    kernels (List.length rows) (List.length cosim_modes) lint func_fail
    cycle_fail;
  flush stdout;
  Json_out.write "cosim"
    (Json_out.Obj
       [ "benchmarks", Json_out.List (List.map (fun r -> r.c_json) rows);
         ( "summary",
           Json_out.Obj
             [ "kernels", Json_out.Int kernels;
               "lint_findings", Json_out.Int lint;
               "functional_mismatches", Json_out.Int func_fail;
               "cycle_misses", Json_out.Int cycle_fail ] ) ]);
  Printf.eprintf "cosim: %.2f s wall with %d job(s)\n%!" wall
    (Engine.Config.jobs ())

(* ------------------------------------------------------------------ *)
(* Ablation A: the alpha filter                                        *)
(* ------------------------------------------------------------------ *)

let ablation_filter () =
  print_endline "== Ablation A: filter ratio alpha on 3mm ==";
  let e_bench = Suite.find_exn "3mm" in
  let a = Core.Cayman.analyze (Suite.compile e_bench) in
  Printf.printf "%-8s %-10s %-10s %-12s %-12s\n" "alpha" "frontier"
    "points" "runtime(s)" "speedup@25%";
  List.iter
    (fun alpha ->
      let params = { Core.Select.default_params with Core.Select.alpha } in
      let (frontier, stats), dt =
        Engine.Clock.timed (fun () ->
            Core.Select.select ~params
              ~memo_key:(Core.Cayman.gen_key Hls.Kernel.Heuristic)
              ~gen:(Core.Cayman.gen Hls.Kernel.Heuristic)
              a.Core.Cayman.ctxs a.Core.Cayman.wpst a.Core.Cayman.profile)
      in
      Printf.printf "%-8.2f %-10d %-10d %-12.4f %-12.3f\n" alpha
        (List.length frontier)
        stats.Core.Select.points_evaluated dt
        (Core.Solution.speedup ~t_all:a.Core.Cayman.t_all
           (best frontier 0.25)))
    [ 1.001; 1.02; 1.05; 1.08; 1.15; 1.3; 1.6; 2.0 ]

(* ------------------------------------------------------------------ *)
(* Ablation B: merging on/off                                          *)
(* ------------------------------------------------------------------ *)

let ablation_merge () =
  print_endline "== Ablation B: accelerator merging area savings (25% budget) ==";
  Printf.printf "%-26s %-10s %-12s %-12s %-10s %-18s\n" "benchmark" "#accels"
    "area-before" "area-after" "saving%" "regions/reusable";
  List.iter
    (fun (name, _) ->
      let b = Suite.find_exn name in
      let a = Core.Cayman.analyze (Suite.compile b) in
      let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
      let s = Core.Cayman.best_under_ratio r ~budget_ratio:0.25 in
      let m = Core.Cayman.merge a s in
      Printf.printf "%-26s %-10d %-12.0f %-12.0f %-10.1f %-18.1f\n" name
        (List.length s.Core.Solution.accels)
        m.Core.Merge.area_before m.Core.Merge.area_after
        m.Core.Merge.saving_pct m.Core.Merge.regions_per_reusable)
    Cayman_suites.Polybench.all

(* ------------------------------------------------------------------ *)
(* Ablation C: cache locality vs the fixed host memory cost            *)
(* ------------------------------------------------------------------ *)

let ablation_cache () =
  print_endline
    "== Ablation C: L1 locality of each benchmark vs the host model's \
     fixed 8-cycle average load ==";
  Printf.printf "%-28s %12s %10s %16s\n" "benchmark" "accesses" "hit-rate"
    "avg cycles/access";
  List.iter
    (fun (b : Suite.benchmark) ->
      let program = Suite.compile b in
      match
        Sim.Interp.run ~cache_config:Sim.Cache.default_l1 program
      with
      | res ->
        (match res.Sim.Interp.cache_stats with
         | Some s ->
           Printf.printf "%-28s %12d %9.1f%% %16.2f\n" b.Suite.name
             s.Sim.Cache.accesses
             (100.0 *. Sim.Cache.hit_rate s)
             (Sim.Cache.avg_cycles Sim.Cache.default_l1 s)
         | None -> ())
      | exception Sim.Interp.Out_of_fuel ->
        Printf.printf "%-28s (out of fuel)\n" b.Suite.name)
    (List.filter_map Suite.find
       [ "3mm"; "atax"; "trisolv"; "jacobi-2d"; "fft"; "md"; "spmv"; "nw";
         "zip-test"; "parser-125k"; "loops-all-mid-10k-sp" ]);
  print_endline
    "(the fixed Cpu_model load cost of 8 cycles should sit between the\n\
    \ hit-dominated and miss-heavy rows)"

(* ------------------------------------------------------------------ *)
(* Ablation D: fast strategy vs exhaustive DSE                         *)
(* ------------------------------------------------------------------ *)

let ablation_dse () =
  print_endline
    "== Ablation D: Cayman's fast configuration strategy vs exhaustive \
     DSE (hottest loop kernel of each benchmark, 25% area cap) ==";
  Printf.printf "%-28s %14s %14s %8s\n" "benchmark" "fast cycles"
    "exhaustive" "gap";
  let cap = 0.25 *. Hls.Tech.cva6_tile_area in
  (* Each benchmark's analyze + exhaustive sweep is independent: fan the
     DSE calls out across the pool and print the rows in list order. *)
  let rows =
    Engine.Pool.map
      (fun name ->
      let b = Suite.find_exn name in
      let a = Core.Cayman.analyze (Suite.compile b) in
      (* hottest synthesizable loop region across all functions *)
      let bestr = ref None in
      Hashtbl.iter
        (fun fname (ctx : Hls.Ctx.t) ->
          match An.Wpst.func_tree a.Core.Cayman.wpst fname with
          | None -> ()
          | Some ft ->
            An.Region.iter
              (fun r ->
                if r.An.Region.kind = An.Region.Loop_region then begin
                  let cycles =
                    Sim.Profile.region_cycles ctx.Hls.Ctx.func
                      a.Core.Cayman.profile r
                  in
                  match !bestr with
                  | Some (_, _, c) when c >= cycles -> ()
                  | Some _ | None ->
                    if
                      Hls.Kernel.plan ctx r
                        { Hls.Kernel.unroll = 1; pipeline = true;
                          mode = Hls.Kernel.Heuristic }
                      <> None
                    then bestr := Some (ctx, r, cycles)
                end)
              ft.An.Wpst.root)
        a.Core.Cayman.ctxs;
      match !bestr with
      | None -> Printf.sprintf "%-28s (no synthesizable loop)" name
      | Some (ctx, region, _) ->
        (match Hls.Dse.heuristic_vs_exhaustive ctx region ~area:cap with
         | Some (fast, exhaustive) ->
           Printf.sprintf "%-28s %14.0f %14.0f %7.1f%%" name fast exhaustive
             (100.0 *. (fast -. exhaustive) /. Float.max exhaustive 1.0)
         | None -> Printf.sprintf "%-28s (no feasible point)" name))
      [ "3mm"; "atax"; "jacobi-2d"; "fft"; "spmv"; "nnet-test";
        "loops-all-mid-10k-sp" ]
  in
  List.iter print_endline rows;
  print_endline
    "(small gaps validate the paper's claim that the pruned strategy\n\
    \ explores the space efficiently without losing much quality)"

(* ------------------------------------------------------------------ *)
(* Fault-injection campaign                                            *)
(* ------------------------------------------------------------------ *)

(* Cross-suite subset keeping the default campaign under a minute; the
   CLI's `cayman faults --all` covers the whole suite. *)
let fault_benchmarks =
  [ "atax"; "bicg"; "mvt"; "trisolv"; "doitgen"; "fft"; "spmv"; "nw" ]

(* Deterministic fault-injection campaign (see lib/fault): RTL mutation
   coverage over the selected kernels plus seeded pipeline-stage
   faults. The report, stdout included, is a pure function of the
   options and benchmark list — byte-identical for every CAYMAN_JOBS. *)
let faults ?(name = "faults")
    ?(options = Cayman_fault.Campaign.default_options)
    ?(benchmarks = List.filter_map Suite.find fault_benchmarks) () =
  print_endline
    "== Fault injection: RTL mutation coverage + pipeline-stage faults ==";
  let report, wall =
    Engine.Clock.timed (fun () ->
        Cayman_fault.Campaign.run options benchmarks)
  in
  print_string (Cayman_fault.Campaign.to_string report);
  flush stdout;
  Json_out.write name (Cayman_fault.Campaign.to_json report);
  Printf.eprintf "%s: %.2f s wall with %d job(s), coverage %.1f%%, %d \
                  unhandled stage fault(s)\n%!"
    name wall
    (Engine.Config.jobs ())
    (100.0 *. Cayman_fault.Campaign.coverage report)
    (Cayman_fault.Campaign.unhandled report)

(* ------------------------------------------------------------------ *)
(* Serve: daemon throughput and latency under concurrent replay        *)
(* ------------------------------------------------------------------ *)

(* Opt-in (not part of `all`): the stdout carries measured wall times.
   An in-process daemon is started on a private socket with a fresh
   private memoization store, then:

     1. cold pass  — one client replays every benchmark as concurrent
        `run` requests against the empty caches;
     2. warm reps  — CAYMAN_BENCH_REPS (default 3) reps of N client
        domains, each concurrently replaying the full benchmark list;
        per-request latency is measured client-side from send to reply
        (queueing included), pooled across reps into p50/p95/p99;
     3. baseline   — a few one-shot `cayman run --no-cache` subprocess
        invocations of the sibling CLI, timing the per-request cost the
        daemon amortizes away, and checking the daemon's replies are
        byte-identical to the CLI's stdout.

   The experiment fails (exit 1) on any failed request, an identity
   mismatch, no warm request or no telemetry scrape, a scrape that does
   not parse, or a last scrape without the request counter's TYPE line.
   With --json BASE the result is written to BASE_<name>.json and the
   last scrape to BASE_telemetry.prom. *)

let serve_load ?(name = "serve-load") ?(benchmarks = Suite.all)
    ?(clients = 4) () =
  let reps =
    match
      Option.bind (Sys.getenv_opt "CAYMAN_BENCH_REPS") int_of_string_opt
    with
    | Some n when n > 0 -> n
    | Some _ | None -> 3
  in
  let bench_names = List.map (fun (b : Suite.benchmark) -> b.Suite.name) benchmarks in
  let n_benches = List.length bench_names in
  Printf.printf
    "== %s: daemon replay of %d benchmarks, %d concurrent clients, %d \
     warm reps ==\n"
    name n_benches clients reps;
  (* fresh private store so the cold pass is genuinely cold *)
  let store_dir = Filename.temp_file "cayman-serve-bench" "" in
  Sys.remove store_dir;
  Sys.mkdir store_dir 0o700;
  let prev_store = Memo.Store.ambient () in
  Memo.Store.reset_memory ();
  let sock = Filename.temp_file "cayman-serve-bench" ".sock" in
  Sys.remove sock;
  let config =
    { Serve.Server.default_config with
      Serve.Server.sc_interp = Some Sim.Interp.Staged;
      sc_cache = true;
      sc_cache_dir = Some store_dir }
  in
  let daemon = Domain.spawn (fun () -> Serve.Server.serve_socket ~config sock) in
  let rec wait_up n =
    if n = 0 then failwith "serve-load: daemon did not come up";
    match Serve.Client.connect sock with
    | cl -> cl
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.01;
      wait_up (n - 1)
  in
  let failed = Atomic.make 0 in
  (* Replay the benchmark list over [cl]: send everything, then collect
     by id. Returns (bench, reply, latency_s) in benchmark order. *)
  let replay cl =
    let sent =
      List.mapi
        (fun i b ->
          let id = i + 1 in
          Serve.Client.send cl (Serve.Protocol.request ~bench:b ~id "run");
          id, b, Engine.Clock.wall ())
        bench_names
    in
    List.map
      (fun (id, b, t0) ->
        let r = Serve.Client.recv cl ~id in
        if not r.Serve.Protocol.rp_ok then Atomic.incr failed;
        b, r, Engine.Clock.wall () -. t0)
      sent
  in
  let cl0 = wait_up 500 in
  let cold, cold_wall = Engine.Clock.timed (fun () -> replay cl0) in
  Printf.printf "%s: cold %d requests in %.3f s (%.4f s/request)\n" name
    n_benches cold_wall
    (cold_wall /. float_of_int n_benches);
  (* Concurrent telemetry scraper: polls the `telemetry` verb at ~10 Hz
     for the whole warm phase and validates every scrape through
     Obs.Expose.parse — so the warm throughput below includes the
     overhead a live dashboard imposes, and any exposition the daemon
     renders that does not parse back fails the experiment.

     A thread, deliberately not a domain: an extra live domain — even
     one asleep in [sleepf] — drags every stop-the-world minor GC of
     the whole process, which an interleaved A/B measured at ~6% of
     warm throughput, an order of magnitude above the scrapes
     themselves (~2%). An external dashboard process imposes neither,
     so the thread is the faithful stand-in. *)
  let scraper_stop = Atomic.make false in
  let scraper_result = ref (0, 0, "") in
  let scraper =
    Thread.create
      (fun () ->
        let cl = Serve.Client.connect sock in
        let n = ref 0 and bad = ref 0 and last = ref "" in
        while not (Atomic.get scraper_stop) do
          let r = Serve.Client.telemetry cl in
          incr n;
          (if not r.Serve.Protocol.rp_ok then incr bad
           else
             match Obs.Expose.parse r.Serve.Protocol.rp_output with
             | Ok _ -> last := r.Serve.Protocol.rp_output
             | Error _ -> incr bad);
          Unix.sleepf 0.1
        done;
        Serve.Client.close cl;
        scraper_result := (!n, !bad, !last))
      ()
  in
  (* warm concurrent reps *)
  let warm_latencies = ref [] in
  let warm_wall = ref 0.0 in
  for _ = 1 to reps do
    let (), wall =
      Engine.Clock.timed @@ fun () ->
      let doms =
        List.init clients (fun _ ->
            Domain.spawn (fun () ->
                let cl = Serve.Client.connect sock in
                let rows = replay cl in
                Serve.Client.close cl;
                List.map (fun (_, _, lat) -> lat) rows))
      in
      List.iter
        (fun d -> warm_latencies := Domain.join d @ !warm_latencies)
        doms
    in
    warm_wall := !warm_wall +. wall
  done;
  Atomic.set scraper_stop true;
  Thread.join scraper;
  let scrapes, scrape_failures, last_scrape = !scraper_result in
  Printf.printf
    "%s: telemetry scraper: %d scrapes at ~10 Hz, %d parse failure(s)\n"
    name scrapes scrape_failures;
  let n_warm = reps * clients * n_benches in
  let throughput = float_of_int n_warm /. !warm_wall in
  let sorted = List.sort compare !warm_latencies in
  let arr = Array.of_list sorted in
  let pct p =
    if Array.length arr = 0 then 0.0
    else
      arr.(min
             (Array.length arr - 1)
             (int_of_float (p *. float_of_int (Array.length arr))))
  in
  let p50 = pct 0.50 and p95 = pct 0.95 and p99 = pct 0.99 in
  Printf.printf
    "%s: warm %d requests in %.3f s -> %.1f requests/s; latency p50 %.1f \
     ms p95 %.1f ms p99 %.1f ms\n"
    name n_warm !warm_wall throughput (1e3 *. p50) (1e3 *. p95)
    (1e3 *. p99);
  (* one-shot CLI baseline + byte identity against the daemon replies *)
  let cli =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "cayman_cli.exe")
  in
  let baseline_names =
    List.filteri (fun i _ -> i < 3) bench_names
  in
  let identity = ref true in
  let baseline =
    if not (Sys.file_exists cli) then begin
      Printf.printf "%s: CLI baseline skipped (%s not built)\n" name cli;
      []
    end
    else
      List.map
        (fun b ->
          let (out, status), wall =
            Engine.Clock.timed @@ fun () ->
            let ic =
              Unix.open_process_in
                (Printf.sprintf "%s run --bench %s --no-cache"
                   (Filename.quote cli) (Filename.quote b))
            in
            let buf = Buffer.create 4096 in
            let chunk = Bytes.create 4096 in
            let rec slurp () =
              let n = input ic chunk 0 (Bytes.length chunk) in
              if n > 0 then begin
                Buffer.add_subbytes buf chunk 0 n;
                slurp ()
              end
            in
            (try slurp () with End_of_file -> ());
            let status = Unix.close_process_in ic in
            Buffer.contents buf, status
          in
          if status <> Unix.WEXITED 0 then Atomic.incr failed;
          let daemon_reply =
            match List.find_opt (fun (b', _, _) -> b' = b) cold with
            | Some (_, r, _) -> r.Serve.Protocol.rp_output
            | None -> ""
          in
          if out <> daemon_reply then begin
            identity := false;
            Printf.printf
              "%s: BYTE IDENTITY VIOLATED for %s (CLI %d bytes, daemon %d \
               bytes)\n"
              name b (String.length out)
              (String.length daemon_reply)
          end;
          b, wall)
        baseline_names
  in
  let baseline_mean =
    match baseline with
    | [] -> nan
    | rows ->
      List.fold_left (fun acc (_, w) -> acc +. w) 0.0 rows
      /. float_of_int (List.length rows)
  in
  let warm_per_request = !warm_wall /. float_of_int n_warm in
  let speedup_vs_cli = baseline_mean /. warm_per_request in
  if baseline <> [] then
    Printf.printf
      "%s: one-shot CLI baseline %.4f s/request -> warm daemon throughput \
       is %.1fx the per-request CLI (identity %s)\n"
      name baseline_mean speedup_vs_cli
      (if !identity then "ok" else "FAIL");
  Printf.printf "%s: %d failed request(s)\n" name (Atomic.get failed);
  flush stdout;
  (* shut the daemon down and restore the ambient store *)
  Serve.Client.shutdown cl0;
  Serve.Client.close cl0;
  Domain.join daemon;
  Memo.Store.reset_memory ();
  (match prev_store with
   | Some s -> Memo.Store.enable ~dir:(Memo.Store.dir s) ()
   | None -> Memo.Store.disable ());
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  (try rm_rf store_dir with Sys_error _ -> ());
  Json_out.write name
    (Json_out.Obj
       [ "experiment", Json_out.String name;
         "metric", Json_out.String "serve daemon throughput/latency";
         "benchmarks", Json_out.Int n_benches;
         "clients", Json_out.Int clients;
         "reps", Json_out.Int reps;
         ( "cold",
           Json_out.Obj
             [ "wall_s", Json_out.Float cold_wall;
               "mean_s", Json_out.Float (cold_wall /. float_of_int n_benches)
             ] );
         ( "warm",
           Json_out.Obj
             [ "wall_s", Json_out.Float !warm_wall;
               "requests", Json_out.Int n_warm;
               "throughput_rps", Json_out.Float throughput;
               "mean_s", Json_out.Float warm_per_request;
               "p50_us", Json_out.Float (1e6 *. p50);
               "p95_us", Json_out.Float (1e6 *. p95);
               "p99_us", Json_out.Float (1e6 *. p99) ] );
         ( "cli_baseline",
           Json_out.Obj
             [ "mean_s", Json_out.Float baseline_mean;
               ( "per_request",
                 Json_out.List
                   (List.map
                      (fun (b, w) ->
                        Json_out.Obj
                          [ "benchmark", Json_out.String b;
                            "wall_s", Json_out.Float w ])
                      baseline) ) ] );
         "speedup_vs_cli", Json_out.Float speedup_vs_cli;
         "failed_requests", Json_out.Int (Atomic.get failed);
         "byte_identity", Json_out.Bool !identity;
         ( "telemetry",
           Json_out.Obj
             [ "scrapes", Json_out.Int scrapes;
               "hz", Json_out.Float 10.0;
               "parse_failures", Json_out.Int scrape_failures ] ) ]);
  if last_scrape <> "" then Json_out.write_text "telemetry.prom" last_scrape;
  let requests_typed =
    List.mem "# TYPE cayman_serve_requests_total counter"
      (String.split_on_char '\n' last_scrape)
  in
  if Atomic.get failed > 0 || (not !identity) || n_warm = 0 || scrapes = 0
     || scrape_failures > 0 || not requests_typed
  then begin
    prerr_endline
      (name ^ ": failed requests, identity violation or telemetry failure");
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Serve: chaos campaign against the daemon's overload defenses        *)
(* ------------------------------------------------------------------ *)

(* Opt-in, like serve-load. An in-process daemon is started on a
   private socket with deliberately small overload caps (queue 64,
   write buffer 256 KiB), then abused concurrently for [duration_s]
   seconds by one seeded adversary per [Fault.Chaos] kind — torn and
   corrupted frames, mid-request hangups, a stalled reader that never
   drains its replies, oversized-header floods, raw garbage — while
   one well-behaved client keeps replaying `run` requests through
   [Serve.Client.rpc_retry] and checks every reply byte-for-byte
   against the in-process [Serve.Handlers] text (which IS the CLI's
   stdout by construction). The acceptance bar, enforced with exit 1:

     - the daemon domain never crashes (clean join after shutdown);
     - the well-behaved client sees zero mismatched bytes, zero
       unhandled exceptions, and no error classes outside the
       documented overload contract (overloaded / deadline-expired);
     - the write-buffer high-water mark stays <= the configured cap;
     - health and telemetry still answer (and parse) after the abuse;
     - every adversary kind ran and connected at least once;
     - every well-behaved request ended ok or shed after retries.

   The adversary schedule is a pure function of --seed, so a failure
   replays exactly. With --json BASE the campaign report is written to
   BASE_<name>.json. *)

let serve_chaos ?(name = "serve-chaos") ?(seed = 42) ?(duration_s = 2.0) () =
  let benches = [ "atax"; "bicg"; "mvt" ] in
  Printf.printf
    "== %s: %d seeded adversaries + 1 well-behaved client vs the daemon \
     for %.1f s (seed %d) ==\n"
    name
    (List.length Cayman_fault.Chaos.all_kinds)
    duration_s seed;
  (* expected reply texts, computed in-process: the daemon's replies
     are byte-identical to the CLI's stdout by construction (shared
     Serve.Handlers), so this is the identity oracle *)
  let expected =
    List.map
      (fun b ->
        let text =
          match Serve.Handlers.load ~bench:b () with
          | Error m -> failwith (name ^ ": " ^ m)
          | Ok p ->
            (match
               Serve.Handlers.run_text ~budget:0.25 ~mode:"full" ~alpha:1.08 p
             with
             | Ok text -> text
             | Error m -> failwith (name ^ ": " ^ m))
        in
        b, text)
      benches
  in
  (* fresh private store + socket, ambient store restored afterwards *)
  let store_dir = Filename.temp_file "cayman-serve-chaos" "" in
  Sys.remove store_dir;
  Sys.mkdir store_dir 0o700;
  let prev_store = Memo.Store.ambient () in
  Memo.Store.reset_memory ();
  let sock = Filename.temp_file "cayman-serve-chaos" ".sock" in
  Sys.remove sock;
  let config =
    { Serve.Server.default_config with
      Serve.Server.sc_interp = Some Sim.Interp.Staged;
      sc_cache = true;
      sc_cache_dir = Some store_dir;
      (* small caps so the campaign actually exercises the defenses
         (the write cap still comfortably exceeds the largest single
         reply these requests produce) *)
      sc_max_queue = 64;
      sc_max_write_buf = 64 * 1024 }
  in
  (* deltas, not totals: serve-load may have run in this process *)
  let c_shed = Obs.Metrics.counter "serve.shed" in
  let c_deadline = Obs.Metrics.counter "serve.deadline_expired" in
  let c_slow = Obs.Metrics.counter "serve.slow_client_disconnects" in
  let c_requests = Obs.Metrics.counter "serve.requests" in
  let c_errors = Obs.Metrics.counter "serve.errors" in
  let v0 = List.map Obs.Metrics.value [ c_shed; c_deadline; c_slow; c_requests; c_errors ] in
  let daemon =
    Domain.spawn (fun () ->
        match Serve.Server.serve_socket ~config sock with
        | () -> None
        | exception e -> Some (Printexc.to_string e))
  in
  let rec wait_up n =
    if n = 0 then failwith (name ^ ": daemon did not come up");
    match Serve.Client.connect sock with
    | cl -> cl
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.01;
      wait_up (n - 1)
  in
  let probe = wait_up 500 in
  (* the adversaries, one domain per kind, all seeded off the campaign
     seed and their own kind label *)
  let adversaries =
    List.map
      (fun kind ->
        Domain.spawn (fun () ->
            Cayman_fault.Chaos.run ~duration_s ~seed ~kind sock))
      Cayman_fault.Chaos.all_kinds
  in
  (* the well-behaved client, concurrently: replay `run` requests with
     the retrying client and check every byte *)
  let wb =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. duration_s in
        let cl = ref (Serve.Client.connect sock) in
        let requests = ref 0 in
        let ok = ref 0 in
        let mismatches = ref 0 in
        let shed_final = ref 0 in
        let unexpected = ref [] in
        let exns = ref 0 in
        while Unix.gettimeofday () < deadline do
          List.iter
            (fun (b, want) ->
              incr requests;
              match Serve.Client.rpc_retry !cl ~bench:b "run" with
              | r ->
                if r.Serve.Protocol.rp_ok then begin
                  if r.Serve.Protocol.rp_output = want then incr ok
                  else incr mismatches
                end
                else if r.Serve.Protocol.rp_class = "overloaded"
                        || r.Serve.Protocol.rp_class = "deadline-expired"
                then incr shed_final
                else unexpected := r.Serve.Protocol.rp_class :: !unexpected
              | exception _ ->
                incr exns;
                (match Serve.Client.connect sock with
                 | fresh ->
                   Serve.Client.close !cl;
                   cl := fresh
                 | exception _ -> ()))
            expected
        done;
        Serve.Client.close !cl;
        (!requests, !ok, !mismatches, !shed_final, !unexpected, !exns))
  in
  let adv_stats = List.map Domain.join adversaries in
  let wb_requests, wb_ok, wb_mismatches, wb_shed, wb_unexpected, wb_exns =
    Domain.join wb
  in
  (* after the abuse: the daemon must still answer, and its telemetry
     must still parse *)
  let health_ok =
    match Serve.Client.rpc probe "health" with
    | r -> r.Serve.Protocol.rp_ok && r.Serve.Protocol.rp_output = "ok\n"
    | exception _ -> false
  in
  let telemetry_ok =
    match Serve.Client.telemetry probe with
    | r ->
      r.Serve.Protocol.rp_ok
      && Result.is_ok (Obs.Expose.parse r.Serve.Protocol.rp_output)
    | exception _ -> false
  in
  let hwm =
    match List.assoc_opt "serve.write_buf_hwm" (Obs.Metrics.snapshot ()) with
    | Some (Obs.Metrics.S_gauge v) -> v
    | _ -> 0
  in
  (match Serve.Client.shutdown probe with
   | () -> ()
   | exception _ -> ());
  Serve.Client.close probe;
  let crash = Domain.join daemon in
  Memo.Store.reset_memory ();
  (match prev_store with
   | Some s -> Memo.Store.enable ~dir:(Memo.Store.dir s) ()
   | None -> Memo.Store.disable ());
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  (try rm_rf store_dir with Sys_error _ -> ());
  let v1 =
    List.map Obs.Metrics.value [ c_shed; c_deadline; c_slow; c_requests; c_errors ]
  in
  let d_shed, d_deadline, d_slow, d_requests, d_errors =
    match List.map2 (fun a b -> a - b) v1 v0 with
    | [ a; b; c; d; e ] -> a, b, c, d, e
    | _ -> 0, 0, 0, 0, 0
  in
  List.iter
    (fun (s : Cayman_fault.Chaos.stats) ->
      Printf.printf
        "%s: adversary %-17s %4d connects, %4d sends, %8d bytes, %4d \
         peer-closes, %d local errors\n"
        name s.Cayman_fault.Chaos.st_kind s.Cayman_fault.Chaos.st_connects
        s.Cayman_fault.Chaos.st_sends s.Cayman_fault.Chaos.st_bytes_sent
        s.Cayman_fault.Chaos.st_peer_closes
        s.Cayman_fault.Chaos.st_local_errors)
    adv_stats;
  Printf.printf
    "%s: well-behaved client: %d requests, %d ok, %d mismatches, %d shed \
     after retries, %d unexpected classes, %d exceptions\n"
    name wb_requests wb_ok wb_mismatches wb_shed
    (List.length wb_unexpected)
    wb_exns;
  Printf.printf
    "%s: daemon counters: %d served, %d errors, %d shed, %d \
     deadline-expired, %d slow-client disconnects\n"
    name d_requests d_errors d_shed d_deadline d_slow;
  Printf.printf "%s: write-buffer high-water mark %d bytes (cap %d)\n" name
    hwm config.Serve.Server.sc_max_write_buf;
  Printf.printf "%s: daemon crash: %s; health %s; telemetry parse %s\n" name
    (match crash with None -> "none" | Some m -> m)
    (if health_ok then "ok" else "FAIL")
    (if telemetry_ok then "ok" else "FAIL");
  flush stdout;
  Json_out.write name
    (Json_out.Obj
       [ "experiment", Json_out.String name;
         "seed", Json_out.Int seed;
         "duration_s", Json_out.Float duration_s;
         ( "daemon_crash",
           match crash with
           | None -> Json_out.Null
           | Some m -> Json_out.String m );
         ( "well_behaved",
           Json_out.Obj
             [ "requests", Json_out.Int wb_requests;
               "ok", Json_out.Int wb_ok;
               "mismatches", Json_out.Int wb_mismatches;
               "shed_after_retries", Json_out.Int wb_shed;
               "unexpected_classes", Json_out.Int (List.length wb_unexpected);
               "exceptions", Json_out.Int wb_exns ] );
         ( "adversaries",
           Json_out.List
             (List.map
                (fun (s : Cayman_fault.Chaos.stats) ->
                  Json_out.Obj
                    [ "kind", Json_out.String s.Cayman_fault.Chaos.st_kind;
                      "connects", Json_out.Int s.Cayman_fault.Chaos.st_connects;
                      "sends", Json_out.Int s.Cayman_fault.Chaos.st_sends;
                      ( "bytes_sent",
                        Json_out.Int s.Cayman_fault.Chaos.st_bytes_sent );
                      ( "peer_closes",
                        Json_out.Int s.Cayman_fault.Chaos.st_peer_closes );
                      ( "local_errors",
                        Json_out.Int s.Cayman_fault.Chaos.st_local_errors ) ])
                adv_stats) );
         ( "daemon",
           Json_out.Obj
             [ "requests", Json_out.Int d_requests;
               "errors", Json_out.Int d_errors;
               "shed", Json_out.Int d_shed;
               "deadline_expired", Json_out.Int d_deadline;
               "slow_client_disconnects", Json_out.Int d_slow ] );
         ( "write_buf",
           Json_out.Obj
             [ "hwm_bytes", Json_out.Int hwm;
               "cap_bytes", Json_out.Int config.Serve.Server.sc_max_write_buf
             ] );
         "health_ok", Json_out.Bool health_ok;
         "telemetry_parse_ok", Json_out.Bool telemetry_ok ]);
  (* six distinct kinds, a fixed count: dropping one from
     [Chaos.all_kinds] fails here instead of silently weakening the
     campaign *)
  let kinds =
    List.sort_uniq compare
      (List.map (fun (s : Cayman_fault.Chaos.stats) -> s.Cayman_fault.Chaos.st_kind)
         adv_stats)
  in
  let failed =
    crash <> None || wb_mismatches > 0 || wb_unexpected <> [] || wb_exns > 0
    || wb_ok + wb_shed <> wb_requests
    || (not health_ok) || (not telemetry_ok)
    || hwm > config.Serve.Server.sc_max_write_buf
    || List.length kinds <> 6
    || List.exists
         (fun (s : Cayman_fault.Chaos.stats) -> s.Cayman_fault.Chaos.st_connects = 0)
         adv_stats
  in
  if failed then begin
    prerr_endline
      (name
      ^ ": chaos campaign failed (crash, identity, unhandled class, \
         write-buffer bound or idle adversary)");
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fleet: cross-program accelerator sharing at population scale        *)
(* ------------------------------------------------------------------ *)

(* Opt-in, like serve-load. A fresh private memoization store makes
   the cold pass over the largest population genuinely cold; the warm
   rerun drops the in-memory layer (a process restart, simulated) and
   replays the identical fleet purely from disk — it must reproduce the
   cold report byte-for-byte (exit 1 otherwise), which is the same
   determinism contract the report already keeps across CAYMAN_JOBS
   values. The experiment also fails if any program's pipeline failed
   at any population size, or if cross-program merging does not beat
   per-program merging at the largest one. Stdout carries only
   schedule-independent area/coverage numbers; wall times go to stderr.
   With --json BASE the reports are written to BASE_<name>.json. *)

let fleet_bench ?(name = "fleet") ?(sizes = [ 1000; 2000; 5000; 10000 ])
    ?(seed = 42) () =
  let sizes = List.sort_uniq compare sizes in
  let max_size = List.fold_left max 0 sizes in
  Printf.printf
    "== %s: cross-program accelerator sharing over generated fleets \
     (seed %d) ==\n"
    name seed;
  (* fresh private store so the cold pass is genuinely cold *)
  let store_dir = Filename.temp_file "cayman-fleet-bench" "" in
  Sys.remove store_dir;
  Sys.mkdir store_dir 0o700;
  let prev_store = Memo.Store.ambient () in
  Memo.Store.reset_memory ();
  Memo.Store.enable ~dir:store_dir ();
  let opts kernels =
    { Fleet.Merge.default_options with
      Fleet.Merge.o_kernels = kernels;
      o_seed = seed }
  in
  let cold, cold_wall =
    Engine.Clock.timed (fun () -> Fleet.Merge.run (opts max_size))
  in
  print_string (Fleet.Merge.report_to_string cold);
  Printf.eprintf "%s: cold %d programs in %.3f s\n%!" name max_size
    cold_wall;
  (* simulated restart: drop the in-memory memo layer so the warm rerun
     reads every program summary back from disk *)
  Memo.Store.reset_memory ();
  let warm, warm_wall =
    Engine.Clock.timed (fun () -> Fleet.Merge.run (opts max_size))
  in
  let identical =
    String.equal
      (Fleet.Merge.report_to_string warm)
      (Fleet.Merge.report_to_string cold)
  in
  let speedup = cold_wall /. Float.max 1e-9 warm_wall in
  Printf.printf "%s: warm rerun report %s\n" name
    (if identical then "identical" else "DIFFERS");
  Printf.eprintf "%s: warm %d programs in %.3f s (%.1fx cold)\n%!" name
    max_size warm_wall speedup;
  (* area saved vs population size: every smaller prefix of the same
     fleet re-merged (program summaries come from the store, clustering
     and merging are recomputed per population) *)
  let rows =
    List.map
      (fun n -> if n = max_size then cold else Fleet.Merge.run (opts n))
      sizes
  in
  Printf.printf "%8s %8s %8s %10s %10s %10s %8s %8s\n" "programs"
    "kernels" "shared" "solo mm2" "per mm2" "fleet mm2" "fleet%" "vs-per%";
  let mm2 x = x /. 1.0e6 in
  List.iter
    (fun (r : Fleet.Merge.report) ->
      Printf.printf "%8d %8d %8d %10.4f %10.4f %10.4f %7.1f%% %7.1f%%\n"
        r.Fleet.Merge.r_programs r.Fleet.Merge.r_kernels
        r.Fleet.Merge.r_accels
        (mm2 r.Fleet.Merge.r_area_solo)
        (mm2 r.Fleet.Merge.r_area_per_program)
        (mm2 r.Fleet.Merge.r_area_fleet)
        r.Fleet.Merge.r_saving_fleet_pct
        r.Fleet.Merge.r_saving_vs_per_program_pct)
    rows;
  flush stdout;
  (* restore the ambient store and drop the private one *)
  Memo.Store.reset_memory ();
  (match prev_store with
   | Some s -> Memo.Store.enable ~dir:(Memo.Store.dir s) ()
   | None -> Memo.Store.disable ());
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  (try rm_rf store_dir with Sys_error _ -> ());
  Json_out.write name
    (Json_out.Obj
       [ "experiment", Json_out.String name;
         "metric", Json_out.String "cross-program area saved vs population";
         "seed", Json_out.Int seed;
         "programs", Json_out.Int max_size;
         "warm_identical", Json_out.Bool identical;
         ( "trajectory",
           Json_out.List (List.map Fleet.Merge.report_to_json rows) ) ]);
  if not identical then begin
    prerr_endline (name ^ ": warm rerun diverged from the cold report");
    exit 1
  end;
  if List.exists (fun (r : Fleet.Merge.report) -> r.Fleet.Merge.r_failed > 0) rows
  then begin
    prerr_endline (name ^ ": a generated program failed the pipeline");
    exit 1
  end;
  if not
       (cold.Fleet.Merge.r_area_fleet < cold.Fleet.Merge.r_area_per_program
       && cold.Fleet.Merge.r_saving_vs_per_program_pct > 0.0)
  then begin
    prerr_endline
      (name ^ ": cross-program merging saved no area over per-program merging");
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let small names = List.filter_map Suite.find names

(* Every experiment by name; [all] (or no name) runs [default]. *)
let experiments =
  [ "table1", table1;
    "fig2", fig2;
    "fig4", fig4;
    "table2", (fun () -> table2 ());
    ( "table2-small",
      fun () ->
        table2 ~name:"table2-small" ~benchmarks:(small [ "3mm"; "atax"; "fft" ])
          () );
    "fig6", fig6;
    "cosim", (fun () -> cosim ());
    "cosim-small", (fun () -> cosim ~benchmarks:(small [ "3mm"; "atax"; "fft" ]) ());
    "faults", (fun () -> faults ());
    ( "faults-small",
      fun () ->
        faults ~name:"faults-small"
          ~options:
            { Cayman_fault.Campaign.default_options with
              Cayman_fault.Campaign.faults_per_kernel = 6;
              stage_benchmarks = 1 }
          ~benchmarks:(small [ "atax"; "mvt" ])
          () );
    "fleet", (fun () -> fleet_bench ());
    "fleet-small", (fun () -> fleet_bench ~name:"fleet-small" ~sizes:[ 50; 100; 200 ] ());
    "serve-load", (fun () -> serve_load ());
    ( "serve-load-small",
      fun () ->
        serve_load ~name:"serve-load-small"
          ~benchmarks:(small [ "atax"; "bicg"; "mvt"; "fft" ])
          ~clients:2 () );
    "serve-chaos", (fun () -> serve_chaos ());
    "ablation-filter", ablation_filter;
    "ablation-merge", ablation_merge;
    "ablation-cache", ablation_cache;
    "ablation-dse", ablation_dse ]

let default =
  [ "table1"; "fig2"; "fig4"; "table2"; "fig6"; "cosim"; "faults";
    "ablation-filter"; "ablation-merge"; "ablation-cache"; "ablation-dse" ]

let usage () =
  prerr_endline
    ("usage: main.exe [--json BASE] [--fuel N] [--cache-dir DIR] [--no-cache]\n\
     \                [EXPERIMENT...|all]\n\
      experiments: "
    ^ String.concat " " (List.map fst experiments)
    ^ "\n\
       With no experiment (or `all`) runs "
    ^ String.concat " " default
    ^ ".\n\
       CAYMAN_JOBS=N parallelizes evaluation across N domains; stdout is\n\
       byte-identical for every N (wall-time reports go to stderr).\n\
       --json BASE additionally writes BASE_<experiment>.json for the\n\
       experiments with machine-readable output plus BASE_metrics.json and\n\
       BASE_cache.json; stdout is unchanged. The opt-in fleet and serve\n\
       experiments exit 1 when their own checks fail.\n\
       --fuel N bounds every interpreter run at N executed instructions\n\
       (also CAYMAN_FUEL); exhaustion is a diagnostic, not a hang.\n\
       The on-disk memoization cache (CAYMAN_CACHE_DIR, default\n\
       ~/.cache/cayman) is enabled by default; --cache-dir DIR relocates\n\
       it and --no-cache disables it. Cached and recomputed results are\n\
       bit-identical, so stdout does not depend on the cache state.\n\
       (Note: the ablation-cache experiment is about the simulated L1\n\
       data cache, not this memoization cache.)")

(* A bad command line exits 2 before any experiment runs. *)
let bad_usage fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("main.exe: " ^ m);
      usage ();
      exit 2)
    fmt

let () =
  let cache_dir = ref None and no_cache = ref false in
  let rec parse names = function
    | "--json" :: base :: rest ->
      Json_out.set_base base;
      parse names rest
    | "--fuel" :: n :: rest ->
      (match int_of_string_opt n with
       | Some f when f > 0 -> Engine.Config.set_fuel f
       | Some _ | None -> bad_usage "invalid --fuel %s (want a positive integer)" n);
      parse names rest
    | "--cache-dir" :: dir :: rest ->
      cache_dir := Some dir;
      parse names rest
    | "--no-cache" :: rest ->
      no_cache := true;
      parse names rest
    | [ ("--json" | "--fuel" | "--cache-dir") as flag ] ->
      bad_usage "%s needs an argument" flag
    | "all" :: rest -> parse (List.rev_append default names) rest
    | name :: rest when List.mem_assoc name experiments -> parse (name :: names) rest
    | name :: _ -> bad_usage "unknown experiment %s" name
    | [] -> List.rev names
  in
  let names =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> default
    | names -> names
  in
  if !no_cache then Memo.Store.disable ()
  else Memo.Store.enable ?dir:!cache_dir ();
  let (), wall =
    Engine.Clock.timed @@ fun () ->
    List.iter
      (fun name ->
        List.assoc name experiments ();
        print_newline ();
        flush stdout)
      names
  in
  (* With --json armed, also dump every pipeline metric accumulated over
     the experiments that just ran (BASE_metrics.json) and the
     memoization-cache report (BASE_cache.json: enabled/dir, hit and
     miss counters, store size). Counters and histograms are
     schedule-independent, so the files are comparable across
     CAYMAN_JOBS values up to the gauge entries. *)
  if Json_out.enabled () then begin
    Json_out.write "metrics" (Obs.Metrics.to_json ());
    Json_out.write "cache" (Memo.Store.report_json ~wall_s:wall)
  end
