(* Command-line interface to the Cayman flow.

   cayman_cli run --bench 3mm --budget 0.25
   cayman_cli run --file app.mc --budget 0.65 --mode coupled-only
   cayman_cli dump --bench atax         # IR + wPST + profile summary
   cayman_cli list                      # available suite benchmarks
*)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim
module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

open Cmdliner

let fail m =
  prerr_endline ("cayman: " ^ m);
  1

(* --- the program a pipeline subcommand works on --- *)

let program_t =
  let bench_arg =
    let doc = "Suite benchmark name (see the list command)." in
    Arg.(value & opt (some string) None & info [ "b"; "bench" ] ~doc)
  in
  let file_arg =
    let doc = "MiniC source file to compile and accelerate." in
    Arg.(value & opt (some file) None & info [ "f"; "file" ] ~doc)
  in
  (* A thunk: the program is compiled inside [with_setup], so a front-end
     diagnostic is reported like any other. *)
  let load bench file () =
    match bench, file with
    | Some name, None -> Serve.Handlers.load ~bench:name ()
    | None, Some path ->
      (match
         Cayman_frontend.Lower.compile
           (In_channel.with_open_text path In_channel.input_all)
       with
       | p -> Ok p
       | exception Sys_error m -> Error m
       | exception Cayman_frontend.Diag.Error d ->
         Error (Printf.sprintf "%s: %s" path (Cayman_frontend.Diag.to_string d)))
    | Some _, Some _ -> Error "use either --bench or --file, not both"
    | None, None -> Error "one of --bench or --file is required"
  in
  Term.(const load $ bench_arg $ file_arg)

(* --- process settings shared by every pipeline subcommand --- *)

type setup = {
  fuel : int;  (* 0 = Engine.Config's default *)
  interp : Sim.Interp.engine option;
  cache_dir : string option;
  no_cache : bool;
  trace : string option;
}

let cache_dir_arg =
  let doc =
    "Memoization cache directory (default: $(b,CAYMAN_CACHE_DIR), else \
     ~/.cache/cayman). Not the simulated data cache: see the \
     ablation-cache bench target for that."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~doc ~docv:"DIR")

let setup_t =
  let fuel_arg =
    let doc =
      "Interpreter fuel budget in executed instructions (0 = default: \
       $(b,CAYMAN_FUEL) or a finite built-in budget). Runs that exhaust \
       it stop with a diagnostic instead of hanging."
    in
    Arg.(value & opt int 0 & info [ "fuel" ] ~doc ~docv:"N")
  in
  let interp_arg =
    let doc =
      "Interpreter engine: $(docv) is $(b,staged) (closure-compiled fast \
       path, the default) or $(b,reference) (tree-walking ground truth). \
       Defaults to $(b,CAYMAN_INTERP) when unset. Every observable output \
       — profiles, selections, co-simulation verdicts — is byte-identical \
       between the two."
    in
    Arg.(
      value
      & opt
          (some
             (enum
                [ "staged", Sim.Interp.Staged;
                  "reference", Sim.Interp.Reference ]))
          None
      & info [ "interp" ] ~doc ~docv:"ENGINE")
  in
  let no_cache_arg =
    let doc =
      "Disable the on-disk memoization cache for this run (results are \
       bit-identical either way, just slower)."
    in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let trace_arg =
    let doc =
      "Record a Chrome trace_event timeline of the whole run and write it \
       to $(docv) (load in Perfetto or chrome://tracing). Stdout is \
       unaffected; the confirmation goes to stderr."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let make fuel interp cache_dir no_cache trace =
    { fuel; interp; cache_dir; no_cache; trace }
  in
  Term.(const make $ fuel_arg $ interp_arg $ cache_dir_arg $ no_cache_arg
        $ trace_arg)

(* Only the subcommands that run Engine.Pool take --jobs. *)
let jobs_arg =
  let doc =
    "Worker domains for parallel evaluation (0 = auto: $(b,CAYMAN_JOBS) \
     or the recommended domain count). Results are identical for every \
     value."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~doc ~docv:"N")

(* Arm tracing around a subcommand body and flush the timeline on the
   way out — including error exits, so partial runs are inspectable. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Obs.Trace.set_enabled true;
    let flush () =
      Obs.Trace.set_enabled false;
      Obs.Trace.write_file path;
      let dropped = Obs.Trace.dropped () in
      if dropped > 0 then
        Printf.eprintf "wrote %s (%d spans dropped to ring overflow)\n%!"
          path dropped
      else Printf.eprintf "wrote %s\n%!" path
    in
    (match f () with
     | code -> flush (); code
     | exception e -> flush (); raise e)

(* Run a subcommand body under its settings. Explicit flags become the
   Engine.Config overrides, so every entry point (selection, profiling,
   cosim golden runs, fault campaigns) sees them. The memo store is off
   in the library and turned on here. The documented pipeline exceptions
   become one-line diagnostics and exit 1; anything else is a genuine
   crash and keeps its backtrace. *)
let with_setup ?(jobs = 0) s f =
  if jobs > 0 then Engine.Config.set_jobs jobs;
  if s.fuel > 0 then Engine.Config.set_fuel s.fuel;
  Option.iter Sim.Interp.set_engine s.interp;
  if s.no_cache then Memo.Store.disable ()
  else Memo.Store.enable ?dir:s.cache_dir ();
  with_trace s.trace @@ fun () ->
  try f () with
  | Sim.Interp.Out_of_fuel ->
    fail "interpreter ran out of fuel (raise --fuel or CAYMAN_FUEL)"
  | Sim.Interp.Runtime_error m -> fail ("runtime error: " ^ m)
  | Cayman_frontend.Diag.Error d -> fail (Cayman_frontend.Diag.to_string d)

let with_program ?jobs s program f =
  with_setup ?jobs s @@ fun () ->
  match program () with
  | Error m -> fail m
  | Ok p -> f p

let budget_arg =
  let doc = "Area budget as a fraction of the CVA6 tile area." in
  Arg.(value & opt float 0.25 & info [ "budget" ] ~doc)

let mode_arg =
  let doc = "Accelerator model: full, coupled-only, novia, qscores." in
  Arg.(value & opt string "full" & info [ "mode" ] ~doc)

let alpha_arg =
  let doc = "Pareto filter spacing ratio (Algorithm 1's alpha)." in
  Arg.(value & opt float 1.08 & info [ "alpha" ] ~doc)

let out_arg =
  let doc = "Output directory for generated Verilog." in
  Arg.(value & opt string "cayman_rtl" & info [ "o"; "out" ] ~doc)

(* The run/dump/cosim bodies live in Serve.Handlers, shared verbatim
   with the daemon: `cayman serve` replies are byte-identical to these
   subcommands' stdout by construction. *)

let run_cmd program budget mode alpha jobs setup =
  with_program ~jobs setup program @@ fun p ->
  match Serve.Handlers.run_text ~budget ~mode ~alpha p with
  | Error m -> fail m
  | Ok text -> print_string text; 0

let dump_cmd program setup =
  with_program setup program @@ fun p ->
  print_string (Serve.Handlers.dump_text p);
  0

let emit_cmd program budget out jobs setup =
  with_program ~jobs setup program @@ fun program ->
  let a = Core.Cayman.analyze program in
  let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
  let s = Core.Cayman.best_under_ratio r ~budget_ratio:budget in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let write name contents =
    let oc = open_out (Filename.concat out name) in
    output_string oc contents;
    close_out oc
  in
  write "cayman_primitives.v" Hls.Netlist.primitives;
  let count = ref 0 in
  List.iter
    (fun k ->
      let n = Hls.Netlist.of_spec k in
      incr count;
      write (n.Hls.Netlist.module_name ^ ".v") n.Hls.Netlist.verilog;
      Printf.printf "%-48s %4d units %3d mem %4d regs %3d states\n"
        (n.Hls.Netlist.module_name ^ ".v")
        n.Hls.Netlist.stats.Hls.Netlist.n_compute
        n.Hls.Netlist.stats.Hls.Netlist.n_mem
        n.Hls.Netlist.stats.Hls.Netlist.n_regs
        n.Hls.Netlist.stats.Hls.Netlist.n_states)
    (Core.Cayman.kernels a s);
  (* merged (reusable) accelerators *)
  let m = Core.Cayman.merge a s in
  List.iteri
    (fun i (acc : Core.Merge.accel) ->
      if List.length acc.Core.Merge.regions >= 2 then begin
        let n = Core.Merge.netlist_of i acc in
        incr count;
        write (n.Hls.Netlist.module_name ^ ".v") n.Hls.Netlist.verilog;
        Printf.printf "%-48s reusable: %d FSMs, %d shared units\n"
          (n.Hls.Netlist.module_name ^ ".v")
          n.Hls.Netlist.stats.Hls.Netlist.n_states
          n.Hls.Netlist.stats.Hls.Netlist.n_compute
      end)
    m.Core.Merge.accels;
  Printf.printf "wrote %d netlists + primitives to %s/\n" !count out;
  0

let max_inv_arg =
  let doc =
    "Co-simulate at most $(docv) invocations per kernel (0 = all; capping \
     disables the cycle comparison)."
  in
  Arg.(value & opt int 0 & info [ "max-invocations" ] ~doc ~docv:"N")

(* Differential co-simulation (body shared with the daemon — see
   Serve.Handlers.cosim_text). *)
let cosim_cmd program budget mode jobs max_inv setup =
  with_program ~jobs setup program @@ fun p ->
  let max_invocations = if max_inv > 0 then Some max_inv else None in
  match Serve.Handlers.cosim_text ?max_invocations ~budget ~mode p with
  | Error m -> fail m
  | Ok (text, ok) -> print_string text; if ok then 0 else 1

let graph_cmd program out setup =
  with_program setup program @@ fun program ->
  let a = Core.Cayman.analyze program in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let write name contents =
    let oc = open_out (Filename.concat out name) in
    output_string oc contents;
    close_out oc
  in
  write "wpst.dot" (An.Dot.wpst a.Core.Cayman.wpst);
  let funcs = (Ir.Validate.program a.Core.Cayman.program).Ir.Program.funcs in
  List.iter
    (fun (f : Ir.Func.t) ->
      write (Printf.sprintf "cfg_%s.dot" f.Ir.Func.name) (An.Dot.cfg f))
    funcs;
  Printf.printf "wrote wpst.dot + %d CFGs to %s/ (render with graphviz)\n"
    (List.length funcs) out;
  0

let list_cmd () =
  List.iter
    (fun (b : Suite.benchmark) ->
      Printf.printf "%-28s %s\n" b.Suite.name b.Suite.suite)
    Suite.all;
  0

(* Run the full flow with tracing armed internally and report where the
   time and the work went: a per-span rollup plus every pipeline metric
   grouped by phase. *)
let stats_cmd program budget mode alpha jobs setup =
  with_program ~jobs { setup with trace = None } program @@ fun program ->
  match Serve.Handlers.gen_of_mode mode with
  | Error m -> fail m
  | Ok gen ->
    Obs.Metrics.reset ();
    Obs.Trace.reset ();
    Obs.Trace.set_enabled true;
    let a = Core.Cayman.analyze program in
    let params = { Core.Select.default_params with Core.Select.alpha } in
    let frontier, _stats =
      Core.Select.select ~params ~gen a.Core.Cayman.ctxs
        a.Core.Cayman.wpst a.Core.Cayman.profile
    in
    let budget_area = budget *. Hls.Tech.cva6_tile_area in
    let s =
      match Core.Solution.best_under ~budget:budget_area frontier with
      | Some s -> s
      | None -> Core.Solution.empty
    in
    let (_ : Core.Merge.result) = Core.Cayman.merge a s in
    Obs.Trace.set_enabled false;
    (* spans: wall-clock rollup, heaviest first *)
    Printf.printf "%-28s %10s %12s\n" "span" "calls" "total ms";
    Printf.printf "%s\n" (String.make 52 '-');
    List.iter
      (fun (name, calls, total_s) ->
        Printf.printf "%-28s %10d %12.3f\n" name calls (1e3 *. total_s))
      (Obs.Trace.rollup ());
    let span_drops = Obs.Trace.dropped () in
    Printf.printf "spans dropped: %d\n" span_drops;
    if span_drops > 0 then
      Printf.printf
        "warning: trace ring buffers overflowed; the rollup is missing \
         the %d oldest spans\n"
        span_drops;
    (* metrics: schedule-independent counters/histograms plus gauges,
       grouped by the phase prefix of the metric name *)
    print_newline ();
    Printf.printf "%-36s %16s\n" "metric" "value";
    let last_phase = ref "" in
    List.iter
      (fun (name, snap) ->
        let phase = Obs.Metrics.phase_of name in
        if phase <> !last_phase then begin
          last_phase := phase;
          Printf.printf "%s\n" (String.make 53 '-')
        end;
        match snap with
        | Obs.Metrics.S_counter v -> Printf.printf "%-36s %16d\n" name v
        | Obs.Metrics.S_gauge v ->
          Printf.printf "%-36s %16d  (gauge)\n" name v
        | Obs.Metrics.S_histogram h ->
          Printf.printf "%-36s %16d  (n=%d min=%d max=%d)\n" name
            h.Obs.Metrics.hs_sum h.Obs.Metrics.hs_count
            h.Obs.Metrics.hs_min h.Obs.Metrics.hs_max
        | Obs.Metrics.S_wall_histogram h ->
          Printf.printf "%-36s %16d  (wall us; n=%d min=%d max=%d)\n" name
            h.Obs.Metrics.hs_sum h.Obs.Metrics.hs_count
            h.Obs.Metrics.hs_min h.Obs.Metrics.hs_max)
      (Obs.Metrics.snapshot ());
    (match setup.trace with
     | None -> ()
     | Some path ->
       Obs.Trace.write_file path;
       Printf.eprintf "wrote %s\n%!" path);
    0

(* Deterministic fault-injection campaign: RTL mutation testing of the
   selected kernels plus seeded pipeline-stage faults. The report is a
   pure function of (seed, benchmark list, options) — identical bytes
   for every --jobs value. *)

(* Default campaign set: a cross-suite subset that keeps the default
   invocation under a minute; --all runs the whole suite, --bench
   picks exact benchmarks. *)
let default_fault_benches =
  [ "atax"; "bicg"; "mvt"; "trisolv"; "doitgen"; "fft"; "spmv"; "nw" ]

let faults_cmd seed n_faults max_inv benches all budget stage_benches jobs
    setup json =
  (* the cache flags are accepted for interface uniformity; the campaign
     recomputes through [Memo.Store.without_cache] regardless *)
  with_setup ~jobs setup @@ fun () ->
  let resolve names =
    List.fold_left
      (fun acc name ->
        match acc, Suite.find name with
        | Error m, _ -> Error m
        | Ok _, None ->
          Error
            (Printf.sprintf "unknown benchmark %s (try the list command)"
               name)
        | Ok bs, Some b -> Ok (bs @ [ b ]))
      (Ok []) names
  in
  let selected =
    match benches, all with
    | _ :: _, true -> Error "use either --bench or --all, not both"
    | [], true -> Ok Suite.all
    | [], false -> resolve default_fault_benches
    | names, false -> resolve names
  in
  match selected with
  | Error m -> fail m
  | Ok benches ->
    let options =
      { Cayman_fault.Campaign.default_options with
        Cayman_fault.Campaign.seed;
        faults_per_kernel = n_faults;
        max_invocations = max_inv;
        budget_ratio = budget;
        stage_benchmarks = stage_benches }
    in
    let report = Cayman_fault.Campaign.run options benches in
    print_string (Cayman_fault.Campaign.to_string report);
    (match json with
     | None -> ()
     | Some path ->
       Obs.Json.write_file path (Cayman_fault.Campaign.to_json report);
       Printf.eprintf "wrote %s\n%!" path);
    let unhandled = Cayman_fault.Campaign.unhandled report in
    if unhandled > 0 then begin
      Printf.eprintf
        "cayman: %d stage fault(s) escaped as raw exceptions (robustness \
         bug)\n"
        unhandled;
      1
    end
    else 0

let run_t =
  Cmd.v (Cmd.info "run" ~doc:"Run the full Cayman flow on a program")
    Term.(const run_cmd $ program_t $ budget_arg $ mode_arg $ alpha_arg
          $ jobs_arg $ setup_t)

let dump_t =
  Cmd.v (Cmd.info "dump" ~doc:"Dump IR, wPST and profile of a program")
    Term.(const dump_cmd $ program_t $ setup_t)

let emit_t =
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Emit Verilog netlists for the selected accelerators")
    Term.(const emit_cmd $ program_t $ budget_arg $ out_arg $ jobs_arg
          $ setup_t)

let cosim_t =
  let mode_arg =
    let doc = "Interface mode: full, coupled-only, scan-only." in
    Arg.(value & opt string "full" & info [ "mode" ] ~doc)
  in
  Cmd.v
    (Cmd.info "cosim"
       ~doc:
         "Differentially co-simulate selected kernel netlists against the \
          golden interpreter (plus a static lint of each netlist)")
    Term.(const cosim_cmd $ program_t $ budget_arg $ mode_arg $ jobs_arg
          $ max_inv_arg $ setup_t)

let faults_t =
  let seed_arg =
    let doc = "Campaign seed; the whole report is a pure function of it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~doc ~docv:"N")
  in
  let n_faults_arg =
    let doc = "RTL faults sampled per benchmark and interface mode." in
    Arg.(value & opt int 9 & info [ "faults" ] ~doc ~docv:"N")
  in
  let max_inv_arg =
    let doc = "Co-simulated invocations per RTL mutant." in
    Arg.(value & opt int 2 & info [ "max-invocations" ] ~doc ~docv:"N")
  in
  let benches_arg =
    let doc =
      "Benchmark to include (repeatable; default: a fast cross-suite \
       subset)."
    in
    Arg.(value & opt_all string [] & info [ "b"; "bench" ] ~doc ~docv:"NAME")
  in
  let all_arg =
    let doc = "Campaign over the whole benchmark suite (slow)." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let stage_arg =
    let doc = "Run pipeline-stage faults on the first $(docv) benchmarks." in
    Arg.(value & opt int 2 & info [ "stage-benchmarks" ] ~doc ~docv:"K")
  in
  let json_arg =
    let doc = "Also write the report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a deterministic fault-injection campaign: mutate selected \
          kernel netlists (stuck-at, bit-flip, swapped/dropped commits, \
          structural damage) and measure lint + co-simulation detection, \
          then arm seeded faults at every pipeline stage boundary and \
          verify the pipeline degrades instead of crashing")
    Term.(const faults_cmd $ seed_arg $ n_faults_arg $ max_inv_arg
          $ benches_arg $ all_arg $ budget_arg $ stage_arg $ jobs_arg
          $ setup_t $ json_arg)

let graph_t =
  Cmd.v
    (Cmd.info "graph" ~doc:"Write graphviz dot files (CFGs + wPST)")
    Term.(const graph_cmd $ program_t $ out_arg $ setup_t)

let list_t =
  Cmd.v (Cmd.info "list" ~doc:"List suite benchmarks")
    Term.(const list_cmd $ const ())

let stats_t =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the full flow and print per-phase wall-time and pipeline \
          metrics (region counts, prune/memo hits, design points, DP \
          frontier sizes)")
    Term.(const stats_cmd $ program_t $ budget_arg $ mode_arg $ alpha_arg
          $ jobs_arg $ setup_t)

(* cayman fleet — generate a seeded fleet of MiniC programs, push every
   one through the full compile/profile/select flow, and merge the
   selected accelerators across programs under a shared area budget
   (lib/fleet). The report is byte-identical for every --jobs value. *)

let fleet_cmd kernels seed budget per_budget json jobs setup =
  with_setup ~jobs setup @@ fun () ->
  let opts =
    { Fleet.Merge.default_options with
      Fleet.Merge.o_kernels = kernels;
      o_seed = seed;
      o_budget = budget;
      o_per_budget = per_budget }
  in
  let r = Fleet.Merge.run opts in
  print_string (Fleet.Merge.report_to_string r);
  (match json with
   | None -> ()
   | Some path ->
     Obs.Json.write_file path (Fleet.Merge.report_to_json r);
     Printf.eprintf "wrote %s\n%!" path);
  0

let fleet_t =
  let kernels_arg =
    let doc = "Number of programs to generate for the fleet." in
    Arg.(value & opt int 100 & info [ "kernels" ] ~doc ~docv:"N")
  in
  let seed_arg =
    let doc =
      "Fleet generator seed; the same seed and size always produce the \
       same fleet and the same report."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~doc ~docv:"S")
  in
  let fleet_budget_arg =
    let doc =
      "Shared fleet area budget, as a multiple of the CVA6 tile area \
       (the per-program budget stays a fraction of one tile)."
    in
    Arg.(value & opt float 4.0 & info [ "budget" ] ~doc ~docv:"A")
  in
  let per_budget_arg =
    let doc =
      "Per-program selection budget as a fraction of the CVA6 tile area."
    in
    Arg.(value & opt float 0.25 & info [ "per-budget" ] ~doc ~docv:"R")
  in
  let json_arg =
    let doc = "Also write the machine-readable fleet report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Generate a seeded fleet of kernels, run the full flow on each, \
          cluster structurally similar accelerators across programs, and \
          merge them under a shared area budget; reports cross-program \
          area saved versus per-program merging, byte-identically for \
          every job count")
    Term.(const fleet_cmd $ kernels_arg $ seed_arg $ fleet_budget_arg
          $ per_budget_arg $ json_arg $ jobs_arg $ setup_t)

(* cayman cache {stats,gc,clear} — maintenance for the memoization store.
   These operate on the directory directly (no ambient enable), so they
   work on any store path without arming caching for the process. *)

(* Run [f dir store] on the store at [--cache-dir] (else the default
   directory); a directory that is not a store is reported, not made. *)
let with_cache_store cache_dir f =
  let dir = Option.value cache_dir ~default:(Memo.Store.default_dir ()) in
  if not (Memo.Store.is_store dir) then begin
    Printf.printf "no cache at %s\n" dir;
    0
  end
  else
    match Memo.Store.open_store dir with
    | Error m -> fail m
    | Ok store -> f dir store

let cache_stats_cmd cache_dir =
  with_cache_store cache_dir @@ fun dir store ->
  let s = Memo.Store.stats_of store in
  Printf.printf "cache %s: %d entries, %d bytes (%.1f MiB)\n" dir
    s.Memo.Store.st_entries s.Memo.Store.st_bytes
    (float_of_int s.Memo.Store.st_bytes /. (1024. *. 1024.));
  (* Process-local guard over canonical-region digests: any nonzero
     count here means two structurally different regions hashed to
     the same digest in this process (see Memo.Hash.canon_digest). *)
  Printf.printf "canon-digest collisions (this process): %d\n"
    (Obs.Metrics.value (Obs.Metrics.counter "memo.canon_collisions"));
  0

let cache_gc_cmd cache_dir max_mb =
  with_cache_store cache_dir @@ fun _ store ->
  let max_bytes =
    match max_mb with
    | Some mb -> mb * 1024 * 1024
    | None -> Memo.Store.default_max_bytes ()
  in
  let evicted, freed = Memo.Store.gc store ~max_bytes in
  Printf.printf "evicted %d entries, freed %d bytes\n" evicted freed;
  0

let cache_clear_cmd cache_dir =
  let dir = Option.value cache_dir ~default:(Memo.Store.default_dir ()) in
  if not (Sys.file_exists dir) then begin
    Printf.printf "no cache at %s\n" dir;
    0
  end
  else
    match Memo.Store.clear dir with
    | Ok n -> Printf.printf "removed %d entries from %s\n" n dir; 0
    | Error m -> fail m

let cache_t =
  let max_mb_arg =
    let doc =
      "Size cap in MiB for gc (default: CAYMAN_CACHE_MAX_MB, else 2048)."
    in
    Arg.(value & opt (some int) None & info [ "max-mb" ] ~doc ~docv:"MB")
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect and maintain the on-disk memoization cache (distinct \
          from the simulated data cache reported by the ablation-cache \
          bench)")
    [ Cmd.v
        (Cmd.info "stats" ~doc:"Print entry count and total size")
        Term.(const cache_stats_cmd $ cache_dir_arg);
      Cmd.v
        (Cmd.info "gc"
           ~doc:"Evict least-recently-used entries down to the size cap")
        Term.(const cache_gc_cmd $ cache_dir_arg $ max_mb_arg);
      Cmd.v
        (Cmd.info "clear"
           ~doc:
             "Remove all entries (refuses directories that are not a \
              cayman store)")
        Term.(const cache_clear_cmd $ cache_dir_arg);
    ]

(* cayman serve — the persistent compilation daemon. One process, one
   shared engine pool and warm memo layer; many concurrent clients.
   Unlike the one-shot subcommands, the interpreter engine is pinned at
   startup (staged unless --interp says otherwise) so every reply over
   the daemon's lifetime comes from the same engine. *)

let serve_cmd socket stdio jobs setup max_queue max_write_buf drain_timeout =
  let interp = Some (Option.value setup.interp ~default:Sim.Interp.Staged) in
  with_setup ~jobs { setup with interp } @@ fun () ->
  let config =
    { Serve.Server.default_config with
      Serve.Server.sc_max_queue = max_queue;
      sc_max_write_buf = max_write_buf;
      sc_drain_timeout_s = drain_timeout;
      (* a real daemon process: SIGTERM means drain and exit 0 *)
      sc_handle_sigterm = true }
  in
  if stdio then begin
    Serve.Server.serve_fds ~config ~input:Unix.stdin ~output:Unix.stdout ();
    0
  end
  else begin
    Printf.eprintf "cayman: serving on %s (pid %d)\n%!" socket
      (Unix.getpid ());
    Serve.Server.serve_socket ~config socket;
    Printf.eprintf "cayman: serve: shut down cleanly\n%!";
    0
  end

let serve_t =
  let socket_arg =
    let doc =
      "Unix-domain socket path to listen on. A stale leftover socket \
       file is removed; a path another daemon is live on is refused."
    in
    Arg.(value & opt string "cayman.sock" & info [ "socket" ] ~doc ~docv:"PATH")
  in
  let stdio_arg =
    let doc =
      "Serve a single client over stdin/stdout instead of a socket \
       (framing is identical)."
    in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let max_queue_arg =
    let doc =
      "Pending compute requests admitted before new ones are shed with \
       a structured `overloaded' reply (and retry-after hint)."
    in
    Arg.(value
         & opt int Serve.Server.default_config.Serve.Server.sc_max_queue
         & info [ "max-queue" ] ~doc ~docv:"N")
  in
  let max_write_buf_arg =
    let doc =
      "Per-connection outgoing buffer cap in bytes; a peer that stops \
       reading its replies is disconnected once its backlog would \
       exceed this (must exceed the largest single reply)."
    in
    Arg.(value
         & opt int Serve.Server.default_config.Serve.Server.sc_max_write_buf
         & info [ "max-write-buf" ] ~doc ~docv:"BYTES")
  in
  let drain_timeout_arg =
    let doc =
      "Bound in seconds on the drain phase after `shutdown' or \
       SIGTERM: finish queued batches and flush write buffers, then \
       exit regardless."
    in
    Arg.(value
         & opt float Serve.Server.default_config.Serve.Server.sc_drain_timeout_s
         & info [ "drain-timeout" ] ~doc ~docv:"SECONDS")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent compilation daemon: many concurrent \
          compile/profile/select/cosim requests multiplexed over one \
          shared worker pool and warm memoization layer, each request \
          fuel-budgeted so a bad one degrades to a structured error \
          reply; overload is shed at a bounded queue, slow readers are \
          disconnected at a bounded write buffer, and SIGTERM drains \
          gracefully")
    Term.(const serve_cmd $ socket_arg $ stdio_arg $ jobs_arg $ setup_t
          $ max_queue_arg $ max_write_buf_arg $ drain_timeout_arg)

(* cayman top / cayman logs — observe a running daemon through the
   telemetry and log-tail control verbs. Both are pure clients: they
   never touch the pipeline, so pointing them at a busy daemon costs
   one inline control reply per poll. *)

let daemon_socket_arg =
  let doc = "Unix-domain socket of the daemon to observe." in
  Arg.(value & opt string "cayman.sock" & info [ "socket" ] ~doc ~docv:"PATH")

let with_daemon socket f =
  match Serve.Client.connect socket with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cayman: cannot connect to %s: %s (is the daemon up?)\n"
      socket (Unix.error_message e);
    1
  | client ->
    Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
    (try f client
     with End_of_file ->
       prerr_endline "cayman: daemon hung up";
       1)

(* Exposition lookups against the family names the daemon renders
   (Obs.Expose.of_snapshot over the serve metrics). *)
let fam_float fams name suffix =
  Option.bind (Obs.Expose.find fams name) (fun f ->
      Option.map Obs.Expose.to_float (Obs.Expose.sample_value f suffix))

let fam_quantile fams name q =
  Option.bind (Obs.Expose.find fams name) (fun f ->
      Option.map Obs.Expose.to_float
        (Obs.Expose.sample_value f ~labels:[ "quantile", q ] ""))

let render_top ~socket fams =
  let b = Buffer.create 1024 in
  let v name suffix = Option.value ~default:0.0 (fam_float fams name suffix) in
  let q name quant =
    Option.value ~default:0.0 (fam_quantile fams name quant)
  in
  let requests = v "cayman_serve_requests_total" "" in
  let errors = v "cayman_serve_errors_total" "" in
  let hits = v "cayman_serve_cache_hits_total" "" in
  let misses = v "cayman_serve_cache_misses_total" "" in
  let hit_pct =
    if hits +. misses > 0.0 then 100.0 *. hits /. (hits +. misses) else 0.0
  in
  Printf.bprintf b "cayman top — %s\n" socket;
  Printf.bprintf b
    "totals   %.0f requests   %.0f errors   cache %.1f%% hit (%.0f/%.0f)\n"
    requests errors hit_pct hits (hits +. misses);
  Printf.bprintf b "now      queue %.0f   inflight %.0f   write-buf %.0fB \
                    (hwm %.0fB)\n"
    (v "cayman_serve_queue_depth" "")
    (v "cayman_serve_inflight" "")
    (v "cayman_serve_write_buf_bytes" "")
    (v "cayman_serve_write_buf_hwm" "");
  Printf.bprintf b
    "overload %.0f shed   %.0f deadline-expired   %.0f slow-client \
     disconnects\n"
    (v "cayman_serve_shed_total" "")
    (v "cayman_serve_deadline_expired_total" "")
    (v "cayman_serve_slow_client_disconnects_total" "");
  let wname = "cayman_window_serve_latency_us" in
  Printf.bprintf b
    "window   %.1fs span   %.1f req/s   %.0f errors   latency p50 %.0fus \
     p95 %.0fus p99 %.0fus\n"
    (v "cayman_window_serve_requests" "_span_seconds")
    (v "cayman_window_serve_requests" "_rate")
    (v "cayman_window_serve_errors" "_count")
    (q wname "0.5") (q wname "0.95") (q wname "0.99");
  Buffer.add_char b '\n';
  Printf.bprintf b "%-16s %10s %10s %10s %10s\n" "verb" "req/s" "count"
    "p50 us" "p99 us";
  let prefix = "cayman_window_serve_verb_" in
  let req_suffix = "_requests" in
  List.iter
    (fun (f : Obs.Expose.family) ->
      let n = f.Obs.Expose.f_name in
      if
        String.length n > String.length prefix + String.length req_suffix
        && String.sub n 0 (String.length prefix) = prefix
        && String.ends_with ~suffix:req_suffix n
      then begin
        let verb =
          String.sub n (String.length prefix)
            (String.length n - String.length prefix - String.length req_suffix)
        in
        let lat = prefix ^ verb ^ "_latency_us" in
        let count = v n "_count" in
        if count > 0.0 then
          Printf.bprintf b "%-16s %10.1f %10.0f %10.0f %10.0f\n" verb
            (v n "_rate") count (q lat "0.5") (q lat "0.99")
      end)
    fams;
  Buffer.contents b

let top_cmd socket interval iterations raw =
  with_daemon socket @@ fun client ->
  let tty = Unix.isatty Unix.stdout in
  let looping = iterations <> 1 in
  let rec loop i =
    let reply = Serve.Client.telemetry client in
    if not reply.Serve.Protocol.rp_ok then begin
      Printf.eprintf "cayman: telemetry error: %s\n"
        reply.Serve.Protocol.rp_output;
      1
    end
    else
      match Obs.Expose.parse reply.Serve.Protocol.rp_output with
      | Error m ->
        Printf.eprintf "cayman: telemetry reply did not parse: %s\n" m;
        1
      | Ok fams ->
        if tty && looping && i > 0 then print_string "\027[2J\027[H";
        if raw then print_string reply.Serve.Protocol.rp_output
        else print_string (render_top ~socket fams);
        flush stdout;
        if iterations > 0 && i + 1 >= iterations then 0
        else begin
          Unix.sleepf interval;
          loop (i + 1)
        end
  in
  loop 0

let format_log_event j =
  let member = Obs.Json.member in
  let t =
    Option.value ~default:0.0 (Option.bind (member "t" j) Obs.Json.to_float)
  in
  let str name =
    Option.value ~default:"?"
      (Option.bind (member name j) Obs.Json.to_string_opt)
  in
  let fields =
    match member "fields" j with Some (Obs.Json.Obj kvs) -> kvs | _ -> []
  in
  let field_str (k, v) =
    let vs =
      match v with
      | Obs.Json.String s -> s
      | Obs.Json.Int n -> string_of_int n
      | Obs.Json.Float f -> Printf.sprintf "%g" f
      | Obs.Json.Bool b -> string_of_bool b
      | Obs.Json.Null | Obs.Json.List _ | Obs.Json.Obj _ -> "?"
    in
    Printf.sprintf "%s=%s" k vs
  in
  Printf.sprintf "%10.3f %-5s %s  %s" t
    (String.uppercase_ascii (str "level"))
    (str "msg")
    (String.concat " " (List.map field_str fields))

let logs_cmd socket tail follow interval =
  with_daemon socket @@ fun client ->
  (* Events are deduplicated by their monotone id, so --follow polling
     reprints nothing; a burst larger than the polled tail between two
     polls is lost (the daemon's ring forgets it too). *)
  let last_id = ref 0 in
  let print_batch reply =
    if not reply.Serve.Protocol.rp_ok then begin
      Printf.eprintf "cayman: log-tail error: %s\n"
        reply.Serve.Protocol.rp_output;
      false
    end
    else
      match Obs.Json.parse reply.Serve.Protocol.rp_output with
      | Error m ->
        Printf.eprintf "cayman: log-tail reply did not parse: %s\n" m;
        false
      | Ok j ->
        let events =
          match Obs.Json.member "events" j with
          | Some (Obs.Json.List l) -> l
          | _ -> []
        in
        List.iter
          (fun e ->
            let id =
              Option.value ~default:0
                (Option.bind (Obs.Json.member "id" e) Obs.Json.to_int)
            in
            if id > !last_id then begin
              last_id := id;
              print_endline (format_log_event e)
            end)
          events;
        flush stdout;
        true
  in
  let rec loop first =
    let reply = Serve.Client.log_tail client ~n:tail () in
    if not (print_batch reply) then 1
    else if follow then begin
      Unix.sleepf interval;
      loop false
    end
    else (ignore first; 0)
  in
  loop true

let top_t =
  let interval_arg =
    let doc = "Seconds between telemetry polls." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~doc ~docv:"SECONDS")
  in
  let iterations_arg =
    let doc = "Stop after $(docv) frames (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~doc ~docv:"N")
  in
  let raw_arg =
    let doc =
      "Print the raw Prometheus-style exposition text instead of the \
       dashboard (still validated through the parser)."
    in
    Arg.(value & flag & info [ "raw" ] ~doc)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running daemon: per-verb request rates, \
          rolling latency percentiles, queue depth and cache hit rate, \
          polled from the telemetry control verb")
    Term.(const top_cmd $ daemon_socket_arg $ interval_arg $ iterations_arg
          $ raw_arg)

let logs_t =
  let tail_n_arg =
    let doc = "Number of audit records to fetch per poll." in
    Arg.(value & opt int 20 & info [ "tail" ] ~doc ~docv:"N")
  in
  let follow_arg =
    let doc = "Keep polling and print only records not seen yet." in
    Arg.(value & flag & info [ "follow" ] ~doc)
  in
  let interval_arg =
    let doc = "Seconds between polls with --follow." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~doc ~docv:"SECONDS")
  in
  Cmd.v
    (Cmd.info "logs"
       ~doc:
         "Print a running daemon's structured audit log (one record per \
          answered request: verb, outcome, fuel, wall time, cache \
          hit/miss), optionally following it")
    Term.(const logs_cmd $ daemon_socket_arg $ tail_n_arg $ follow_arg
          $ interval_arg)

let main =
  Cmd.group
    (Cmd.info "cayman" ~version:"1.0.0"
       ~doc:"Custom accelerator generation with control flow and data access \
             optimization")
    [ run_t; dump_t; emit_t; cosim_t; faults_t; graph_t; list_t; stats_t;
      fleet_t; cache_t; serve_t; top_t; logs_t ]

let () = exit (Cmd.eval' main)
