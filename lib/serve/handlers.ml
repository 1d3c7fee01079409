(* Request handlers shared by the CLI and the serve daemon.

   Each handler renders the full textual result of one pipeline flow
   into a string. The CLI subcommands print that string to stdout; the
   daemon ships it inside a reply frame — one implementation, so a
   warm-cache daemon reply is byte-identical to the one-shot CLI output
   for the same request, by construction (the serve acceptance
   contract, enforced by test/test_serve.ml and the serve-load bench).

   Pipeline exceptions (Out_of_fuel, Runtime_error, Diag.Error)
   propagate to the caller: the CLI converts them via with_diagnostics,
   the daemon classifies them into structured error replies. User
   errors that are not exceptions (unknown mode, unknown benchmark)
   come back as [Error message]. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim
module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

(* Side channel reporting the dynamic instruction count ("fuel spent")
   of the last profile run on this domain. The daemon's audit log wants
   fuel per request, but handler return values are the exact reply
   texts (the CLI byte-identity contract) and the memoized reply value
   must stay a plain string — so handlers note the count out-of-band
   and the executor collects it after dispatch. Domain-local because
   batch slots run on separate pool domains. A request answered from
   the memo layer notes nothing and honestly reports 0: no fuel was
   spent answering it. *)
let instrs_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let note_instrs n = Domain.DLS.get instrs_key := n

let take_instrs () =
  let r = Domain.DLS.get instrs_key in
  let v = !r in
  r := 0;
  v

(* Program loading for bench-name / inline-source requests. (The CLI's
   --file path stays in the CLI: it is file IO, not pipeline work.) *)
let load ?bench ?source () =
  match bench, source with
  | Some name, None ->
    (match Suite.find name with
     | Some b -> Ok (Suite.compile b)
     | None ->
       Error (Printf.sprintf "unknown benchmark %s (try the list command)" name))
  | None, Some src -> Ok (Cayman_frontend.Lower.compile src)
  | Some _, Some _ -> Error "use either bench or source, not both"
  | None, None -> Error "one of bench or source is required"

let gen_of_mode = function
  | "full" -> Ok (Core.Cayman.gen Hls.Kernel.Heuristic)
  | "coupled-only" -> Ok (Core.Cayman.gen Hls.Kernel.Coupled_only)
  | "novia" -> Ok Cayman_baselines.Novia.gen
  | "qscores" -> Ok Cayman_baselines.Qscores.gen
  | other -> Error (Printf.sprintf "unknown mode %s" other)

let kernel_mode_of = function
  | "full" | "heuristic" -> Ok Hls.Kernel.Heuristic
  | "coupled-only" -> Ok Hls.Kernel.Coupled_only
  | "scan-only" | "qscores" -> Ok Hls.Kernel.Scan_only
  | other ->
    Error
      (Printf.sprintf
         "unknown interface mode %s (use full, coupled-only or scan-only)"
         other)

(* A fresh formatter over [b]; every %a use below is followed by a full
   flush so bprintf and Format output interleave in call order. *)
let formatter_of b = Format.formatter_of_buffer b

let run_text ?fuel ~budget ~mode ~alpha program =
  match gen_of_mode mode with
  | Error m -> Error m
  | Ok gen ->
    let b = Buffer.create 1024 in
    let fmt = formatter_of b in
    let a = Core.Cayman.analyze ?fuel program in
    note_instrs (Sim.Profile.total_instrs a.Core.Cayman.profile);
    Printf.bprintf b "profiled: %d host cycles (%.6f s), %d dynamic instrs\n"
      (Sim.Profile.total_cycles a.Core.Cayman.profile)
      a.Core.Cayman.t_all
      (Sim.Profile.total_instrs a.Core.Cayman.profile);
    let params = { Core.Select.default_params with Core.Select.alpha } in
    let frontier, stats =
      Core.Select.select ~params ~gen a.Core.Cayman.ctxs
        a.Core.Cayman.wpst a.Core.Cayman.profile
    in
    Printf.bprintf b
      "selection: %d vertices visited (%d pruned), %d design points, %d \
       Pareto solutions\n"
      stats.Core.Select.visited stats.Core.Select.pruned
      stats.Core.Select.points_evaluated (List.length frontier);
    List.iter
      (fun (f : Core.Select.failure) ->
        Printf.bprintf b
          "warning: kernel generation failed for %s/%s (%s); region \
           stays on the CPU\n"
          f.Core.Select.fb_func f.Core.Select.fb_region
          f.Core.Select.fb_reason)
      stats.Core.Select.failures;
    let budget_area = budget *. Hls.Tech.cva6_tile_area in
    let s =
      match Core.Solution.best_under ~budget:budget_area frontier with
      | Some s -> s
      | None -> Core.Solution.empty
    in
    Printf.bprintf b "best solution under %.0f%% of a CVA6 tile:\n"
      (100.0 *. budget);
    Format.fprintf fmt "%a@." Core.Solution.pp s;
    Format.pp_print_flush fmt ();
    Printf.bprintf b "speedup (Eq. 1): %.3fx\n"
      (Core.Solution.speedup ~t_all:a.Core.Cayman.t_all s);
    let m = Core.Cayman.merge a s in
    Printf.bprintf b
      "merging: %.0f -> %.0f um^2 (%.1f%% saved), %d reusable accelerators\n"
      m.Core.Merge.area_before m.Core.Merge.area_after
      m.Core.Merge.saving_pct m.Core.Merge.n_reusable;
    Ok (Buffer.contents b)

let compile_text program =
  let b = Buffer.create 1024 in
  let fmt = formatter_of b in
  Format.fprintf fmt "%a@." Ir.Program.pp (Ir.Validate.program program);
  Format.pp_print_flush fmt ();
  Buffer.contents b

let profile_text ?fuel program =
  let b = Buffer.create 256 in
  let a = Core.Cayman.analyze ?fuel program in
  note_instrs (Sim.Profile.total_instrs a.Core.Cayman.profile);
  Printf.bprintf b "profiled: %d host cycles (%.6f s), %d dynamic instrs\n"
    (Sim.Profile.total_cycles a.Core.Cayman.profile)
    a.Core.Cayman.t_all
    (Sim.Profile.total_instrs a.Core.Cayman.profile);
  Buffer.contents b

let dump_text ?fuel program =
  let b = Buffer.create 1024 in
  let fmt = formatter_of b in
  Format.fprintf fmt "%a@." Ir.Program.pp (Ir.Validate.program program);
  Format.pp_print_flush fmt ();
  let a = Core.Cayman.analyze ?fuel program in
  note_instrs (Sim.Profile.total_instrs a.Core.Cayman.profile);
  Format.fprintf fmt "%a@." An.Wpst.pp a.Core.Cayman.wpst;
  Format.pp_print_flush fmt ();
  Printf.bprintf b "total: %d cycles, %.6f s\n"
    (Sim.Profile.total_cycles a.Core.Cayman.profile)
    a.Core.Cayman.t_all;
  Buffer.contents b

(* Differential co-simulation of every selected kernel netlist against
   the golden interpreter, all kernels in one golden run; reports print
   in selection order. Returns the text plus the verdict the CLI turns
   into its exit code. *)
let cosim_text ?fuel ?max_invocations ~budget ~mode program =
  match kernel_mode_of mode with
  | Error m -> Error m
  | Ok mode ->
    let b = Buffer.create 1024 in
    let a = Core.Cayman.analyze ?fuel program in
    note_instrs (Sim.Profile.total_instrs a.Core.Cayman.profile);
    (* the golden program for co-simulation is the analyzed (if-
       converted) one the kernel regions belong to *)
    let program = a.Core.Cayman.program in
    let r = Core.Cayman.run ~mode a in
    let s = Core.Cayman.best_under_ratio r ~budget_ratio:budget in
    match Core.Cayman.kernels a s with
    | [] ->
      Buffer.add_string b "no synthesizable kernels selected\n";
      Ok (Buffer.contents b, true)
    | specs ->
      let n_lint = ref 0 in
      let built =
        List.map
          (fun spec ->
            let st = Hls.Netlist.structure_of spec in
            List.iter
              (fun f ->
                incr n_lint;
                Printf.bprintf b "lint %s: %s\n" st.Hls.Netlist.nl_name
                  (Rtl.Lint.to_string f))
              (Rtl.Lint.check st);
            spec, st)
          specs
      in
      Printf.bprintf b "lint: %d finding%s over %d netlist%s\n" !n_lint
        (if !n_lint = 1 then "" else "s")
        (List.length specs)
        (if List.length specs = 1 then "" else "s");
      let reports = Rtl.Cosim.run_built ?fuel ?max_invocations program built in
      List.iter
        (fun rep ->
          Buffer.add_string b (Rtl.Cosim.report_to_string rep);
          Buffer.add_char b '\n')
        reports;
      let ok =
        !n_lint = 0
        && List.for_all
             (fun r -> Rtl.Cosim.functional_ok r && r.Rtl.Cosim.r_cycles_ok)
             reports
      in
      Printf.bprintf b "cosim: %s\n" (if ok then "PASS" else "FAIL");
      Ok (Buffer.contents b, ok)
