module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

type options = {
  seed : int;
  faults_per_kernel : int;
  max_invocations : int;
  fuel : int option;
  budget_ratio : float;
  stage_benchmarks : int;
}

let default_options =
  { seed = 42;
    faults_per_kernel = 9;
    max_invocations = 2;
    fuel = None;
    budget_ratio = 0.25;
    stage_benchmarks = 2 }

type verdict =
  | Detected_lint of string
  | Detected_cosim of int
  | Detected_simerror of string
  | Missed of string

type rtl_result = {
  fr_bench : string;
  fr_mode : string;
  fr_kernel : string;
  fr_fault : string;
  fr_verdict : verdict;
}

type stage_outcome =
  | Graceful of string
  | Benign
  | Unhandled of string

type stage_result = {
  sr_bench : string;
  sr_stage : string;
  sr_nth : int;
  sr_outcome : stage_outcome;
}

type report = {
  rp_seed : int;
  rp_benchmarks : int;
  rp_rtl : rtl_result list;
  rp_stage : stage_result list;
}

let m_rtl_faults = Obs.Metrics.counter "fault.rtl_mutants"
let m_rtl_detected = Obs.Metrics.counter "fault.rtl_detected"
let m_stage_runs = Obs.Metrics.counter "fault.stage_runs"
let m_stage_unhandled = Obs.Metrics.counter "fault.stage_unhandled"

let modes =
  [ Hls.Kernel.Heuristic; Hls.Kernel.Coupled_only; Hls.Kernel.Scan_only ]

(* --- RTL mutation testing for one benchmark x mode --- *)

let mutant_verdict_cosim slot (r : Rtl.Cosim.report) =
  let sim_error =
    List.find_opt
      (fun (m : Rtl.Cosim.mismatch) ->
        String.equal m.Rtl.Cosim.m_kind "sim-error")
      r.Rtl.Cosim.r_mismatches
  in
  match sim_error with
  | Some m -> Detected_simerror m.Rtl.Cosim.m_detail
  | None ->
    if r.Rtl.Cosim.r_n_mismatches > 0 then
      Detected_cosim r.Rtl.Cosim.r_n_mismatches
    else if r.Rtl.Cosim.r_invocations = 0 then
      Missed "kernel never invoked by the golden run"
    else begin
      match slot with
      | _, Some _ when not r.Rtl.Cosim.r_fault_fired ->
        Missed "fault never activated (register not written that often)"
      | _ -> Missed "no observable difference at the region exit"
    end

let rtl_results_for ~options ~rng (a : Core.Cayman.analyzed) bench_name mode =
  let mode_name = Hls.Kernel.mode_to_string mode in
  let rng = Rng.split rng mode_name in
  let r = Core.Cayman.run ~jobs:1 ~mode a in
  let sel =
    Core.Cayman.best_under_ratio r ~budget_ratio:options.budget_ratio
  in
  match sel.Core.Solution.accels with
  | [] -> []
  | acc :: _ ->
    let spec = Core.Cayman.kernel_of a acc in
    let kernel_name = Hls.Kernel.spec_name spec in
    let nl = Hls.Netlist.structure_of spec in
    let faults = Inject.sample rng ~n:options.faults_per_kernel nl in
    let result fault fr_verdict =
      { fr_bench = bench_name;
        fr_mode = mode_name;
        fr_kernel = kernel_name;
        fr_fault = Inject.describe fault;
        fr_verdict }
    in
    (* structural mutants: lint must flag them *)
    let lint_results, cosim_faults =
      List.fold_left
        (fun (lr, cf) fault ->
          match Inject.mutate nl fault with
          | Some mutant, None when Inject.is_structural fault ->
            let v =
              match Rtl.Lint.check mutant with
              | f :: _ -> Detected_lint (Rtl.Lint.to_string f)
              | [] -> Missed "lint found nothing on the mutant"
            in
            result fault v :: lr, cf
          | artefacts -> lr, (fault, artefacts) :: cf)
        ([], []) faults
    in
    let lint_results = List.rev lint_results in
    let cosim_faults = List.rev cosim_faults in
    (* behavioral mutants: one golden pass serves every mutant *)
    let cosim_results =
      match cosim_faults with
      | [] -> []
      | _ ->
        let specs = List.map (fun _ -> spec) cosim_faults in
        let slots = List.map snd cosim_faults in
        let fuel = Engine.Config.fuel ?fuel:options.fuel () in
        (* A mutant that corrupts its loop registers can spin the
           FSM forever; a finite per-invocation cycle budget turns
           that into a reported sim-error (= detected). 1M cycles is
           orders of magnitude above any healthy kernel invocation. *)
        (match
           Rtl.Cosim.run_many ~fuel
             ~max_invocations:options.max_invocations
             ~max_cycles:1_000_000 ~faults:slots
             a.Core.Cayman.program specs
         with
        | reports ->
          List.map2
            (fun (fault, slot) rep ->
              result fault (mutant_verdict_cosim slot rep))
            cosim_faults reports
        | exception e ->
          (* golden run died under this mutant set: every mutant in
             the batch surfaced it *)
          let cls = Classify.exn_class e in
          List.map
            (fun (fault, _) -> result fault (Detected_simerror cls))
            cosim_faults)
    in
    lint_results @ cosim_results

(* --- stage faults --- *)

let stage_points =
  [ "parse", 1;
    "lower", 1;
    "ifconv", 1;
    "schedule", 3;  (* hit once per design-point estimate: arm deep *)
    "netlist", 2;
    "select", 1;
    "cosim", 1 ]

(* One full pipeline execution: compile, analyze, select, co-simulate
   the first kernel. [~jobs:1] keeps the selection fan-out on this
   domain so the domain-local arming sees a deterministic hit order. *)
let stage_pipeline ~fuel (bench : Suite.benchmark) =
  let program = Cayman_frontend.Lower.compile bench.Suite.source in
  let a = Core.Cayman.analyze ~fuel program in
  let r = Core.Cayman.run ~jobs:1 ~mode:Hls.Kernel.Heuristic a in
  let sel = Core.Cayman.best_under_ratio r ~budget_ratio:0.25 in
  (match sel.Core.Solution.accels with
   | [] -> ()
   | acc :: _ ->
     ignore
       (Rtl.Cosim.run_many ~fuel ~max_invocations:1 a.Core.Cayman.program
          [ Core.Cayman.kernel_of a acc ]
         : Rtl.Cosim.report list));
  r.Core.Cayman.stats

let stage_results_for ~fuel (bench : Suite.benchmark) =
  List.map
    (fun (stage, nth) ->
      Obs.Metrics.incr m_stage_runs;
      Obs.Faultpoint.arm ~nth stage;
      let outcome =
        match stage_pipeline ~fuel bench with
        | stats ->
          if Obs.Faultpoint.armed_name () <> None then Benign
          else if stats.Core.Select.failures <> [] then
            Graceful
              (Printf.sprintf "absorbed by selection: %d region(s) fell \
                               back to the CPU"
                 (List.length stats.Core.Select.failures))
          else Graceful "absorbed: pipeline completed"
        | exception e ->
          if Classify.is_structured e then
            Graceful ("structured diagnostic: " ^ Classify.exn_class e)
          else begin
            Obs.Metrics.incr m_stage_unhandled;
            Unhandled (Classify.exn_class e)
          end
      in
      Obs.Faultpoint.disarm ();
      { sr_bench = bench.Suite.name; sr_stage = stage; sr_nth = nth;
        sr_outcome = outcome })
    stage_points

(* --- the campaign --- *)

let run ?jobs options (benches : Suite.benchmark list) =
  (* A campaign must recompute, never replay: armed faultpoints and
     injected mutants sit on the kernel/netlist/cosim compute paths, and
     a warm memoization cache would skip those paths (or worse, persist
     a mutant's verdict under a clean key). Verdicts stay byte-identical
     whatever cache state the process started with. *)
  Memo.Store.without_cache @@ fun () ->
  Obs.Trace.span ~cat:"fault" "fault.campaign" @@ fun () ->
  let rng0 = Rng.make options.seed in
  let fuel = Engine.Config.fuel ?fuel:options.fuel () in
  let per_bench =
    Engine.Pool.map ?jobs
      (fun (i, (bench : Suite.benchmark)) ->
        Obs.Trace.span ~cat:"fault" ("fault.bench." ^ bench.Suite.name)
        @@ fun () ->
        let rng = Rng.split rng0 bench.Suite.name in
        let program = Cayman_frontend.Lower.compile bench.Suite.source in
        let a = Core.Cayman.analyze ~fuel program in
        let rtl =
          List.concat_map
            (fun mode ->
              rtl_results_for ~options ~rng a bench.Suite.name mode)
            modes
        in
        let stage =
          if i < options.stage_benchmarks then stage_results_for ~fuel bench
          else []
        in
        rtl, stage)
      (List.mapi (fun i b -> i, b) benches)
  in
  let rp_rtl = List.concat_map fst per_bench in
  let rp_stage = List.concat_map snd per_bench in
  Obs.Metrics.add m_rtl_faults (List.length rp_rtl);
  Obs.Metrics.add m_rtl_detected
    (List.length
       (List.filter
          (fun r ->
            match r.fr_verdict with
            | Missed _ -> false
            | Detected_lint _ | Detected_cosim _ | Detected_simerror _ ->
              true)
          rp_rtl));
  { rp_seed = options.seed;
    rp_benchmarks = List.length benches;
    rp_rtl;
    rp_stage }

let detected rp =
  List.length
    (List.filter
       (fun r ->
         match r.fr_verdict with
         | Missed _ -> false
         | Detected_lint _ | Detected_cosim _ | Detected_simerror _ -> true)
       rp.rp_rtl)

let coverage rp =
  match rp.rp_rtl with
  | [] -> 1.0
  | _ -> float_of_int (detected rp) /. float_of_int (List.length rp.rp_rtl)

let unhandled rp =
  List.length
    (List.filter
       (fun s ->
         match s.sr_outcome with
         | Unhandled _ -> true
         | Graceful _ | Benign -> false)
       rp.rp_stage)

(* --- rendering --- *)

let verdict_to_string = function
  | Detected_lint f -> "DETECTED lint: " ^ f
  | Detected_cosim n -> Printf.sprintf "DETECTED cosim: %d mismatch(es)" n
  | Detected_simerror m -> "DETECTED sim-error: " ^ m
  | Missed reason -> "MISSED: " ^ reason

let outcome_to_string = function
  | Graceful d -> "graceful - " ^ d
  | Benign -> "benign - fault point never reached"
  | Unhandled c -> "UNHANDLED - " ^ c

let to_string rp =
  let b = Buffer.create 4096 in
  let total = List.length rp.rp_rtl in
  let det = detected rp in
  Buffer.add_string b
    (Printf.sprintf
       "fault campaign: seed=%d, %d benchmark(s), %d RTL mutant(s), %d \
        stage run(s)\n"
       rp.rp_seed rp.rp_benchmarks total (List.length rp.rp_stage));
  Buffer.add_string b "== RTL fault coverage ==\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-18s %-12s %-28s %-34s %s\n" r.fr_bench r.fr_mode
           r.fr_kernel r.fr_fault
           (verdict_to_string r.fr_verdict)))
    rp.rp_rtl;
  let count p = List.length (List.filter p rp.rp_rtl) in
  Buffer.add_string b
    (Printf.sprintf
       "coverage: %d / %d detected (%.1f%%) [lint %d, cosim %d, sim-error \
        %d, missed %d]\n"
       det total
       (100.0 *. coverage rp)
       (count (fun r ->
            match r.fr_verdict with Detected_lint _ -> true | _ -> false))
       (count (fun r ->
            match r.fr_verdict with Detected_cosim _ -> true | _ -> false))
       (count (fun r ->
            match r.fr_verdict with
            | Detected_simerror _ -> true
            | _ -> false))
       (count (fun r ->
            match r.fr_verdict with Missed _ -> true | _ -> false)));
  let misses =
    List.filter
      (fun r -> match r.fr_verdict with Missed _ -> true | _ -> false)
      rp.rp_rtl
  in
  if misses <> [] then begin
    Buffer.add_string b "misses:\n";
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "  - %s %s %s %s (%s)\n" r.fr_bench r.fr_mode
             r.fr_kernel r.fr_fault
             (match r.fr_verdict with
              | Missed reason -> reason
              | _ -> "")))
      misses
  end;
  Buffer.add_string b "== stage faults ==\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "  %-18s %-10s nth=%d  %s\n" s.sr_bench s.sr_stage
           s.sr_nth
           (outcome_to_string s.sr_outcome)))
    rp.rp_stage;
  Buffer.add_string b
    (Printf.sprintf "stage faults unhandled: %d / %d\n" (unhandled rp)
       (List.length rp.rp_stage));
  Buffer.contents b

let to_json rp =
  let open Obs.Json in
  let verdict_json = function
    | Detected_lint f ->
      Obj [ "verdict", String "detected"; "by", String "lint";
            "detail", String f ]
    | Detected_cosim n ->
      Obj [ "verdict", String "detected"; "by", String "cosim";
            "mismatches", Int n ]
    | Detected_simerror m ->
      Obj [ "verdict", String "detected"; "by", String "sim-error";
            "detail", String m ]
    | Missed reason ->
      Obj [ "verdict", String "missed"; "reason", String reason ]
  in
  let outcome_json = function
    | Graceful d ->
      Obj [ "outcome", String "graceful"; "detail", String d ]
    | Benign -> Obj [ "outcome", String "benign" ]
    | Unhandled c ->
      Obj [ "outcome", String "unhandled"; "exception", String c ]
  in
  Obj
    [ "seed", Int rp.rp_seed;
      "benchmarks", Int rp.rp_benchmarks;
      ( "rtl",
        Obj
          [ "total", Int (List.length rp.rp_rtl);
            "detected", Int (detected rp);
            "coverage", Float (coverage rp);
            ( "results",
              List
                (List.map
                   (fun r ->
                     Obj
                       [ "bench", String r.fr_bench;
                         "mode", String r.fr_mode;
                         "kernel", String r.fr_kernel;
                         "fault", String r.fr_fault;
                         "result", verdict_json r.fr_verdict ])
                   rp.rp_rtl) ) ] );
      ( "stage",
        Obj
          [ "total", Int (List.length rp.rp_stage);
            "unhandled", Int (unhandled rp);
            ( "results",
              List
                (List.map
                   (fun s ->
                     Obj
                       [ "bench", String s.sr_bench;
                         "stage", String s.sr_stage;
                         "nth", Int s.sr_nth;
                         "result", outcome_json s.sr_outcome ])
                   rp.rp_stage) ) ] ) ]
