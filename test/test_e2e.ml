(* End-to-end invariants of the whole flow on real benchmarks. *)

module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

let test_flow_invariants () =
  List.iter
    (fun name ->
      let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn name)) in
      Alcotest.(check bool) (name ^ ": positive T_all") true
        (a.Core.Cayman.t_all > 0.0);
      let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
      Alcotest.(check bool) (name ^ ": frontier non-empty") true
        (r.Core.Cayman.frontier <> []);
      List.iter
        (fun budget ->
          let s = Core.Cayman.best_under_ratio r ~budget_ratio:budget in
          Alcotest.(check bool)
            (Printf.sprintf "%s@%.0f%%: fits budget" name (100.0 *. budget))
            true
            (s.Core.Solution.area <= budget *. Hls.Tech.cva6_tile_area +. 1e-6);
          let sp = Core.Cayman.speedup a s in
          Alcotest.(check bool)
            (Printf.sprintf "%s@%.0f%%: speedup >= 1" name (100.0 *. budget))
            true (sp >= 1.0 -. 1e-9);
          Alcotest.(check bool)
            (Printf.sprintf "%s@%.0f%%: speedup finite" name (100.0 *. budget))
            true
            (Float.is_finite sp))
        [ 0.25; 0.65 ])
    [ "atax"; "doitgen"; "md"; "epic"; "nnet-test" ]

let test_budget_ordering () =
  (* the 65% budget never does worse than the 25% one *)
  List.iter
    (fun name ->
      let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn name)) in
      let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
      let sp b = Core.Cayman.speedup a (Core.Cayman.best_under_ratio r ~budget_ratio:b) in
      Alcotest.(check bool) (name ^ ": 65% >= 25%") true
        (sp 0.65 >= sp 0.25 -. 1e-9))
    [ "gramschmidt"; "jacobi-2d"; "loops-all-mid-10k-sp" ]

let test_loops_all_coupled_close_to_full () =
  (* the paper's observation: loops-all-mid-10k-sp has FP recurrences
     that cap the pipeline II, so coupled-only Cayman is close to full
     Cayman there *)
  let a =
    Core.Cayman.analyze (Suite.compile (Suite.find_exn "loops-all-mid-10k-sp"))
  in
  let sp mode =
    let r = Core.Cayman.run ~mode a in
    Core.Cayman.speedup a (Core.Cayman.best_under_ratio r ~budget_ratio:0.65)
  in
  let full = sp Hls.Kernel.Heuristic in
  let coupled = sp Hls.Kernel.Coupled_only in
  Alcotest.(check bool) "coupled within 40% of full" true
    (coupled >= 0.6 *. full);
  (* a contrast workload where interfaces matter much more *)
  let b = Core.Cayman.analyze (Suite.compile (Suite.find_exn "jacobi-2d")) in
  let spb mode =
    let r = Core.Cayman.run ~mode b in
    Core.Cayman.speedup b (Core.Cayman.best_under_ratio r ~budget_ratio:0.65)
  in
  Alcotest.(check bool) "jacobi-2d gains far more from interfaces" true
    (spb Hls.Kernel.Heuristic > 1.5 *. spb Hls.Kernel.Coupled_only)

(* Determinism contract of the parallel engine: selection under any
   domain count yields a frontier equal solution-by-solution (bit-exact
   areas, saved times, configs) to the sequential baseline, and the
   rendered report text matches byte-for-byte. *)
let test_parallel_determinism () =
  List.iter
    (fun name ->
      let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn name)) in
      let run jobs = Core.Cayman.run ~jobs ~mode:Hls.Kernel.Heuristic a in
      let seq = run 1 in
      List.iter
        (fun jobs ->
          let par = run jobs in
          Alcotest.(check bool)
            (Printf.sprintf "%s: frontier jobs=1 = jobs=%d" name jobs)
            true
            (Core.Solution.equal_frontier seq.Core.Cayman.frontier
               par.Core.Cayman.frontier);
          Alcotest.(check int)
            (Printf.sprintf "%s: visited jobs=%d" name jobs)
            seq.Core.Cayman.stats.Core.Select.visited
            par.Core.Cayman.stats.Core.Select.visited;
          Alcotest.(check int)
            (Printf.sprintf "%s: points jobs=%d" name jobs)
            seq.Core.Cayman.stats.Core.Select.points_evaluated
            par.Core.Cayman.stats.Core.Select.points_evaluated;
          (* report text byte-identical, solution by solution *)
          let render r =
            String.concat "\n"
              (List.map
                 (Format.asprintf "%a" Core.Solution.pp)
                 r.Core.Cayman.frontier)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s: report text jobs=%d" name jobs)
            (render seq) (render par))
        [ 2; 4 ])
    [ "atax"; "fft"; "md" ]

let test_runtime_reasonable () =
  let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn "bicg")) in
  let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
  Alcotest.(check bool) "selection under 30s" true
    (r.Core.Cayman.runtime_s < 30.0);
  Alcotest.(check bool) "stats populated" true
    (r.Core.Cayman.stats.Core.Select.visited > 0)

let test_cli_building_blocks () =
  (* analyze_source error path *)
  (match Core.Cayman.analyze_source "int main() { return x; }" with
   | _ -> Alcotest.fail "must reject unknown variable"
   | exception Cayman_frontend.Diag.Error _ -> ());
  (* a valid trivial program flows end-to-end *)
  let a = Core.Cayman.analyze_source "int main() { return 0; }" in
  let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
  let s = Core.Cayman.best_under_ratio r ~budget_ratio:0.25 in
  Alcotest.(check int) "nothing to accelerate" 0
    (List.length s.Core.Solution.accels)

(* The checked program [analyze] returns carries the one index of each
   function that the later stages read: every wPST tree and every
   context holds that very index, not a rebuilt copy. A program fed to
   [analyze] straight from the frontend and the same IR checked again
   give the same frontier. *)
let test_stages_share_index () =
  List.iter
    (fun (name, src) ->
      let compiled = Cayman_frontend.Lower.compile src in
      let a = Core.Cayman.analyze compiled in
      let indexed = (a.Core.Cayman.program :> Cayman_ir.Cfg.program) in
      let index_of fname =
        match Cayman_ir.Cfg.find indexed fname with
        | Some (cfg, _) -> cfg
        | None -> Alcotest.failf "%s: no index for %s" name fname
      in
      List.iter
        (fun (ft : Cayman_analysis.Wpst.func_tree) ->
          let cfg = index_of ft.Cayman_analysis.Wpst.fname in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: wPST reads the checked index" name
               ft.Cayman_analysis.Wpst.fname)
            true
            (ft.Cayman_analysis.Wpst.cfg == cfg);
          match Hashtbl.find_opt a.Core.Cayman.ctxs ft.Cayman_analysis.Wpst.fname with
          | Some ctx ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: context reads the checked index" name
                 ft.Cayman_analysis.Wpst.fname)
              true (ctx.Hls.Ctx.cfg == cfg)
          | None ->
            Alcotest.failf "%s: no context for %s" name
              ft.Cayman_analysis.Wpst.fname)
        a.Core.Cayman.wpst.Cayman_analysis.Wpst.funcs;
      let frontier a =
        (Core.Cayman.run ~mode:Hls.Kernel.Heuristic a).Core.Cayman.frontier
      in
      let rechecked =
        Core.Cayman.analyze
          (Cayman_ir.Validate.check_exn (Cayman_ir.Validate.program compiled))
      in
      Alcotest.(check bool)
        (name ^ ": frontend program and rechecked IR agree")
        true
        (Core.Solution.equal_frontier (frontier a) (frontier rechecked)))
    [ "atax", (Suite.find_exn "atax").Suite.source;
      "genprog 1000/3", Fleet.Genprog.minic_source ~seed:1000 ~index:3 ]

let tests =
  [ Alcotest.test_case "flow invariants" `Slow test_flow_invariants;
    Alcotest.test_case "budget ordering" `Slow test_budget_ordering;
    Alcotest.test_case "loops-all coupled ~ full (paper)" `Slow
      test_loops_all_coupled_close_to_full;
    Alcotest.test_case "parallel selection deterministic" `Slow
      test_parallel_determinism;
    Alcotest.test_case "selection runtime sane" `Quick test_runtime_reasonable;
    Alcotest.test_case "driver building blocks" `Quick test_cli_building_blocks;
    Alcotest.test_case "stages share the checked index" `Quick
      test_stages_share_index ]
