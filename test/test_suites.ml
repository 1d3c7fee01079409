(* Tests over the 28-benchmark evaluation suite: every benchmark
   compiles, validates, and (for a fast subset) runs to completion with a
   sensible profile. *)

module Ir = Cayman_ir
module Sim = Cayman_sim
module Suite = Cayman_suites.Suite

let test_registry () =
  Alcotest.(check int) "28 benchmarks" 28 (List.length Suite.all);
  let suites =
    List.sort_uniq String.compare
      (List.map (fun b -> b.Suite.suite) Suite.all)
  in
  Alcotest.(check (list string)) "four suites"
    [ "CoreMark-Pro"; "MachSuite"; "MediaBench"; "PolyBench" ]
    suites;
  Alcotest.(check int) "16 PolyBench kernels" 16
    (List.length
       (List.filter (fun b -> String.equal b.Suite.suite "PolyBench") Suite.all));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is registered") true
        (Suite.find name <> None))
    Suite.fig6;
  Alcotest.(check bool) "unknown name" true (Suite.find "nonesuch" = None)

let test_all_compile_and_validate () =
  List.iter
    (fun b ->
      let program =
        try Suite.compile b with
        | Cayman_frontend.Diag.Error d ->
          Alcotest.failf "%s: %s" b.Suite.name
            (Cayman_frontend.Diag.to_string d)
      in
      match Ir.Validate.check (Ir.Validate.program program) with
      | Ok _ -> ()
      | Error es ->
        Alcotest.failf "%s: %d validation errors" b.Suite.name (List.length es))
    Suite.all

let run_one name =
  let b = Suite.find_exn name in
  let program = Suite.compile b in
  let res = Sim.Interp.run (program :> Ir.Cfg.program) in
  Alcotest.(check bool)
    (name ^ " returns an int")
    true
    (match res.Sim.Interp.return_value with
     | Some (Sim.Value.Vint _) -> true
     | Some (Sim.Value.Vfloat _ | Sim.Value.Vbool _) | None -> false);
  Alcotest.(check bool)
    (name ^ " burns cycles")
    true
    (Sim.Profile.total_cycles res.Sim.Interp.profile > 10_000)

let test_fast_subset_runs () =
  List.iter run_one
    [ "3mm"; "atax"; "bicg"; "mvt"; "trisolv"; "fft"; "spmv"; "nw";
      "parser-125k"; "loops-all-mid-10k-sp" ]

let test_every_benchmark_has_hotspot () =
  (* the top-level loop structure exists: at least one loop per program *)
  List.iter
    (fun b ->
      let program = (Suite.compile b :> Ir.Cfg.program) in
      let has_loop =
        List.exists
          (fun index ->
            Cayman_analysis.Loops.of_cfg (fst (Option.get index)) <> [])
          program.Ir.Cfg.funcs
      in
      Alcotest.(check bool) (b.Suite.name ^ " has loops") true has_loop)
    Suite.all

let tests =
  [ Alcotest.test_case "registry shape" `Quick test_registry;
    Alcotest.test_case "all 28 compile and validate" `Quick
      test_all_compile_and_validate;
    Alcotest.test_case "fast subset runs" `Slow test_fast_subset_runs;
    Alcotest.test_case "every benchmark has loops" `Quick
      test_every_benchmark_has_hotspot ]
