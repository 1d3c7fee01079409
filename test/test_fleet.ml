(* Tests for lib/fleet: deterministic seeded program generation,
   soundness of generated programs through the whole pipeline,
   structural clustering, the canon-digest collision guard, and the
   cross-program merge pipeline (determinism across job counts plus
   memoized warm reruns). *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Hls = Cayman_hls

let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_source_deterministic () =
  let srcs =
    List.init 12 (fun i -> Fleet.Genprog.minic_source ~seed:11 ~index:i)
  in
  let again =
    List.init 12 (fun i -> Fleet.Genprog.minic_source ~seed:11 ~index:i)
  in
  Alcotest.(check bool) "same seed/index, same source" true (srcs = again);
  Alcotest.(check bool) "indices vary the program" true
    (List.length (List.sort_uniq String.compare srcs) > 6);
  Alcotest.(check bool) "seed varies the program" true
    (Fleet.Genprog.minic_source ~seed:11 ~index:0
    <> Fleet.Genprog.minic_source ~seed:12 ~index:0)

let test_generated_programs_sound () =
  (* every generated program compiles, validates, profiles within fuel,
     and goes through selection without raising *)
  let with_kernels = ref 0 in
  for i = 0 to 19 do
    let src = Fleet.Genprog.minic_source ~seed:3 ~index:i in
    let a =
      try Core.Cayman.analyze_source src
      with e ->
        Alcotest.failf "program %d failed: %s\n%s" i (Printexc.to_string e)
          src
    in
    let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
    let sel = Core.Cayman.best_under_ratio r ~budget_ratio:0.25 in
    if sel.Core.Solution.accels <> [] then incr with_kernels
  done;
  Alcotest.(check bool) "most programs yield a kernel accelerator" true
    (!with_kernels >= 10)

(* ------------------------------------------------------------------ *)
(* Clustering                                                          *)
(* ------------------------------------------------------------------ *)

let mk_kernel prog digest sg_units =
  let signature =
    Fleet.Cluster.signature ~kind:"loop" ~blocks:3 ~loop_depth:1 sg_units
  in
  { Fleet.Cluster.k_program = prog;
    k_region = prog ^ "/kernel/loop_i";
    k_digest = digest;
    k_signature = signature;
    k_saved = 0.001;
    k_accel =
      { Core.Merge.regions = [ prog ^ "/kernel/loop_i" ];
        res =
          { Core.Merge.units = sg_units;
            r_coupled = 0;
            r_decoupled = 1;
            r_sp_words = 0;
            r_regs = 4 };
        area = 20_000.0;
        fsms = 1;
        nodes = Testutil.nodes_of_units sg_units } }

let test_cluster_grouping () =
  let ua = [ (Ir.Op.U_float_add, 2) ]
  and ub = [ (Ir.Op.U_float_mul, 1) ] in
  let kernels =
    [ mk_kernel "p0" "d1" ua;
      mk_kernel "p1" "d2" ub;
      mk_kernel "p2" "d1" ua;
      mk_kernel "p3" "d3" ua ]
  in
  let clusters = Fleet.Cluster.group kernels in
  Alcotest.(check int) "two clusters" 2 (List.length clusters);
  (* sorted by key, deterministic *)
  Alcotest.(check bool) "keys sorted" true
    (match clusters with
     | [ a; b ] -> a.Fleet.Cluster.cl_key < b.Fleet.Cluster.cl_key
     | _ -> false);
  let ca =
    List.find
      (fun c -> List.length c.Fleet.Cluster.cl_kernels = 3)
      clusters
  in
  Alcotest.(check int) "distinct digests counted" 2
    ca.Fleet.Cluster.cl_distinct;
  (* digest groups in first-occurrence order, members in fleet order *)
  (match Fleet.Cluster.by_digest ca with
   | [ ("d1", [ k1; k2 ]); ("d3", [ k3 ]) ] ->
     Alcotest.(check string) "fleet order kept" "p0"
       k1.Fleet.Cluster.k_program;
     Alcotest.(check string) "fleet order kept (2)" "p2"
       k2.Fleet.Cluster.k_program;
     Alcotest.(check string) "singleton group" "p3"
       k3.Fleet.Cluster.k_program
   | _ -> Alcotest.fail "unexpected digest grouping");
  (* signature normalization: zero counts dropped, canonical order *)
  let s =
    Fleet.Cluster.signature ~kind:"loop" ~blocks:2 ~loop_depth:1
      [ (Ir.Op.U_float_mul, 1); (Ir.Op.U_float_add, 0);
        (Ir.Op.U_int_add, 2) ]
  in
  Alcotest.(check string) "signature key canonical"
    "loop/b2/d1/int_add:2,float_mul:1"
    (Fleet.Cluster.signature_key s)

(* ------------------------------------------------------------------ *)
(* Canon-digest collision guard                                        *)
(* ------------------------------------------------------------------ *)

let test_collision_guard () =
  let c0 = counter "memo.canon_collisions" in
  let d = "fleet-test-fake-digest" in
  Memo.Hash.guard_digest ~digest:d ~code:"code-a";
  Memo.Hash.guard_digest ~digest:d ~code:"code-a";
  Alcotest.(check int) "same code never counts" c0
    (counter "memo.canon_collisions");
  Memo.Hash.guard_digest ~digest:d ~code:"code-b";
  Alcotest.(check int) "different code counts once" (c0 + 1)
    (counter "memo.canon_collisions");
  (* set-based: replaying either code in any order adds nothing *)
  Memo.Hash.guard_digest ~digest:d ~code:"code-a";
  Memo.Hash.guard_digest ~digest:d ~code:"code-b";
  Alcotest.(check int) "replays are free" (c0 + 1)
    (counter "memo.canon_collisions");
  Memo.Hash.guard_digest ~digest:d ~code:"code-c";
  Alcotest.(check int) "third distinct code counts" (c0 + 2)
    (counter "memo.canon_collisions")

let test_canon_digest_distinguishes () =
  (* two structurally different regions get different guarded digests,
     and re-digesting the same region is collision-free *)
  let gen seed =
    let st = Random.State.make [| seed |] in
    QCheck.Gen.generate1 ~rand:st Fleet.Genprog.gen_ir_func
  in
  let rec distinct_pair s =
    let f = gen s and g = gen (s + 1) in
    let cf = Memo.Hash.canon_region f (Testutil.pst f)
    and cg = Memo.Hash.canon_region g (Testutil.pst g) in
    if cf.Memo.Hash.code = cg.Memo.Hash.code then
      distinct_pair (s + 2)
    else (cf, cg)
  in
  let cf, cg = distinct_pair 100 in
  let c0 = counter "memo.canon_collisions" in
  let df = Memo.Hash.canon_digest cf
  and dg = Memo.Hash.canon_digest cg in
  Alcotest.(check bool) "different structure, different digest" true
    (df <> dg);
  Alcotest.(check string) "stable digest" df (Memo.Hash.canon_digest cf);
  Alcotest.(check int) "no collisions counted" c0
    (counter "memo.canon_collisions")

(* ------------------------------------------------------------------ *)
(* Fleet pipeline                                                      *)
(* ------------------------------------------------------------------ *)

let small_opts =
  { Fleet.Merge.default_options with
    Fleet.Merge.o_kernels = 30;
    o_seed = 7;
    o_budget = 2.0;
    o_jobs = Some 2 }

let test_fleet_run () =
  let r = Fleet.Merge.run small_opts in
  Alcotest.(check int) "all programs survive the pipeline" 0
    r.Fleet.Merge.r_failed;
  Alcotest.(check int) "thirty programs" 30 r.Fleet.Merge.r_programs;
  Alcotest.(check bool) "kernels selected" true
    (r.Fleet.Merge.r_kernels > 0);
  Alcotest.(check bool) "clusters formed" true
    (r.Fleet.Merge.r_clusters > 0
    && r.Fleet.Merge.r_clusters <= r.Fleet.Merge.r_kernels);
  Alcotest.(check bool) "distinct digests bounded by kernels" true
    (r.Fleet.Merge.r_distinct <= r.Fleet.Merge.r_kernels);
  (* cross-program merging cannot lose to per-program merging *)
  Alcotest.(check bool) "fleet area <= per-program area" true
    (r.Fleet.Merge.r_area_fleet
    <= r.Fleet.Merge.r_area_per_program +. 1e-6);
  Alcotest.(check bool) "fleet saves strictly more than per-program" true
    (r.Fleet.Merge.r_saving_fleet_pct
    > r.Fleet.Merge.r_saving_per_program_pct);
  Alcotest.(check bool) "budget coverage favors sharing" true
    (r.Fleet.Merge.r_budget_kernels_fleet
    >= r.Fleet.Merge.r_budget_kernels_per_program)

let test_fleet_deterministic_across_jobs () =
  let r1 =
    Fleet.Merge.run { small_opts with Fleet.Merge.o_jobs = Some 1 }
  in
  let r4 =
    Fleet.Merge.run { small_opts with Fleet.Merge.o_jobs = Some 4 }
  in
  Alcotest.(check string) "reports byte-identical for jobs 1 and 4"
    (Fleet.Merge.report_to_string r1)
    (Fleet.Merge.report_to_string r4)

let test_fleet_memoized () =
  Test_memo.with_store @@ fun _dir ->
  let cold = Fleet.Merge.run small_opts in
  Memo.Store.reset_memory ();
  let hits0 = counter "memo.disk_hits" in
  let warm = Fleet.Merge.run small_opts in
  Alcotest.(check string) "warm report = cold report"
    (Fleet.Merge.report_to_string cold)
    (Fleet.Merge.report_to_string warm);
  Alcotest.(check bool) "warm run reads program summaries from disk" true
    (counter "memo.disk_hits" - hits0 >= small_opts.Fleet.Merge.o_kernels)

let tests =
  [ Alcotest.test_case "source generation deterministic" `Quick
      test_source_deterministic;
    Alcotest.test_case "generated programs sound end-to-end" `Slow
      test_generated_programs_sound;
    Alcotest.test_case "cluster grouping" `Quick test_cluster_grouping;
    Alcotest.test_case "collision guard counter" `Quick
      test_collision_guard;
    Alcotest.test_case "canon digests distinguish structures" `Quick
      test_canon_digest_distinguishes;
    Alcotest.test_case "fleet pipeline on 30 programs" `Slow
      test_fleet_run;
    Alcotest.test_case "fleet report identical across job counts" `Slow
      test_fleet_deterministic_across_jobs;
    Alcotest.test_case "fleet warm rerun memoized" `Slow
      test_fleet_memoized ]
