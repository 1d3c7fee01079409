(* Tests for accelerator merging. *)

module Ir = Cayman_ir
module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

(* A synthetic accelerator lifted for merging from a unit multiset,
   its datapath one level-0 node per unit. *)
let mk_accel name ?(coupled = 0) ?(decoupled = 0) ?(sp = 0) ?(regs = 0) units
    area =
  let point =
    { Hls.Kernel.config =
        { Hls.Kernel.unroll = 1; pipeline = false; mode = Hls.Kernel.Heuristic };
      accel_cycles = 100.0;
      cpu_cycles = 1000;
      invocations = 1;
      area;
      n_seq_blocks = 1;
      n_pipelined = 0;
      ifaces =
        { Hls.Kernel.n_coupled = coupled; n_decoupled = decoupled;
          n_scratchpad = sp };
      units;
      sp_words = sp * 64;
      n_regs = regs }
  in
  Core.Merge.accel_of (Testutil.nodes_of_units units)
    (Core.Solution.accel_of_point ~func:"f" ~region_id:0 ~region_name:name
       point)

let fp_units = [ (Ir.Op.U_float_add, 2); (Ir.Op.U_float_mul, 2) ]

let test_identical_pair_saves () =
  let a = mk_accel "k1" ~regs:6 fp_units 25_000.0 in
  let b = mk_accel "k2" ~regs:6 fp_units 25_000.0 in
  let r = Core.Merge.run [ a; b ] in
  Alcotest.(check bool) "merged into one" true
    (List.length r.Core.Merge.accels = 1);
  Alcotest.(check bool) "saves area" true
    (r.Core.Merge.area_after < r.Core.Merge.area_before);
  Alcotest.(check int) "one reusable accel" 1 r.Core.Merge.n_reusable;
  Alcotest.(check (float 0.01)) "two regions per reusable" 2.0
    r.Core.Merge.regions_per_reusable;
  let m = List.hd r.Core.Merge.accels in
  Alcotest.(check int) "two FSMs survive" 2 m.Core.Merge.fsms;
  (* the merged datapath keeps the max of each unit kind *)
  Alcotest.(check (option int)) "fadd count" (Some 2)
    (List.assoc_opt Ir.Op.U_float_add m.Core.Merge.res.Core.Merge.units)

let test_disjoint_units_do_not_merge () =
  (* an integer-only and a tiny float accel share nothing worth muxes *)
  let a = mk_accel "ints" [ (Ir.Op.U_int_logic, 2) ] 2_000.0 in
  let b = mk_accel "floats" [ (Ir.Op.U_float_div, 1) ] 11_000.0 in
  let r = Core.Merge.run [ a; b ] in
  Alcotest.(check int) "no merge happens" 2 (List.length r.Core.Merge.accels);
  Alcotest.(check (float 0.001)) "no saving" 0.0 r.Core.Merge.saving_pct

let test_single_accel_noop () =
  let a = mk_accel "only" fp_units 25_000.0 in
  let r = Core.Merge.run [ a ] in
  Alcotest.(check int) "kept as is" 1 (List.length r.Core.Merge.accels);
  Alcotest.(check (float 1e-9)) "area unchanged" r.Core.Merge.area_before
    r.Core.Merge.area_after;
  Alcotest.(check int) "nothing reusable" 0 r.Core.Merge.n_reusable

let test_empty_solution () =
  let r = Core.Merge.run [] in
  Alcotest.(check int) "no accels" 0 (List.length r.Core.Merge.accels);
  Alcotest.(check (float 1e-9)) "zero saving" 0.0 r.Core.Merge.saving_pct

let test_three_way_merge () =
  let mk name = mk_accel name ~decoupled:2 ~regs:8 fp_units 30_000.0 in
  let r = Core.Merge.run [ mk "k1"; mk "k2"; mk "k3" ] in
  Alcotest.(check int) "all three collapse" 1 (List.length r.Core.Merge.accels);
  let m = List.hd r.Core.Merge.accels in
  Alcotest.(check int) "three FSMs" 3 m.Core.Merge.fsms;
  Alcotest.(check int) "three regions served" 3
    (List.length m.Core.Merge.regions);
  (* three identical accels: the merged area stays well below 3x one *)
  Alcotest.(check bool) "substantial saving" true
    (r.Core.Merge.saving_pct > 30.0)

let test_pair_saving_symmetric () =
  let a = mk_accel "a" ~regs:3 [ (Ir.Op.U_float_add, 1) ] 8_000.0 in
  let b =
    mk_accel "b" ~regs:9 [ (Ir.Op.U_float_add, 3); (Ir.Op.U_int_mul, 1) ]
      20_000.0
  in
  Alcotest.(check (float 1e-6)) "saving is symmetric"
    (Core.Merge.pair_saving a b)
    (Core.Merge.pair_saving b a)

let test_merge_never_increases_area_on_benchmarks () =
  List.iter
    (fun name ->
      let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn name)) in
      let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
      List.iter
        (fun budget ->
          let s = Core.Cayman.best_under_ratio r ~budget_ratio:budget in
          let m = Core.Cayman.merge a s in
          Alcotest.(check bool)
            (Printf.sprintf "%s@%.0f%%: merging only saves" name
               (100.0 *. budget))
            true
            (m.Core.Merge.area_after <= m.Core.Merge.area_before +. 1e-6);
          Alcotest.(check bool) "saving percentage in range" true
            (m.Core.Merge.saving_pct >= -1e-6 && m.Core.Merge.saving_pct <= 100.0);
          (* regions are preserved through merging *)
          let before = List.length s.Core.Solution.accels in
          let after =
            List.fold_left
              (fun acc (x : Core.Merge.accel) ->
                acc + List.length x.Core.Merge.regions)
              0 m.Core.Merge.accels
          in
          Alcotest.(check int) "regions preserved" before after)
        [ 0.25; 0.65 ])
    [ "3mm"; "atax"; "doitgen" ]

let test_datapath_pairing () =
  let n k l = { Hls.Datapath.n_kind = k; n_level = l } in
  let a =
    [ n Ir.Op.U_float_add 0; n Ir.Op.U_float_mul 2; n Ir.Op.U_int_add 0 ]
  in
  let b = [ n Ir.Op.U_float_add 1; n Ir.Op.U_float_mul 2 ] in
  let p = Hls.Datapath.pair a b in
  Alcotest.(check int) "two shared units" 2 p.Hls.Datapath.n_shared;
  Alcotest.(check int) "a keeps one extra" 1 p.Hls.Datapath.n_only_a;
  Alcotest.(check int) "b exhausted" 0 p.Hls.Datapath.n_only_b;
  Alcotest.(check bool) "positive saving" true (p.Hls.Datapath.saved_area > 0.0);
  (* the merged datapath has max counts per kind *)
  Alcotest.(check (option int)) "merged fadd" (Some 1)
    (List.assoc_opt Ir.Op.U_float_add (Hls.Datapath.counts p.Hls.Datapath.merged));
  Alcotest.(check (option int)) "merged int_add" (Some 1)
    (List.assoc_opt Ir.Op.U_int_add (Hls.Datapath.counts p.Hls.Datapath.merged));
  (* symmetric saving *)
  let q = Hls.Datapath.pair b a in
  Alcotest.(check (float 1e-6)) "symmetric" p.Hls.Datapath.saved_area
    q.Hls.Datapath.saved_area;
  (* distant levels share less than aligned levels *)
  let near = Hls.Datapath.pair [ n Ir.Op.U_float_add 0 ] [ n Ir.Op.U_float_add 0 ] in
  let far = Hls.Datapath.pair [ n Ir.Op.U_float_add 0 ] [ n Ir.Op.U_float_add 20 ] in
  Alcotest.(check bool) "level gap reduces gain" true
    (far.Hls.Datapath.saved_area < near.Hls.Datapath.saved_area)

let test_dfg_level_merge_on_benchmark () =
  (* DFG-level merging works end to end and never loses to no merging *)
  let a =
    Core.Cayman.analyze (Suite.compile (Suite.find_exn "3mm"))
  in
  let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
  let s = Core.Cayman.best_under_ratio r ~budget_ratio:0.25 in
  let m = Core.Cayman.merge a s in
  Alcotest.(check bool) "every accel has datapath nodes" true
    (List.for_all
       (fun k -> Hls.Datapath.of_kernel k <> [])
       (Core.Cayman.kernels a s));
  Alcotest.(check bool) "saves area" true
    (m.Core.Merge.area_after <= m.Core.Merge.area_before);
  Alcotest.(check bool) "substantial on 3mm" true
    (m.Core.Merge.saving_pct > 15.0)

(* --- the generalized entry points (fleet merging rides on these) --- *)

let mk_merge_accel prog area =
  { Core.Merge.regions = [ prog ^ "/kernel/loop_i" ];
    res =
      { Core.Merge.units = fp_units;
        r_coupled = 0;
        r_decoupled = 1;
        r_sp_words = 0;
        r_regs = 6 };
    area;
    fsms = 1;
    nodes = Testutil.nodes_of_units fp_units }

let test_cross_program_merge_accels () =
  (* merge_accels is not tied to one program's solution: accelerators
     from three different programs collapse into one reusable accel *)
  let pop =
    [ mk_merge_accel "p0" 25_000.0;
      mk_merge_accel "p1" 25_000.0;
      mk_merge_accel "p2" 25_000.0 ]
  in
  let merged = Core.Merge.merge_accels pop in
  Alcotest.(check int) "one shared accel" 1 (List.length merged);
  let m = List.hd merged in
  Alcotest.(check int) "serves three programs" 3
    (List.length m.Core.Merge.regions);
  Alcotest.(check int) "three FSMs" 3 m.Core.Merge.fsms;
  Alcotest.(check bool) "cheaper than the sum" true
    (m.Core.Merge.area < 75_000.0);
  (* empty and singleton populations are no-ops *)
  Alcotest.(check int) "empty population" 0
    (List.length (Core.Merge.merge_accels []));
  (match Core.Merge.merge_accels [ mk_merge_accel "p9" 25_000.0 ] with
   | [ a ] ->
     Alcotest.(check (float 1e-9)) "singleton untouched" 25_000.0
       a.Core.Merge.area
   | _ -> Alcotest.fail "singleton population changed size")

let test_merge_pair_arithmetic () =
  let a = mk_merge_accel "pa" 25_000.0
  and b = mk_merge_accel "pb" 30_000.0 in
  let s = Core.Merge.pair_saving a b in
  Alcotest.(check bool) "identical datapaths save" true (s > 0.0);
  let m = Core.Merge.merge_pair a b ~saving:s in
  Alcotest.(check (float 1e-6)) "merged area = a + b - saving"
    (25_000.0 +. 30_000.0 -. s)
    m.Core.Merge.area

(* QCheck: over arbitrary accelerator populations, the greedy merge
   never increases total area and never loses a region. *)
let qcheck_merge_never_increases_area =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 6)
        (quad (int_range 0 3) (int_range 0 3) (int_range 0 3)
           (int_range 5 50)))
  in
  let arb =
    QCheck.make
      ~print:(fun pop ->
        String.concat ";"
          (List.map
             (fun (fa, fm, im, ak) ->
               Printf.sprintf "(fa=%d,fm=%d,im=%d,a=%dk)" fa fm im ak)
             pop))
      gen
  in
  Testutil.qtest ~count:200 "merging never increases total area" arb
    (fun pop ->
      let accels =
        List.mapi
          (fun i (fa, fm, im, ak) ->
            let units =
              List.filter
                (fun (_, c) -> c > 0)
                [ (Ir.Op.U_float_add, fa);
                  (Ir.Op.U_float_mul, fm);
                  (Ir.Op.U_int_mul, im) ]
            in
            mk_accel (Printf.sprintf "k%d" i) ~regs:(fa + fm) units
              (float_of_int ak *. 1000.0))
          pop
      in
      let r = Core.Merge.run accels in
      if r.Core.Merge.area_after > r.Core.Merge.area_before +. 1e-6 then
        QCheck.Test.fail_reportf "area grew: %.1f -> %.1f"
          r.Core.Merge.area_before r.Core.Merge.area_after;
      let regions_after =
        List.fold_left
          (fun acc (a : Core.Merge.accel) ->
            acc + List.length a.Core.Merge.regions)
          0 r.Core.Merge.accels
      in
      if regions_after <> List.length accels then
        QCheck.Test.fail_reportf "regions lost: %d -> %d"
          (List.length accels) regions_after;
      true)

let tests =
  [ Alcotest.test_case "identical pair merges with saving" `Quick
      test_identical_pair_saves;
    Alcotest.test_case "cross-program merge_accels" `Quick
      test_cross_program_merge_accels;
    Alcotest.test_case "merge_pair arithmetic" `Quick
      test_merge_pair_arithmetic;
    qcheck_merge_never_increases_area;
    Alcotest.test_case "disjoint units stay separate" `Quick
      test_disjoint_units_do_not_merge;
    Alcotest.test_case "single accelerator untouched" `Quick
      test_single_accel_noop;
    Alcotest.test_case "empty solution" `Quick test_empty_solution;
    Alcotest.test_case "three-way merge" `Quick test_three_way_merge;
    Alcotest.test_case "pair saving symmetric" `Quick
      test_pair_saving_symmetric;
    Alcotest.test_case "merging on real benchmarks" `Slow
      test_merge_never_increases_area_on_benchmarks;
    Alcotest.test_case "datapath pairing" `Quick test_datapath_pairing;
    Alcotest.test_case "DFG-level merge on 3mm" `Slow
      test_dfg_level_merge_on_benchmark ]
