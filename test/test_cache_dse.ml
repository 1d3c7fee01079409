(* Tests for the cache simulator substrate, the DSE module, and the dot
   emitters. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim
module Hls = Cayman_hls

(* --- cache --- *)

let test_cache_sequential_locality () =
  (* a pure streaming pass hits on line_words-1 of every line_words *)
  let src =
    {|const int N = 4096;
      float a[N];
      int main() {
        float s = 0.0;
        for (int i = 0; i < N; i++) { a[i] = 1.0; }
        for (int i = 0; i < N; i++) { s += a[i]; }
        return (int)s;
      }|}
  in
  let program = (Cayman_frontend.Lower.compile src :> Ir.Cfg.program) in
  let res = Sim.Interp.run ~cache_config:Sim.Cache.default_l1 program in
  match res.Sim.Interp.cache_stats with
  | None -> Alcotest.fail "cache stats expected"
  | Some s ->
    Alcotest.(check int) "one access per load/store" 8192 s.Sim.Cache.accesses;
    (* write pass misses every 8th element; read pass misses every 8th
       again (4096 floats exceed the 1024-element cache) *)
    Alcotest.(check int) "misses = 2 * N/8" 1024 s.Sim.Cache.misses;
    Alcotest.(check bool) "hit rate ~ 7/8" true
      (abs_float (Sim.Cache.hit_rate s -. 0.875) < 1e-6)

let test_cache_resident_workload () =
  (* a small array reused many times stays resident after the first pass *)
  let src =
    {|const int N = 64;
      float a[N];
      int main() {
        float s = 0.0;
        for (int t = 0; t < 100; t++) {
          for (int i = 0; i < N; i++) { s += a[i]; }
        }
        return (int)s;
      }|}
  in
  let program = (Cayman_frontend.Lower.compile src :> Ir.Cfg.program) in
  let res = Sim.Interp.run ~cache_config:Sim.Cache.default_l1 program in
  match res.Sim.Interp.cache_stats with
  | None -> Alcotest.fail "cache stats expected"
  | Some s ->
    Alcotest.(check int) "cold misses only" (64 / 8) s.Sim.Cache.misses

let test_cache_thrash_with_tiny_cache () =
  (* a direct-mapped 1-set cache thrashes on alternating arrays *)
  let src =
    {|const int N = 256;
      float a[N]; float b[N];
      int main() {
        float s = 0.0;
        for (int i = 0; i < N; i++) { s += a[i] + b[i]; }
        return (int)s;
      }|}
  in
  let program = (Cayman_frontend.Lower.compile src :> Ir.Cfg.program) in
  let tiny =
    { Sim.Cache.line_words = 8; sets = 1; ways = 1; hit_cycles = 1;
      miss_cycles = 10 }
  in
  let res = Sim.Interp.run ~cache_config:tiny program in
  (match res.Sim.Interp.cache_stats with
   | Some s ->
     (* a[i] and b[i] map to the same single set: every access misses on
        line boundaries and conflicts in between *)
     Alcotest.(check bool) "tiny cache thrashes" true
       (Sim.Cache.hit_rate s < 0.2)
   | None -> Alcotest.fail "cache stats expected");
  (* avg cycles sit between hit and miss cost *)
  (match res.Sim.Interp.cache_stats with
   | Some s ->
     let avg = Sim.Cache.avg_cycles tiny s in
     Alcotest.(check bool) "avg in range" true (avg >= 1.0 && avg <= 10.0)
   | None -> ())

let test_cache_rejects_bad_geometry () =
  let program = Cayman_frontend.Lower.compile "int main() { return 0; }" in
  let bad = { Sim.Cache.default_l1 with Sim.Cache.sets = 3 } in
  match Sim.Cache.create ~config:bad (Ir.Validate.program program) with
  | _ -> Alcotest.fail "non-power-of-two sets must be rejected"
  | exception Invalid_argument _ -> ()

let test_cache_off_by_default () =
  let program = Cayman_frontend.Lower.compile "int main() { return 0; }" in
  let res = Sim.Interp.run (program :> Ir.Cfg.program) in
  Alcotest.(check bool) "no stats without config" true
    (res.Sim.Interp.cache_stats = None)

(* --- DSE --- *)

let setup_kernel () =
  let src =
    {|const int N = 64;
      float a[N]; float b[N];
      void kernel() {
        for (int i = 0; i < N; i++) { b[i] = a[i] * 2.0 + 1.0; }
      }
      int main() {
        for (int i = 0; i < N; i++) { a[i] = 1.0; }
        for (int t = 0; t < 8; t++) { kernel(); }
        return (int)b[0];
      }|}
  in
  let program = (Cayman_frontend.Lower.compile src :> Ir.Cfg.program) in
  let res = Sim.Interp.run program in
  let ctx =
    Hashtbl.find
      (Hls.Ctx.for_program (An.Wpst.build program) res.Sim.Interp.profile)
      "kernel"
  in
  let region = ref None in
  An.Region.iter
    (fun r ->
      if r.An.Region.kind = An.Region.Loop_region && !region = None then
        region := Some r)
    (An.Region.pst_of_cfg ctx.Hls.Ctx.cfg);
  ctx, Option.get !region

let test_dse_explore () =
  let ctx, region = setup_kernel () in
  let points = Hls.Dse.explore ctx region Hls.Dse.default_space in
  Alcotest.(check bool) "several distinct points" true
    (List.length points >= 5);
  (* deduplication: all (cycles, area) pairs unique *)
  let keys =
    List.map
      (fun (p : Hls.Kernel.point) -> p.Hls.Kernel.accel_cycles, p.Hls.Kernel.area)
      points
  in
  Alcotest.(check int) "no duplicates" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_dse_pareto () =
  let ctx, region = setup_kernel () in
  let points = Hls.Dse.explore ctx region Hls.Dse.default_space in
  let front = Hls.Dse.pareto points in
  Alcotest.(check bool) "front non-empty" true (front <> []);
  (* strictly improving cycles along increasing area *)
  let rec ok = function
    | (a : Hls.Kernel.point) :: (b : Hls.Kernel.point) :: rest ->
      a.Hls.Kernel.area <= b.Hls.Kernel.area
      && a.Hls.Kernel.accel_cycles > b.Hls.Kernel.accel_cycles
      && ok (b :: rest)
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "pareto ordered" true (ok front);
  (* every explored point is dominated by some frontier point *)
  Alcotest.(check bool) "front dominates" true
    (List.for_all
       (fun (p : Hls.Kernel.point) ->
         List.exists
           (fun (f : Hls.Kernel.point) ->
             f.Hls.Kernel.area <= p.Hls.Kernel.area
             && f.Hls.Kernel.accel_cycles <= p.Hls.Kernel.accel_cycles)
           front)
       points)

let test_dse_fast_strategy_close () =
  let ctx, region = setup_kernel () in
  match
    Hls.Dse.heuristic_vs_exhaustive ctx region
      ~area:(0.25 *. Hls.Tech.cva6_tile_area)
  with
  | None -> Alcotest.fail "both sides must be feasible"
  | Some (fast, exhaustive) ->
    Alcotest.(check bool) "exhaustive at least as good" true
      (exhaustive <= fast +. 1e-9);
    Alcotest.(check bool) "fast within 2x of exhaustive" true
      (fast <= 2.0 *. exhaustive)

(* --- dot emitters --- *)

let test_dot_outputs () =
  let program =
    (Cayman_frontend.Lower.compile
       {|const int N = 8;
         int a[N];
         int main() {
           for (int i = 0; i < N; i++) { a[i] = i; }
           return a[3];
         }|}
      :> Ir.Cfg.program)
  in
  let f = Ir.Program.func_exn program.Ir.Cfg.program "main" in
  let cfg = An.Dot.cfg f in
  Alcotest.(check bool) "cfg is a digraph" true
    (Testutil.contains cfg "digraph cfg_main");
  List.iter
    (fun (b : Ir.Block.t) ->
      Alcotest.(check bool)
        ("cfg mentions " ^ b.Ir.Block.label)
        true
        (Testutil.contains cfg b.Ir.Block.label))
    f.Ir.Func.blocks;
  let wpst = An.Dot.wpst (An.Wpst.build program) in
  Alcotest.(check bool) "wpst has root" true
    (Testutil.contains wpst "\"root\"");
  Alcotest.(check bool) "wpst has a loop region" true
    (Testutil.contains wpst "loop:");
  let dfg = An.Dot.dfg (Ir.Func.entry f) in
  Alcotest.(check bool) "dfg is a digraph" true
    (Testutil.contains dfg "digraph dfg_")

let tests =
  [ Alcotest.test_case "cache: streaming locality" `Quick
      test_cache_sequential_locality;
    Alcotest.test_case "cache: resident workload" `Quick
      test_cache_resident_workload;
    Alcotest.test_case "cache: tiny cache thrashes" `Quick
      test_cache_thrash_with_tiny_cache;
    Alcotest.test_case "cache: bad geometry rejected" `Quick
      test_cache_rejects_bad_geometry;
    Alcotest.test_case "cache: off by default" `Quick test_cache_off_by_default;
    Alcotest.test_case "dse: explore + dedup" `Quick test_dse_explore;
    Alcotest.test_case "dse: pareto frontier" `Quick test_dse_pareto;
    Alcotest.test_case "dse: fast strategy close" `Quick
      test_dse_fast_strategy_close;
    Alcotest.test_case "dot emitters" `Quick test_dot_outputs ]
