(* Tests for the Verilog netlist backend: structural consistency with the
   accelerator model, well-formed output, determinism. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim
module Hls = Cayman_hls

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

let setup src fname =
  let program = (Cayman_frontend.Lower.compile src :> Ir.Cfg.program) in
  let res = Sim.Interp.run program in
  let ctxs = Hls.Ctx.for_program (An.Wpst.build program) res.Sim.Interp.profile in
  let ctx = Hashtbl.find ctxs fname in
  let root = An.Region.pst_of_cfg ctx.Hls.Ctx.cfg in
  let region = ref None in
  An.Region.iter
    (fun r ->
      if r.An.Region.kind = An.Region.Loop_region && !region = None then
        region := Some r)
    root;
  ctx, Option.get !region

let config u =
  { Hls.Kernel.unroll = u; pipeline = true; mode = Hls.Kernel.Heuristic }

let netlist_exn ctx region cfg =
  match Hls.Netlist.of_kernel ctx region cfg with
  | Some n -> n
  | None -> Alcotest.fail "netlist generation failed"

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i acc =
    if i + nn > nh then acc
    else if String.equal (String.sub hay i nn) needle then scan (i + 1) (acc + 1)
    else scan (i + 1) acc
  in
  scan 0 0

let test_basic_structure () =
  let ctx, region = setup mac_src "kernel" in
  let n = netlist_exn ctx region (config 1) in
  let v = n.Hls.Netlist.verilog in
  Alcotest.(check int) "one module" 1 (count_substring v "module ");
  Alcotest.(check int) "one endmodule" 1 (count_substring v "endmodule");
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Testutil.contains v needle))
    [ "input  wire clk"; "output reg  done"; "S_IDLE"; "S_DONE";
      "cayman_float_mul"; "cayman_float_add"; "always @(posedge clk)";
      "case (state)" ]

let test_counts_match_model () =
  let ctx, region = setup mac_src "kernel" in
  List.iter
    (fun u ->
      let cfg = config u in
      let n = netlist_exn ctx region cfg in
      match Hls.Kernel.estimate ctx region cfg with
      | None -> Alcotest.fail "estimate failed"
      | Some p ->
        (* compute instances in the netlist = modelled unit instances
           (the MAC loop has a carried dep, so u collapses to 1 and the
           comparison is exact for all u) *)
        let model_units =
          List.fold_left (fun acc (_, c) -> acc + c) 0 p.Hls.Kernel.units
        in
        Alcotest.(check int)
          (Printf.sprintf "u=%d: instances = modelled units" u)
          model_units n.Hls.Netlist.stats.Hls.Netlist.n_compute;
        let model_mem =
          p.Hls.Kernel.ifaces.Hls.Kernel.n_coupled
          + p.Hls.Kernel.ifaces.Hls.Kernel.n_decoupled
          + p.Hls.Kernel.ifaces.Hls.Kernel.n_scratchpad
        in
        Alcotest.(check int)
          (Printf.sprintf "u=%d: mem instances = modelled interfaces" u)
          model_mem n.Hls.Netlist.stats.Hls.Netlist.n_mem)
    [ 1; 4 ]

let test_unroll_replicates_instances () =
  (* a dependency-free loop: u=4 must emit 4x the body instances *)
  let src =
    {|const int N = 64;
      float a[N]; float b[N];
      void kernel() {
        for (int i = 0; i < N; i++) { b[i] = a[i] * 2.0 + 1.0; }
      }
      int main() {
        for (int i = 0; i < N; i++) { a[i] = 1.0; }
        for (int t = 0; t < 4; t++) { kernel(); }
        return (int)b[0];
      }|}
  in
  let ctx, region = setup src "kernel" in
  let n1 = netlist_exn ctx region (config 1) in
  let n4 = netlist_exn ctx region (config 4) in
  let fmul v = count_substring v "cayman_float_mul u_" in
  Alcotest.(check int) "4x fmul instances"
    (4 * fmul n1.Hls.Netlist.verilog)
    (fmul n4.Hls.Netlist.verilog);
  Alcotest.(check bool) "replica suffixes present" true
    (Testutil.contains n4.Hls.Netlist.verilog "_u3_")

let test_scratchpad_and_dma_emitted () =
  (* a kernel with heavy reuse gets scratchpad banks + a DMA engine *)
  let src =
    {|const int N = 24;
      float A[N][N]; float o[1];
      void kernel() {
        float acc = 0.0;
        for (int r = 0; r < 50; r++) {
          for (int i = 0; i < N; i++) {
            for (int j = 0; j < N; j++) { acc += A[i][j]; }
          }
        }
        o[0] = acc;
      }
      int main() {
        for (int i = 0; i < N; i++) {
          for (int j = 0; j < N; j++) { A[i][j] = 1.0; }
        }
        kernel();
        return (int)o[0];
      }|}
  in
  let ctx, region = setup src "kernel" in
  let n = netlist_exn ctx region (config 1) in
  Alcotest.(check bool) "scratchpad instance" true
    (Testutil.contains n.Hls.Netlist.verilog "cayman_scratchpad #(.WORDS(");
  Alcotest.(check bool) "dma instance" true
    (Testutil.contains n.Hls.Netlist.verilog "cayman_dma u_dma")

let test_deterministic () =
  let ctx, region = setup mac_src "kernel" in
  let n1 = netlist_exn ctx region (config 1) in
  let n2 = netlist_exn ctx region (config 1) in
  Alcotest.(check string) "same verilog" n1.Hls.Netlist.verilog
    n2.Hls.Netlist.verilog

let test_primitive_library_covers_instances () =
  let ctx, region = setup mac_src "kernel" in
  let n = netlist_exn ctx region (config 1) in
  (* every instantiated cayman_* module exists in the primitive library *)
  let v = n.Hls.Netlist.verilog in
  let rec collect i acc =
    match String.index_from_opt v i 'c' with
    | None -> acc
    | Some j ->
      if j + 7 <= String.length v && String.equal (String.sub v j 7) "cayman_"
      then begin
        let k = ref j in
        while
          !k < String.length v
          && (match v.[!k] with
              | 'a' .. 'z' | '0' .. '9' | '_' -> true
              | 'A' .. 'Z' -> true
              | _ -> false)
        do
          incr k
        done;
        collect !k (String.sub v j (!k - j) :: acc)
      end
      else collect (j + 1) acc
  in
  let names =
    collect 0 []
    |> List.sort_uniq String.compare
    |> List.filter (fun m ->
      not (Testutil.contains m "cayman_accel"))
  in
  Alcotest.(check bool) "found instantiated primitives" true (names <> []);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m ^ " defined in primitives")
        true
        (Testutil.contains Hls.Netlist.primitives ("module " ^ m)))
    names

let test_reusable_netlist () =
  let n =
    Hls.Netlist.of_reusable ~name:"demo"
      ~units:[ (Ir.Op.U_float_add, 2); (Ir.Op.U_float_mul, 1) ]
      ~n_coupled:1 ~n_decoupled:2 ~sp_words:64 ~fsms:3
      ~regions:[ "f/loop:a"; "g/loop:b"; "h/loop:c" ]
  in
  let v = n.Hls.Netlist.verilog in
  Alcotest.(check int) "3 shared units" 3
    n.Hls.Netlist.stats.Hls.Netlist.n_compute;
  Alcotest.(check int) "3 FSMs" 3 n.Hls.Netlist.stats.Hls.Netlist.n_states;
  Alcotest.(check int) "two fadd instances" 2
    (count_substring v "cayman_float_add u_");
  Alcotest.(check int) "config muxes per unit" 6
    (count_substring v "cayman_mux_cfg u_mux_");
  Alcotest.(check bool) "kernels documented" true
    (Testutil.contains v "g/loop:b");
  Alcotest.(check bool) "global Ctrl present" true
    (Testutil.contains v "global Ctrl");
  Alcotest.(check bool) "shared scratchpad" true
    (Testutil.contains v "cayman_scratchpad #(.WORDS(64)");
  Alcotest.(check int) "one module" 1 (count_substring v "module ")

let test_call_region_rejected () =
  let src =
    {|float h(float x) { return x + 1.0; }
      const int N = 8;
      float a[N];
      void kernel() {
        for (int i = 0; i < N; i++) { a[i] = h(a[i]); }
      }
      int main() { kernel(); return (int)a[0]; }|}
  in
  let ctx, region = setup src "kernel" in
  Alcotest.(check bool) "no netlist for call regions" true
    (Hls.Netlist.of_kernel ctx region (config 1) = None)

let test_consistency_across_benchmarks () =
  (* every selected accelerator of several real benchmarks generates a
     netlist whose instance counts equal the area model's, with balanced
     module structure *)
  List.iter
    (fun name ->
      let a =
        Core.Cayman.analyze
          (Cayman_suites.Suite.compile (Cayman_suites.Suite.find_exn name))
      in
      let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
      let s = Core.Cayman.best_under_ratio r ~budget_ratio:0.25 in
      List.iter
        (fun (acc : Core.Solution.accel) ->
          (* a selected kernel must be emittable: [of_spec] raises
             otherwise *)
          let n = Hls.Netlist.of_spec (Core.Cayman.kernel_of a acc) in
          let p = acc.Core.Solution.a_point in
          let model_units =
            List.fold_left (fun t (_, c) -> t + c) 0 p.Hls.Kernel.units
          in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: units" name
               acc.Core.Solution.a_region_name)
            model_units n.Hls.Netlist.stats.Hls.Netlist.n_compute;
          let model_mem =
            p.Hls.Kernel.ifaces.Hls.Kernel.n_coupled
            + p.Hls.Kernel.ifaces.Hls.Kernel.n_decoupled
            + p.Hls.Kernel.ifaces.Hls.Kernel.n_scratchpad
          in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: interfaces" name
               acc.Core.Solution.a_region_name)
            model_mem n.Hls.Netlist.stats.Hls.Netlist.n_mem;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: balanced module" name
               acc.Core.Solution.a_region_name)
            1
            (count_substring n.Hls.Netlist.verilog "endmodule"))
        s.Core.Solution.accels)
    [ "atax"; "doitgen"; "nw"; "spmv"; "linear-alg-mid-100x100-sp" ]

let tests =
  [ Alcotest.test_case "basic structure" `Quick test_basic_structure;
    Alcotest.test_case "instance counts match model" `Quick
      test_counts_match_model;
    Alcotest.test_case "unroll replicates instances" `Quick
      test_unroll_replicates_instances;
    Alcotest.test_case "scratchpad + DMA emitted" `Quick
      test_scratchpad_and_dma_emitted;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "primitive library covers instances" `Quick
      test_primitive_library_covers_instances;
    Alcotest.test_case "reusable accelerator netlist" `Quick
      test_reusable_netlist;
    Alcotest.test_case "call regions rejected" `Quick
      test_call_region_rejected;
    Alcotest.test_case "model/netlist consistency on benchmarks" `Slow
      test_consistency_across_benchmarks ]
