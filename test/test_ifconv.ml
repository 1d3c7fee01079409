(* Tests for the if-conversion pass: semantic preservation (before/after
   runs agree), structural effects (diamonds collapse, loops become
   pipelineable), and safety restrictions. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim
module Hls = Cayman_hls

let run_program p =
  let res = Sim.Interp.run p in
  match res.Sim.Interp.return_value with
  | Some (Sim.Value.Vint n) -> n
  | Some (Sim.Value.Vfloat _ | Sim.Value.Vbool _) | None ->
    Alcotest.fail "expected int result"

(* semantic preservation: the converted program computes the same value *)
let check_preserves name src =
  let p = (Cayman_frontend.Lower.compile src :> Ir.Cfg.program) in
  let p' = (Ir.Validate.check_exn (An.Ifconv.run p) :> Ir.Cfg.program) in
  Alcotest.(check int) (name ^ ": same result") (run_program p) (run_program p')

let test_preserves_semantics () =
  check_preserves "max update"
    {|const int N = 20;
      int a[N];
      int main() {
        int seed = 3;
        for (int i = 0; i < N; i++) {
          seed = (seed * 97 + 13) % 1000;
          a[i] = seed;
        }
        int best = a[0];
        for (int i = 1; i < N; i++) {
          if (a[i] > best) { best = a[i]; }
        }
        return best;
      }|};
  check_preserves "if/else values"
    {|int main() {
        int s = 0;
        for (int i = 0; i < 50; i++) {
          int v = 0;
          if (i % 3 == 0) { v = i * 2; } else { v = i - 1; }
          s += v;
        }
        return s;
      }|};
  check_preserves "clamping floats"
    {|const int N = 32;
      float a[N];
      int main() {
        for (int i = 0; i < N; i++) { a[i] = (float)(i - 16) * 0.5; }
        float s = 0.0;
        for (int i = 0; i < N; i++) {
          float v = a[i];
          if (v < 0.0) { v = 0.0 - v; }
          if (v > 4.0) { v = 4.0; }
          s += v;
        }
        return (int)(s * 10.0);
      }|};
  check_preserves "nested conditionals"
    {|int main() {
        int s = 0;
        for (int i = 0; i < 40; i++) {
          int v = i;
          if (i % 2 == 0) {
            v = v + 10;
            if (i % 4 == 0) { v = v * 2; }
          }
          s += v;
        }
        return s;
      }|}

let count_blocks f = List.length f.Ir.Func.blocks

(* [kernel] before and after converting the whole program. *)
let convert_kernel p =
  let kernel p = Ir.Program.func_exn p "kernel" in
  ( kernel (Ir.Validate.program p),
    kernel (An.Ifconv.run (p :> Ir.Cfg.program)) )

let test_triangle_collapses () =
  let p =
    Cayman_frontend.Lower.compile
      {|const int N = 8;
        int a[N];
        int kernel(int x) {
          int v = x;
          if (x > 3) { v = x * 2; }
          return v;
        }
        int main() { return kernel(5); }|}
  in
  let f, f' = convert_kernel p in
  Alcotest.(check bool) "fewer blocks after conversion" true
    (count_blocks f' < count_blocks f);
  (* a select appears *)
  let has_select =
    List.exists
      (fun (b : Ir.Block.t) ->
        List.exists
          (fun i ->
            match i with
            | Ir.Instr.Select _ -> true
            | _ -> false)
          b.Ir.Block.instrs)
      f'.Ir.Func.blocks
  in
  Alcotest.(check bool) "select formed" true has_select

let test_store_arm_not_converted () =
  let p =
    Cayman_frontend.Lower.compile
      {|const int N = 8;
        int a[N];
        void kernel(int x) {
          if (x > 3) { a[0] = x; }
        }
        int main() { kernel(5); return a[0]; }|}
  in
  let f, f' = convert_kernel p in
  Alcotest.(check int) "store arm untouched" (count_blocks f)
    (count_blocks f')

let test_division_arm_not_converted () =
  let p =
    Cayman_frontend.Lower.compile
      {|int kernel(int x, int d) {
          int v = 0;
          if (d != 0) { v = x / d; }
          return v;
        }
        int main() { return kernel(10, 0); }|}
  in
  let f, f' = convert_kernel p in
  Alcotest.(check int) "trapping arm untouched" (count_blocks f)
    (count_blocks f');
  (* and the guarded division still works end to end *)
  let p' = Ir.Cfg.of_program (An.Ifconv.run (p :> Ir.Cfg.program)) in
  Alcotest.(check int) "division by zero still guarded" 0 (run_program p')

let test_enables_pipelining () =
  (* the nw-style min/max DP body pipelines only after if-conversion *)
  let src =
    {|const int N = 24;
      int score[N][N];
      void kernel() {
        for (int i = 1; i < N; i++) {
          for (int j = 1; j < N; j++) {
            int d = score[i - 1][j - 1] + 2;
            int u = score[i - 1][j] - 1;
            int l = score[i][j - 1] - 1;
            int best = d;
            if (u > best) { best = u; }
            if (l > best) { best = l; }
            score[i][j] = best;
          }
        }
      }
      int main() {
        for (int i = 0; i < N; i++) { score[i][0] = 0 - i; score[0][i] = 0 - i; }
        for (int t = 0; t < 5; t++) { kernel(); }
        return score[N - 1][N - 1];
      }|}
  in
  let count_pr if_convert =
    let a = Core.Cayman.analyze_source ~if_convert src in
    let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
    let s = Core.Cayman.best_under_ratio r ~budget_ratio:0.65 in
    (Core.Report.totals s).Core.Report.pr
  in
  Alcotest.(check bool) "if-conversion creates pipelined regions" true
    (count_pr true > count_pr false)

let test_speedup_not_worse () =
  (* end-to-end: converted floyd-warshall beats the unconverted flow *)
  let src =
    (Cayman_suites.Suite.find_exn "floyd-warshall").Cayman_suites.Suite.source
  in
  let speedup if_convert =
    let a =
      Core.Cayman.analyze ~if_convert (Cayman_frontend.Lower.compile src)
    in
    let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
    Core.Cayman.speedup a (Core.Cayman.best_under_ratio r ~budget_ratio:0.65)
  in
  Alcotest.(check bool) "if-converted flow at least as fast" true
    (speedup true >= speedup false -. 0.05)

let test_idempotent () =
  let p =
    Cayman_frontend.Lower.compile
      {|int main() {
          int s = 0;
          for (int i = 0; i < 10; i++) {
            int v = i;
            if (i > 5) { v = i * 3; }
            s += v;
          }
          return s;
        }|}
  in
  let p1 = An.Ifconv.run (p :> Ir.Cfg.program) in
  let p2 = An.Ifconv.run (Ir.Cfg.of_program p1) in
  Alcotest.(check string) "second pass is identity"
    (Ir.Program.to_string p1) (Ir.Program.to_string p2)

let tests =
  [ Alcotest.test_case "preserves semantics" `Quick test_preserves_semantics;
    Alcotest.test_case "triangle collapses to select" `Quick
      test_triangle_collapses;
    Alcotest.test_case "store arms untouched" `Quick
      test_store_arm_not_converted;
    Alcotest.test_case "trapping arms untouched" `Quick
      test_division_arm_not_converted;
    Alcotest.test_case "enables pipelining" `Slow test_enables_pipelining;
    Alcotest.test_case "floyd-warshall not worse" `Slow test_speedup_not_worse;
    Alcotest.test_case "idempotent" `Quick test_idempotent ]
