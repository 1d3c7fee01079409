(* Tests for scalar evolution, access-pattern classification, footprints
   and memory dependence analysis. *)

module Ir = Cayman_ir
module An = Cayman_analysis

(* Compile, run, and return (func, loops, scev, live) of [name]. *)
let analyze src name =
  let _, res, program = Testutil.compile_run src in
  ignore res;
  let cfg = Testutil.cfg_of program name in
  let f = cfg.Ir.Cfg.func in
  let loops = An.Loops.of_cfg cfg in
  let scev = An.Scev.create f loops in
  let live = An.Liveness.compute cfg (Ir.Cfg.Must_defined.solve cfg) in
  f, loops, scev, live

(* All (block, pos, instr) memory accesses of a function touching [base]. *)
let accesses_of (f : Ir.Func.t) base =
  List.concat_map
    (fun (b : Ir.Block.t) ->
      List.filteri (fun _ _ -> true) b.Ir.Block.instrs
      |> List.mapi (fun pos i -> b.Ir.Block.label, pos, i)
      |> List.filter (fun (_, _, i) ->
        match Ir.Instr.mem_ref_of i with
        | Some m -> String.equal m.Ir.Instr.base base
        | None -> false))
    f.Ir.Func.blocks

let classify_all scev f base =
  List.map
    (fun (block, pos, _) -> An.Scev.classify scev ~block ~pos)
    (accesses_of f base)

let src_streams =
  {|const int N = 32;
    float a[N]; float b[N]; float c[N][N];
    int idx[N];
    void kernel(int off) {
      for (int i = 0; i < N; i++) {
        b[i] = a[i] * 2.0;          // unit stride
      }
      for (int i = 0; i < N / 2; i++) {
        b[2 * i] = a[N - 1 - i];     // strides +2 / -1
      }
      for (int i = 0; i < N; i++) {
        b[i] = a[idx[i]];            // irregular via index load
      }
    }
    int main() {
      for (int i = 0; i < N; i++) { a[i] = 1.0; idx[i] = i / 2; }
      kernel(3);
      return (int)b[1];
    }|}

let test_stream_classification () =
  let f, _, scev, _ = analyze src_streams "kernel" in
  let pats_b = classify_all scev f "b" in
  Alcotest.(check bool) "b has stride +1" true
    (List.mem (An.Scev.Stream 1) pats_b);
  Alcotest.(check bool) "b has stride +2" true
    (List.mem (An.Scev.Stream 2) pats_b);
  let pats_a = classify_all scev f "a" in
  Alcotest.(check bool) "a has stride -1" true
    (List.mem (An.Scev.Stream (-1)) pats_a);
  Alcotest.(check bool) "a has an irregular access" true
    (List.mem An.Scev.Irregular pats_a);
  let pats_idx = classify_all scev f "idx" in
  (* idx[i] itself is a unit-stride stream *)
  Alcotest.(check (list string)) "idx access is a stream"
    [ "stream(+1)" ]
    (List.map An.Scev.pattern_to_string pats_idx)

let src_nest =
  {|const int N = 8;
    const int M = 16;
    float A[N][M]; float z[N];
    void kernel() {
      for (int i = 0; i < N; i++) {
        for (int j = 0; j < M; j++) {
          z[i] += A[i][j];
        }
      }
    }
    int main() {
      for (int i = 0; i < N; i++) {
        z[i] = 0.0;
        for (int j = 0; j < M; j++) { A[i][j] = 1.0; }
      }
      kernel();
      return (int)z[0];
    }|}

let test_invariant_and_footprint () =
  let f, loops, scev, _ = analyze src_nest "kernel" in
  let inner =
    List.find (fun l -> An.Loops.is_innermost loops l) loops
  in
  let outer =
    List.find (fun l -> not (An.Loops.is_innermost loops l)) loops
  in
  let z_accesses = accesses_of f "z" in
  (* z accesses inside the inner loop body are invariant *)
  List.iter
    (fun (block, pos, _) ->
      if An.Loops.String_set.mem block inner.An.Loops.blocks then
        Alcotest.(check string) "z invariant wrt inner loop" "invariant"
          (An.Scev.pattern_to_string (An.Scev.classify scev ~block ~pos)))
    z_accesses;
  (* footprints: A over the inner loop = M; over both loops = N*M;
     z over the inner loop = 1 *)
  let a_block, a_pos, _ = List.hd (accesses_of f "A") in
  Alcotest.(check (option int)) "A inner footprint" (Some 16)
    (An.Scev.footprint scev ~block:a_block ~pos:a_pos
       ~trips:[ (inner.An.Loops.header, 16) ]);
  Alcotest.(check (option int)) "A full footprint" (Some 128)
    (An.Scev.footprint scev ~block:a_block ~pos:a_pos
       ~trips:[ (inner.An.Loops.header, 16); (outer.An.Loops.header, 8) ]);
  let z_in_inner =
    List.find
      (fun (block, _, _) -> An.Loops.String_set.mem block inner.An.Loops.blocks)
      z_accesses
  in
  let zb, zp, _ = z_in_inner in
  Alcotest.(check (option int)) "z inner footprint" (Some 1)
    (An.Scev.footprint scev ~block:zb ~pos:zp
       ~trips:[ (inner.An.Loops.header, 16) ])

let test_iv_detection () =
  let _, _, scev, _ = analyze src_nest "kernel" in
  (* the canonical IVs i and j (lowered with suffixes) are detected *)
  let f, loops, _, _ = analyze src_nest "kernel" in
  ignore f;
  Alcotest.(check int) "two loops two IVs" 2
    (List.length
       (List.filter
          (fun (l : An.Loops.loop) ->
            ignore l;
            true)
          loops));
  (* IV registers exist: detect by probing names i0/j... via is_iv on all
     registers defined in the function. *)
  let f2 = f in
  let ivs =
    List.concat_map
      (fun (b : Ir.Block.t) ->
        List.filter_map
          (fun i ->
            match Ir.Instr.def i with
            | Some r when An.Scev.is_iv scev r.Ir.Instr.id ->
              Some r.Ir.Instr.id
            | Some _ | None -> None)
          b.Ir.Block.instrs)
      f2.Ir.Func.blocks
  in
  Alcotest.(check int) "exactly two IV registers" 2
    (List.length (List.sort_uniq String.compare ivs))

let test_carried_dependencies () =
  let f, loops, scev, live = analyze src_nest "kernel" in
  let inner = List.find (fun l -> An.Loops.is_innermost loops l) loops in
  let outer = List.find (fun l -> not (An.Loops.is_innermost loops l)) loops in
  let inner_info = An.Memdep.analyze_loop f live scev inner in
  let outer_info = An.Memdep.analyze_loop f live scev outer in
  (* z[i] accumulation: carried through memory in the inner loop *)
  Alcotest.(check bool) "inner loop has carried deps" true
    (inner_info.An.Memdep.carried <> []);
  List.iter
    (fun (d : An.Memdep.carried_dep) ->
      Alcotest.(check (option int)) "distance 1" (Some 1) d.An.Memdep.distance)
    inner_info.An.Memdep.carried;
  (* across outer iterations z[i] addresses differ: no carried dep *)
  Alcotest.(check int) "outer loop carried deps" 0
    (List.length outer_info.An.Memdep.carried);
  Alcotest.(check bool) "unrolling allowed on outer" false
    (An.Memdep.has_carried_dep outer_info)

let test_scalar_recurrence () =
  let src =
    {|const int N = 16;
      float a[N]; float out[1];
      void kernel() {
        float acc = 0.0;
        for (int i = 0; i < N; i++) { acc += a[i]; }
        out[0] = acc;
      }
      int main() {
        for (int i = 0; i < N; i++) { a[i] = 1.0; }
        kernel();
        return (int)out[0];
      }|}
  in
  let f, loops, scev, live = analyze src "kernel" in
  let l = List.hd loops in
  let info = An.Memdep.analyze_loop f live scev l in
  Alcotest.(check bool) "accumulator is a recurrence" true
    (List.exists
       (fun r -> Testutil.contains r "acc")
       info.An.Memdep.recurrences);
  Alcotest.(check bool) "IV is not a recurrence" true
    (List.for_all
       (fun r -> not (An.Scev.is_iv scev r))
       info.An.Memdep.recurrences);
  Alcotest.(check bool) "carried dep blocks unrolling" true
    (An.Memdep.has_carried_dep info)

let test_distance_dependencies () =
  (* a[i] = a[i-2]: carried with distance 2; b[i] = b[i-1]: distance 1 *)
  let src =
    {|const int N = 32;
      float a[N]; float b[N];
      void kernel() {
        for (int i = 2; i < N; i++) { a[i] = a[i - 2] + 1.0; }
        for (int i = 1; i < N; i++) { b[i] = b[i - 1] * 0.5; }
      }
      int main() {
        for (int i = 0; i < N; i++) { a[i] = 1.0; b[i] = 2.0; }
        kernel();
        return (int)(a[5] + b[5]);
      }|}
  in
  let f, loops, scev, live = analyze src "kernel" in
  let distances =
    List.map
      (fun l ->
        let info = An.Memdep.analyze_loop f live scev l in
        List.filter_map (fun (d : An.Memdep.carried_dep) -> d.An.Memdep.distance)
          info.An.Memdep.carried)
      loops
  in
  let flat = List.concat distances in
  Alcotest.(check bool) "found distance 2" true (List.mem 2 flat);
  Alcotest.(check bool) "found distance 1" true (List.mem 1 flat)

let test_no_false_dependency () =
  (* writes to even elements, reads from odd: never aliases *)
  let src =
    {|const int N = 32;
      float a[N];
      void kernel() {
        for (int i = 0; i < N / 2 - 1; i++) {
          a[2 * i] = a[2 * i + 1];
        }
      }
      int main() {
        for (int i = 0; i < N; i++) { a[i] = (float)i; }
        kernel();
        return (int)a[0];
      }|}
  in
  let f, loops, scev, live = analyze src "kernel" in
  let l = List.hd loops in
  let info = An.Memdep.analyze_loop f live scev l in
  Alcotest.(check int) "no carried deps between disjoint strides" 0
    (List.length info.An.Memdep.carried)

let test_affine_algebra () =
  (* affine equality and coefficient lookup through the public API *)
  let a1 = { An.Scev.const = 3; ivs = [ ("h", 2) ]; syms = [] } in
  let a2 = { An.Scev.const = 3; ivs = [ ("h", 2) ]; syms = [] } in
  let a3 = { An.Scev.const = 3; ivs = [ ("h", 1) ]; syms = [] } in
  Alcotest.(check bool) "equal affines" true (An.Scev.affine_equal a1 a2);
  Alcotest.(check bool) "different coeffs" false (An.Scev.affine_equal a1 a3);
  Alcotest.(check int) "coeff lookup" 2 (An.Scev.coeff_of a1 "h");
  Alcotest.(check int) "missing coeff is 0" 0 (An.Scev.coeff_of a1 "nope")

let tests =
  [ Alcotest.test_case "stream classification" `Quick test_stream_classification;
    Alcotest.test_case "invariant + footprints" `Quick
      test_invariant_and_footprint;
    Alcotest.test_case "IV detection" `Quick test_iv_detection;
    Alcotest.test_case "carried deps (accumulation)" `Quick
      test_carried_dependencies;
    Alcotest.test_case "scalar recurrences" `Quick test_scalar_recurrence;
    Alcotest.test_case "dependence distances" `Quick test_distance_dependencies;
    Alcotest.test_case "no false dependencies" `Quick test_no_false_dependency;
    Alcotest.test_case "affine algebra" `Quick test_affine_algebra ]
