(* Property tests over randomly generated structured MiniC programs:
   the frontend compiles and validates them, interpretation is
   deterministic, if-conversion preserves results exactly, PST invariants
   hold, and the end-to-end flow produces sane solutions. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim

(* --- a tiny random structured-program generator --- *)

(* All arrays are float[32]; loop variables stay in 0..5 and indices are
   [var (+ var) (+ const<=10)], so every access is statically in
   bounds. *)

let arr_size = 32

type rexpr =
  | R_const of float
  | R_var of int  (* scalar s<i> *)
  | R_loopvar of int  (* iteration variable v<i>, as float *)
  | R_load of int * ridx  (* array a<i> *)
  | R_add of rexpr * rexpr
  | R_sub of rexpr * rexpr
  | R_mul of rexpr * rexpr

and ridx =
  | I_var of int
  | I_sum of int * int
  | I_offset of int * int  (* var + const *)

type rstmt =
  | S_store of int * ridx * rexpr
  | S_scalar of int * rexpr  (* s<i> += expr *)
  | S_for of int * int * rstmt list  (* for v<i> in 0..bound *)
  | S_if of int * int * rstmt list * rstmt list
      (* condition: v<i> < const; then/else arms *)

type rprog = {
  n_arrays : int;
  n_scalars : int;
  body : rstmt list;
}

open QCheck.Gen

let gen_idx depth =
  let _ = depth in
  frequency
    [ 3, map (fun v -> I_var v) (int_range 0 2);
      1, map2 (fun a b -> I_sum (a, b)) (int_range 0 2) (int_range 0 2);
      2, map2 (fun v c -> I_offset (v, c)) (int_range 0 2) (int_range 0 10) ]

let rec gen_expr n_arrays n_scalars depth =
  if depth <= 0 then
    frequency
      [ 2, map (fun x -> R_const (float_of_int x /. 8.0)) (int_range (-16) 16);
        2, map (fun v -> R_var v) (int_range 0 (n_scalars - 1));
        1, map (fun v -> R_loopvar v) (int_range 0 2);
        2,
        map2 (fun a i -> R_load (a, i)) (int_range 0 (n_arrays - 1))
          (gen_idx depth) ]
  else
    frequency
      [ 1, map (fun x -> R_const (float_of_int x /. 8.0)) (int_range (-16) 16);
        2,
        map2 (fun a b -> R_add (a, b))
          (gen_expr n_arrays n_scalars (depth - 1))
          (gen_expr n_arrays n_scalars (depth - 1));
        2,
        map2 (fun a b -> R_sub (a, b))
          (gen_expr n_arrays n_scalars (depth - 1))
          (gen_expr n_arrays n_scalars (depth - 1));
        2,
        map2 (fun a b -> R_mul (a, b))
          (gen_expr n_arrays n_scalars (depth - 1))
          (gen_expr n_arrays n_scalars (depth - 1));
        1,
        map2 (fun a i -> R_load (a, i)) (int_range 0 (n_arrays - 1))
          (gen_idx depth) ]

let rec gen_stmt n_arrays n_scalars ~loop_depth ~size =
  if size <= 1 || loop_depth >= 3 then
    frequency
      [ 3,
        map3
          (fun a i e -> S_store (a, i, e))
          (int_range 0 (n_arrays - 1))
          (gen_idx 0)
          (gen_expr n_arrays n_scalars 2);
        2,
        map2 (fun v e -> S_scalar (v, e))
          (int_range 0 (n_scalars - 1))
          (gen_expr n_arrays n_scalars 2) ]
  else
    frequency
      [ 3,
        map3
          (fun a i e -> S_store (a, i, e))
          (int_range 0 (n_arrays - 1))
          (gen_idx 0)
          (gen_expr n_arrays n_scalars 2);
        2,
        map2 (fun v e -> S_scalar (v, e))
          (int_range 0 (n_scalars - 1))
          (gen_expr n_arrays n_scalars 2);
        3,
        (int_range 2 5 >>= fun bound ->
         gen_body n_arrays n_scalars ~loop_depth:(loop_depth + 1)
           ~size:(size / 2)
         >>= fun body -> return (S_for (loop_depth, bound, body)));
        2,
        (int_range 0 4 >>= fun c ->
         gen_body n_arrays n_scalars ~loop_depth ~size:(size / 3)
         >>= fun then_b ->
         gen_body n_arrays n_scalars ~loop_depth ~size:(size / 3)
         >>= fun else_b ->
         return (S_if (min (loop_depth - 1) 2, c, then_b, else_b))) ]

and gen_body n_arrays n_scalars ~loop_depth ~size =
  int_range 1 3 >>= fun n ->
  let rec go k acc =
    if k = 0 then return (List.rev acc)
    else
      gen_stmt n_arrays n_scalars ~loop_depth ~size >>= fun s ->
      go (k - 1) (s :: acc)
  in
  go n []

let gen_prog =
  int_range 1 3 >>= fun n_arrays ->
  int_range 1 2 >>= fun n_scalars ->
  (* always wrap the body in an outer loop so loop variables v0..v2 exist
     wherever they are referenced *)
  gen_body n_arrays n_scalars ~loop_depth:1 ~size:12 >>= fun inner ->
  let body =
    [ S_for (0, 5, [ S_for (1, 4, [ S_for (2, 3, inner) ]) ]) ]
  in
  return { n_arrays; n_scalars; body }

(* --- printing to MiniC --- *)

let idx_to_string = function
  | I_var v -> Printf.sprintf "v%d" v
  | I_sum (a, b) -> Printf.sprintf "v%d + v%d" a b
  | I_offset (v, c) -> Printf.sprintf "v%d + %d" v c

let rec expr_to_string = function
  | R_const x -> Printf.sprintf "%f" x
  | R_var v -> Printf.sprintf "s%d" v
  | R_loopvar v -> Printf.sprintf "(float)v%d" v
  | R_load (a, i) -> Printf.sprintf "a%d[%s]" a (idx_to_string i)
  | R_add (a, b) ->
    Printf.sprintf "(%s + %s)" (expr_to_string a) (expr_to_string b)
  | R_sub (a, b) ->
    Printf.sprintf "(%s - %s)" (expr_to_string a) (expr_to_string b)
  | R_mul (a, b) ->
    Printf.sprintf "(%s * %s)" (expr_to_string a) (expr_to_string b)

let rec stmt_to_lines indent s =
  let pad = String.make indent ' ' in
  match s with
  | S_store (a, i, e) ->
    [ Printf.sprintf "%sa%d[%s] = %s;" pad a (idx_to_string i)
        (expr_to_string e) ]
  | S_scalar (v, e) ->
    [ Printf.sprintf "%ss%d += %s;" pad v (expr_to_string e) ]
  | S_for (v, bound, body) ->
    (Printf.sprintf "%sfor (int v%d = 0; v%d < %d; v%d++) {" pad v v bound v
     :: List.concat_map (stmt_to_lines (indent + 2)) body)
    @ [ pad ^ "}" ]
  | S_if (v, bound, then_b, else_b) ->
    let c = Printf.sprintf "v%d < %d" v bound in
    (Printf.sprintf "%sif (%s) {" pad c
     :: List.concat_map (stmt_to_lines (indent + 2)) then_b)
    @ (if else_b = [] then [ pad ^ "}" ]
       else
         (Printf.sprintf "%s} else {" pad
          :: List.concat_map (stmt_to_lines (indent + 2)) else_b)
         @ [ pad ^ "}" ])

let prog_to_minic p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "const int SZ = %d;\n" arr_size);
  for a = 0 to p.n_arrays - 1 do
    Buffer.add_string buf (Printf.sprintf "float a%d[SZ];\n" a)
  done;
  Buffer.add_string buf "int main() {\n";
  Buffer.add_string buf
    "  for (int i = 0; i < SZ; i++) {\n";
  for a = 0 to p.n_arrays - 1 do
    Buffer.add_string buf
      (Printf.sprintf "    a%d[i] = (float)((i * %d + %d) %% 17) / 17.0;\n" a
         (a + 3) (a + 1))
  done;
  Buffer.add_string buf "  }\n";
  for v = 0 to p.n_scalars - 1 do
    Buffer.add_string buf (Printf.sprintf "  float s%d = 0.5;\n" v)
  done;
  List.iter
    (fun s ->
      List.iter
        (fun line -> Buffer.add_string buf (line ^ "\n"))
        (stmt_to_lines 2 s))
    p.body;
  (* checksum over everything so no computation is dead *)
  Buffer.add_string buf "  float chk = 0.0;\n";
  for v = 0 to p.n_scalars - 1 do
    Buffer.add_string buf (Printf.sprintf "  chk += s%d;\n" v)
  done;
  Buffer.add_string buf "  for (int i = 0; i < SZ; i++) {\n";
  for a = 0 to p.n_arrays - 1 do
    Buffer.add_string buf (Printf.sprintf "    chk += a%d[i] * 0.125;\n" a)
  done;
  Buffer.add_string buf "  }\n";
  (* accumulators may overflow to inf/nan: clamp rather than loop *)
  Buffer.add_string buf "  if (chk != chk) { chk = -7.0; }\n";
  Buffer.add_string buf "  if (chk > 1000000.0) { chk = 1000001.0; }\n";
  Buffer.add_string buf "  if (chk < -1000000.0) { chk = -1000001.0; }\n";
  Buffer.add_string buf "  return (int)chk;\n}\n";
  Buffer.contents buf

let arb_prog = QCheck.make ~print:prog_to_minic gen_prog

(* --- properties --- *)

let compile_ok src =
  try Ok (Cayman_frontend.Lower.compile src) with
  | Cayman_frontend.Diag.Error d ->
    Error (Cayman_frontend.Diag.to_string d)

let qcheck_compiles =
  Testutil.qtest ~count:60 "random programs compile and validate" arb_prog
    (fun p ->
      match compile_ok (prog_to_minic p) with
      | Ok program -> Result.is_ok (Ir.Validate.check (Ir.Validate.program program))
      | Error m -> QCheck.Test.fail_report m)

let run_value (program : Ir.Validate.t) =
  match
    (Sim.Interp.run ~fuel:50_000_000 (program :> Ir.Cfg.program))
      .Sim.Interp.return_value
  with
  | Some (Sim.Value.Vint n) -> n
  | Some (Sim.Value.Vfloat _ | Sim.Value.Vbool _) | None -> min_int

let qcheck_deterministic =
  Testutil.qtest ~count:30 "random programs run deterministically" arb_prog
    (fun p ->
      match compile_ok (prog_to_minic p) with
      | Error m -> QCheck.Test.fail_report m
      | Ok program -> run_value program = run_value program)

let qcheck_ifconv_preserves =
  Testutil.qtest ~count:60 "if-conversion preserves random programs"
    arb_prog (fun p ->
      match compile_ok (prog_to_minic p) with
      | Error m -> QCheck.Test.fail_report m
      | Ok program ->
        let converted =
          An.Simplify.merge_chains (An.Ifconv.run (program :> Ir.Cfg.program))
        in
        match Ir.Validate.check converted with
        | Ok converted -> run_value program = run_value converted
        | Error _ -> false)

let check_pst_partition index =
  let root = An.Region.pst_of_cfg (fst (Option.get index)) in
  let ok = ref true in
  An.Region.iter
    (fun r ->
      match r.An.Region.kind with
      | An.Region.Basic_block -> ()
      | An.Region.Whole_function | An.Region.Loop_region
      | An.Region.Cond_region ->
        let covered = ref An.Region.String_set.empty in
        List.iter
          (fun c ->
            if
              (not
                 (An.Region.String_set.subset c.An.Region.blocks
                    r.An.Region.blocks))
              || not
                   (An.Region.String_set.is_empty
                      (An.Region.String_set.inter !covered c.An.Region.blocks))
            then ok := false;
            covered := An.Region.String_set.union !covered c.An.Region.blocks)
          r.An.Region.children;
        if not (An.Region.String_set.equal !covered r.An.Region.blocks) then
          ok := false)
    root;
  !ok

let qcheck_pst_partition =
  Testutil.qtest ~count:60 "PST partitions random programs" arb_prog
    (fun p ->
      match compile_ok (prog_to_minic p) with
      | Error m -> QCheck.Test.fail_report m
      | Ok program ->
        let program = (program :> Ir.Cfg.program) in
        List.for_all check_pst_partition program.Ir.Cfg.funcs
        &&
        let converted =
          Ir.Cfg.of_program (An.Simplify.merge_chains (An.Ifconv.run program))
        in
        List.for_all check_pst_partition converted.Ir.Cfg.funcs)

let qcheck_flow_sane =
  Testutil.qtest ~count:15 "full flow on random programs" arb_prog
    (fun p ->
      match compile_ok (prog_to_minic p) with
      | Error m -> QCheck.Test.fail_report m
      | Ok program ->
        let a = Core.Cayman.analyze ~fuel:50_000_000 program in
        let r = Core.Cayman.run ~mode:Cayman_hls.Kernel.Heuristic a in
        List.for_all
          (fun s ->
            s.Core.Solution.saved >= -1e-12
            && s.Core.Solution.saved <= a.Core.Cayman.t_all +. 1e-12
            && s.Core.Solution.area >= 0.0)
          r.Core.Cayman.frontier)

let qcheck_parallel_select_deterministic =
  Testutil.qtest ~count:10
    "parallel selection equals sequential on random programs" arb_prog
    (fun p ->
      match compile_ok (prog_to_minic p) with
      | Error m -> QCheck.Test.fail_report m
      | Ok program ->
        let a = Core.Cayman.analyze ~fuel:50_000_000 program in
        let run jobs =
          Core.Cayman.run ~jobs ~mode:Cayman_hls.Kernel.Heuristic a
        in
        let seq = run 1 and par = run 4 in
        Core.Solution.equal_frontier seq.Core.Cayman.frontier
          par.Core.Cayman.frontier
        && seq.Core.Cayman.stats = par.Core.Cayman.stats)

(* Tracing armed around the full flow on arbitrary programs: the flow
   still succeeds, spans are recorded with non-negative durations, and
   the Chrome export parses back. *)
let qcheck_traced_flow =
  Testutil.qtest ~count:10 "full flow with tracing enabled" arb_prog
    (fun p ->
      match compile_ok (prog_to_minic p) with
      | Error m -> QCheck.Test.fail_report m
      | Ok program ->
        Obs.Trace.reset ();
        Obs.Trace.set_enabled true;
        let a = Core.Cayman.analyze ~fuel:50_000_000 program in
        let r = Core.Cayman.run ~mode:Cayman_hls.Kernel.Heuristic a in
        Obs.Trace.set_enabled false;
        let spans = Obs.Trace.spans () in
        let json_ok =
          match Obs.Json.parse (Obs.Json.to_string (Obs.Trace.to_json ())) with
          | Ok j ->
            (match Obs.Json.member "traceEvents" j with
             | Some events ->
               (match Obs.Json.to_list events with
                | Some l -> List.length l = List.length spans
                | None -> false)
             | None -> false)
          | Error _ -> false
        in
        let ok =
          spans <> []
          && List.for_all (fun s -> s.Obs.Trace.sp_dur >= 0.0) spans
          && json_ok
          && r.Core.Cayman.frontier <> []
        in
        Obs.Trace.reset ();
        ok)

let tests =
  [ qcheck_compiles;
    qcheck_deterministic;
    qcheck_ifconv_preserves;
    qcheck_pst_partition;
    qcheck_flow_sane;
    qcheck_parallel_select_deterministic;
    qcheck_traced_flow ]
