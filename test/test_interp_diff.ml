(* Differential harness for the two interpreter engines: every program —
   random CFGs from the test_memo generator, a richer typed generator
   exercising the staged fast path (int/float/bool banks, div/rem by
   zero, calls, select, uninitialized reads, out-of-bounds accesses),
   and all 28 Table II benchmarks — must behave byte-identically under
   Interp.Reference and Interp.Staged: return values, memories,
   profiles (Marshal bytes), observer event streams, cache stats, and
   exceptions, including the exact Out_of_fuel boundary. *)

module Ir = Cayman_ir
module Sim = Cayman_sim

(* The harness runs raw, possibly malformed programs, so each run
   indexes its program itself. *)
let interp ?engine ?fuel ?cache_config ?observer p =
  Sim.Interp.run ?engine ?fuel ?cache_config ?observer (Ir.Cfg.of_program p)

let staged_analysis p = Cayman_sim.Interp_staged.analyze (Ir.Cfg.of_program p)

(* ------------------------------------------------------------------ *)
(* Running one program under one engine                                *)
(* ------------------------------------------------------------------ *)

(* Observer events, recorded with the values of every register name the
   generators use so the staged engine's typed banks are compared
   against the reference engine's dynamic environment at every block
   boundary. *)
type event =
  | E_block of string * string * (string * Sim.Value.t option) list
  | E_return of string * Sim.Value.t option * (string * Sim.Value.t option) list

let watched_regs =
  [ "t0"; "t1"; "t2"; "t3"; "i"; "c"; (* test_memo generator *)
    "f0"; "f1"; "f2"; "f3"; "n0"; "n1"; "n2"; "n3"; "c0"; "c1"; "k"; "u";
    "x"; "y"; "a"; "w" (* typed generator + helpers *) ]

let snap regs = List.map (fun r -> r, Sim.Interp.read regs r) watched_regs

type outcome = {
  o_ret : Sim.Value.t option option; (* None when the run raised *)
  o_err : string option;
  o_mem : Sim.Memory.t option;
  o_profile_digest : string;
  o_cycles : int;
  o_instrs : int;
  o_cache : Sim.Cache.stats option;
  o_events : event list;
  o_stores : (string * int) list; (* the store log, when observed *)
}

(* The watch points an observed run sets: [watch ~func ~label] for a
   block, with [label = None] for the function's returns. *)
type watch = func:string -> label:string option -> bool

let watch_all : watch = fun ~func:_ ~label:_ -> true

(* An observer that logs no store. *)
let unlogged = fun ~func:_ ~label:_ -> false

let log_entries log =
  List.init (Sim.Memory.Log.length log) (Sim.Memory.Log.get log)

(* The recording observer logs the stores of every block into [log]. *)
let recording_observer (watch : watch) events log =
  { Sim.Interp.obs_block =
      (fun ~func ~label ->
        if watch ~func ~label:(Some label) then
          Some
            { Sim.Interp.w_reads = watched_regs;
              w_run =
                (fun ~regs ~mem:_ ->
                  events := E_block (func, label, snap regs) :: !events) }
        else None);
    obs_return =
      (fun ~func ->
        if watch ~func ~label:None then
          Some
            { Sim.Interp.w_reads = watched_regs;
              w_run =
                (fun ~regs ~value ~mem:_ ->
                  events := E_return (func, value, snap regs) :: !events) }
        else None);
    obs_logged = (fun ~func:_ ~label:_ -> true);
    obs_log = log }

(* [observe] watches every block and every return, unless [watch]
   narrows it. *)
let run_one ?(observe = false) ?(watch = watch_all) ?cache_config ?fuel engine
    p : outcome =
  let events = ref [] and log = Sim.Memory.Log.create () in
  let observer =
    if observe then Some (recording_observer watch events log) else None
  in
  match interp ~engine ?fuel ?cache_config ?observer p with
  | res ->
    { o_ret = Some res.Sim.Interp.return_value;
      o_err = None;
      o_mem = Some res.Sim.Interp.memory;
      o_profile_digest =
        Digest.string (Marshal.to_string res.Sim.Interp.profile []);
      o_cycles = Sim.Profile.total_cycles res.Sim.Interp.profile;
      o_instrs = Sim.Profile.total_instrs res.Sim.Interp.profile;
      o_cache = res.Sim.Interp.cache_stats;
      o_events = List.rev !events;
      o_stores = log_entries log }
  | exception Sim.Interp.Out_of_fuel ->
    { o_ret = None;
      o_err = Some "out_of_fuel";
      o_mem = None;
      o_profile_digest = "";
      o_cycles = 0;
      o_instrs = 0;
      o_cache = None;
      o_events = List.rev !events;
      o_stores = log_entries log }
  | exception Sim.Interp.Runtime_error m ->
    { o_ret = None;
      o_err = Some ("runtime_error: " ^ m);
      o_mem = None;
      o_profile_digest = "";
      o_cycles = 0;
      o_instrs = 0;
      o_cache = None;
      o_events = List.rev !events;
      o_stores = log_entries log }

let value_opt_equal a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> Sim.Value.equal x y
  | None, Some _ | Some _, None -> false

let pp_value_opt = function
  | None -> "<none>"
  | Some v -> Format.asprintf "%a" Sim.Value.pp v

let reads_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (r1, v1) (r2, v2) -> String.equal r1 r2 && value_opt_equal v1 v2)
       a b

let event_equal a b =
  match a, b with
  | E_block (f1, l1, r1), E_block (f2, l2, r2) ->
    String.equal f1 f2 && String.equal l1 l2 && reads_equal r1 r2
  | E_return (f1, v1, r1), E_return (f2, v2, r2) ->
    String.equal f1 f2 && value_opt_equal v1 v2 && reads_equal r1 r2
  | (E_block _ | E_return _), _ -> false

let pp_event = function
  | E_block (f, l, _) -> Printf.sprintf "block %s/%s" f l
  | E_return (f, v, _) -> Printf.sprintf "return %s = %s" f (pp_value_opt v)

(* Compare a reference outcome against a staged outcome; [fail] reports
   with enough context to reproduce. *)
let check_outcomes fail (p : Ir.Program.t) (r : outcome) (s : outcome) =
  let ctx () = Ir.Program.to_string p in
  (match r.o_err, s.o_err with
   | None, None -> ()
   | Some a, Some b ->
     if not (String.equal a b) then
       fail
         (Printf.sprintf "error mismatch: reference=%s staged=%s\n%s" a b
            (ctx ()))
   | Some a, None ->
     fail
       (Printf.sprintf "reference raised %s, staged returned %s\n%s" a
          (pp_value_opt (Option.join s.o_ret))
          (ctx ()))
   | None, Some b ->
     fail
       (Printf.sprintf "staged raised %s, reference returned %s\n%s" b
          (pp_value_opt (Option.join r.o_ret))
          (ctx ())));
  (match r.o_ret, s.o_ret with
   | Some a, Some b when not (value_opt_equal a b) ->
     fail
       (Printf.sprintf "return mismatch: reference=%s staged=%s\n%s"
          (pp_value_opt a) (pp_value_opt b) (ctx ()))
   | _ -> ());
  (match r.o_mem, s.o_mem with
   | Some ma, Some mb ->
     (match Sim.Memory.diff ma mb with
      | [] -> ()
      | (base, detail) :: _ ->
        fail (Printf.sprintf "memory mismatch at %s: %s\n%s" base detail
                (ctx ())))
   | _ -> ());
  if r.o_err = None then begin
    if r.o_cycles <> s.o_cycles || r.o_instrs <> s.o_instrs then
      fail
        (Printf.sprintf
           "profile totals mismatch: reference=(%d cycles, %d instrs) \
            staged=(%d cycles, %d instrs)\n%s"
           r.o_cycles r.o_instrs s.o_cycles s.o_instrs (ctx ()));
    if not (String.equal r.o_profile_digest s.o_profile_digest) then
      fail
        (Printf.sprintf
           "profile Marshal bytes differ (totals agree: %d cycles, %d \
            instrs)\n%s"
           r.o_cycles r.o_instrs (ctx ()))
  end;
  (match r.o_cache, s.o_cache with
   | Some a, Some b when a <> b ->
     fail
       (Printf.sprintf
          "cache stats mismatch: reference=(%d/%d/%d) staged=(%d/%d/%d)\n%s"
          a.Sim.Cache.accesses a.Sim.Cache.hits a.Sim.Cache.misses
          b.Sim.Cache.accesses b.Sim.Cache.hits b.Sim.Cache.misses (ctx ()))
   | Some _, None | None, Some _ ->
     fail "cache stats presence mismatch"
   | _ -> ());
  let la = List.length r.o_events and lb = List.length s.o_events in
  if la <> lb then
    fail
      (Printf.sprintf "observer event count mismatch: %d vs %d\n%s" la lb
         (ctx ()));
  List.iteri
    (fun i (ea, eb) ->
      if not (event_equal ea eb) then
        fail
          (Printf.sprintf "observer event %d mismatch: %s vs %s\n%s" i
             (pp_event ea) (pp_event eb) (ctx ())))
    (List.combine r.o_events s.o_events);
  if r.o_stores <> s.o_stores then
    fail
      (Printf.sprintf "store log mismatch: %d vs %d entries\n%s"
         (List.length r.o_stores) (List.length s.o_stores) (ctx ()))

let qfail msg = QCheck.Test.fail_report msg

let diff_check ?(observe = true) ?cache_config ?fuel (p : Ir.Program.t) =
  let r = run_one ~observe ?cache_config ?fuel Sim.Interp.Reference p in
  let s = run_one ~observe ?cache_config ?fuel Sim.Interp.Staged p in
  check_outcomes qfail p r s;
  true

(* ------------------------------------------------------------------ *)
(* Program generators                                                  *)
(* ------------------------------------------------------------------ *)

(* The Fleet.Genprog CFG generator wrapped into a program. Its functions are
   deliberately type-sloppy (int immediates assigned to float registers,
   loads of float arrays into int contexts, reads of never-written
   registers), so a large share of these programs take the staged
   engine's fallback path — which must then be indistinguishable from
   the reference engine, errors included. *)
let wrap_memo_func (f : Ir.Func.t) : Ir.Program.t =
  Ir.Program.v
    ~globals:
      [ { Ir.Program.gname = "A"; elem = Ir.Types.F32; dims = [ 8 ] };
        { Ir.Program.gname = "B"; elem = Ir.Types.F32; dims = [ 8 ] } ]
    ~funcs:[ { f with Ir.Func.name = "main"; params = [] } ]
    ~main:"main"

let arb_memo_program =
  QCheck.make
    ~print:(fun f -> Ir.Program.to_string (wrap_memo_func f))
    Fleet.Genprog.gen_ir_func

(* A richer, mostly well-typed generator aimed at the staged fast path:
   typed register banks (float f0-f3, int n0-n3, bool c0-c1), integer
   division/remainder with zero denominators, int and float arrays with
   sometimes-out-of-bounds indices, select, calls (int, float, bool and
   void returns), and an intentionally never-written register "u". *)

let freg i = Ir.Instr.reg (Printf.sprintf "f%d" i) Ir.Types.F32
let ireg i = Ir.Instr.reg (Printf.sprintf "n%d" i) Ir.Types.I32
let breg i = Ir.Instr.reg (Printf.sprintf "c%d" i) Ir.Types.Bool
let kreg = Ir.Instr.reg "k" Ir.Types.I32
let ureg = Ir.Instr.reg "u" Ir.Types.I32 (* never written: uninit reads *)

open QCheck.Gen

let gen_iop =
  frequency
    [ 4, map (fun i -> Ir.Instr.Reg (ireg i)) (int_range 0 3);
      1, return (Ir.Instr.Reg kreg);
      1, return (Ir.Instr.Reg ureg);
      3, map (fun n -> Ir.Instr.Imm_int n) (int_range (-3) 9) ]

let gen_fop =
  frequency
    [ 4, map (fun i -> Ir.Instr.Reg (freg i)) (int_range 0 3);
      2,
      map
        (fun n -> Ir.Instr.Imm_float (float_of_int n /. 4.0))
        (int_range (-8) 8) ]

let gen_bop =
  frequency
    [ 3, map (fun i -> Ir.Instr.Reg (breg i)) (int_range 0 1);
      1, map (fun b -> Ir.Instr.Imm_bool b) bool ]

(* Indices reach one past either end so bounds-fault parity (message
   bytes included) is exercised alongside the hoisted in-bounds case. *)
let gen_idx =
  frequency
    [ 2, map (fun n -> Ir.Instr.Imm_int n) (int_range (-1) 8);
      2, map (fun i -> Ir.Instr.Reg (ireg i)) (int_range 0 3);
      1, return (Ir.Instr.Reg kreg) ]

let gen_fbase = map (fun b -> if b then "A" else "B") bool

let gen_typed_instr =
  frequency
    [ 2, map2 (fun d a -> Ir.Instr.Assign (ireg d, a)) (int_range 0 3) gen_iop;
      1, map2 (fun d a -> Ir.Instr.Assign (freg d, a)) (int_range 0 3) gen_fop;
      3,
      (int_range 0 3 >>= fun d ->
       oneofl
         [ Ir.Op.Add; Ir.Op.Sub; Ir.Op.Mul; Ir.Op.Div; Ir.Op.Rem;
           Ir.Op.And; Ir.Op.Or; Ir.Op.Xor ]
       >>= fun op ->
       map2 (fun a b -> Ir.Instr.Binary (ireg d, op, a, b)) gen_iop gen_iop);
      2,
      (int_range 0 3 >>= fun d ->
       oneofl [ Ir.Op.Fadd; Ir.Op.Fsub; Ir.Op.Fmul; Ir.Op.Fdiv ]
       >>= fun op ->
       map2 (fun a b -> Ir.Instr.Binary (freg d, op, a, b)) gen_fop gen_fop);
      2,
      (int_range 0 1 >>= fun d ->
       oneofl [ Ir.Op.Lt; Ir.Op.Le; Ir.Op.Eq; Ir.Op.Ne ] >>= fun op ->
       map2 (fun a b -> Ir.Instr.Compare (breg d, op, a, b)) gen_iop gen_iop);
      1,
      (int_range 0 1 >>= fun d ->
       oneofl [ Ir.Op.Flt; Ir.Op.Fge ] >>= fun op ->
       map2 (fun a b -> Ir.Instr.Compare (breg d, op, a, b)) gen_fop gen_fop);
      1,
      (int_range 0 3 >>= fun d ->
       map3
         (fun c a b -> Ir.Instr.Select (ireg d, c, a, b))
         gen_bop gen_iop gen_iop);
      1,
      map2 (fun d a -> Ir.Instr.Unary (ireg d, Ir.Op.Neg, a)) (int_range 0 3)
        gen_iop;
      1,
      map2
        (fun d a -> Ir.Instr.Unary (freg d, Ir.Op.Float_of_int, a))
        (int_range 0 3) gen_iop;
      2,
      (int_range 0 3 >>= fun d ->
       map2
         (fun base index -> Ir.Instr.Load (freg d, { Ir.Instr.base; index }))
         gen_fbase gen_idx);
      2,
      map2
        (fun index d -> Ir.Instr.Load (ireg d, { Ir.Instr.base = "N"; index }))
        gen_idx (int_range 0 3);
      2,
      (gen_fbase >>= fun base ->
       map2
         (fun index v -> Ir.Instr.Store ({ Ir.Instr.base; index }, v))
         gen_idx gen_fop);
      2,
      map2
        (fun index v -> Ir.Instr.Store ({ Ir.Instr.base = "N"; index }, v))
        gen_idx gen_iop;
      1,
      (int_range 0 3 >>= fun d ->
       map2
         (fun a y -> Ir.Instr.Call (Some (ireg d), "g", [ a; y ]))
         gen_iop gen_fop);
      1,
      (int_range 0 3 >>= fun d ->
       map (fun y -> Ir.Instr.Call (Some (freg d), "q", [ y ])) gen_fop);
      1,
      (int_range 0 1 >>= fun d ->
       map (fun a -> Ir.Instr.Call (Some (breg d), "p", [ a ])) gen_iop);
      1, map (fun a -> Ir.Instr.Call (None, "v", [ a ])) gen_iop ]

let gen_typed_body = list_size (int_range 1 5) gen_typed_instr

type shape = Straight | Diamond | Loop

let gen_typed_func =
  oneofl [ Straight; Diamond; Loop ] >>= fun shape ->
  gen_typed_body >>= fun b1 ->
  gen_typed_body >>= fun b2 ->
  gen_typed_body >>= fun b3 ->
  gen_iop >>= fun cmp_rhs ->
  gen_iop >>= fun retv ->
  let block label instrs term = Ir.Block.v ~label ~instrs ~term in
  let ret = Ir.Instr.Return (Some retv) in
  let blocks =
    match shape with
    | Straight -> [ block "entry" b1 ret ]
    | Diamond ->
      [ block "entry"
          (b1
          @ [ Ir.Instr.Compare
                (breg 0, Ir.Op.Lt, Ir.Instr.Reg (ireg 0), cmp_rhs) ])
          (Ir.Instr.Branch (Ir.Instr.Reg (breg 0), "then", "else"));
        block "then" b2 (Ir.Instr.Jump "join");
        block "else" b3 (Ir.Instr.Jump "join");
        block "join" [] ret ]
    | Loop ->
      [ block "entry"
          (Ir.Instr.Assign (kreg, Ir.Instr.Imm_int 0) :: b1)
          (Ir.Instr.Jump "head");
        block "head"
          [ Ir.Instr.Compare
              (breg 0, Ir.Op.Lt, Ir.Instr.Reg kreg, Ir.Instr.Imm_int 6) ]
          (Ir.Instr.Branch (Ir.Instr.Reg (breg 0), "body", "exit"));
        block "body"
          (b2
          @ [ Ir.Instr.Binary
                (kreg, Ir.Op.Add, Ir.Instr.Reg kreg, Ir.Instr.Imm_int 1) ])
          (Ir.Instr.Jump "head");
        block "exit" b3 ret ]
  in
  return (Ir.Func.v ~name:"main" ~params:[] ~ret:(Some Ir.Types.I32) ~blocks)

(* Helper callees: [g] divides by a caller-controlled value (so runtime
   errors unwind through staged call frames), [q]/[p]/[v] cover float,
   bool and void return kinds. *)
let helper_funcs =
  let x = Ir.Instr.reg "x" Ir.Types.I32 in
  let y = Ir.Instr.reg "y" Ir.Types.F32 in
  let a = Ir.Instr.reg "a" Ir.Types.I32 in
  let w = Ir.Instr.reg "w" Ir.Types.I32 in
  let c = Ir.Instr.reg "c0" Ir.Types.Bool in
  let f0 = Ir.Instr.reg "f0" Ir.Types.F32 in
  let block label instrs term = Ir.Block.v ~label ~instrs ~term in
  [ Ir.Func.v ~name:"g" ~params:[ x; y ] ~ret:(Some Ir.Types.I32)
      ~blocks:
        [ block "entry"
            [ Ir.Instr.Unary (w, Ir.Op.Int_of_float, Ir.Instr.Reg y);
              Ir.Instr.Binary
                (w, Ir.Op.Div, Ir.Instr.Imm_int 12, Ir.Instr.Reg x);
              Ir.Instr.Binary (w, Ir.Op.Add, Ir.Instr.Reg w, Ir.Instr.Reg x) ]
            (Ir.Instr.Return (Some (Ir.Instr.Reg w))) ];
    Ir.Func.v ~name:"q" ~params:[ y ] ~ret:(Some Ir.Types.F32)
      ~blocks:
        [ block "entry"
            [ Ir.Instr.Binary
                (f0, Ir.Op.Fmul, Ir.Instr.Reg y, Ir.Instr.Imm_float 2.0) ]
            (Ir.Instr.Return (Some (Ir.Instr.Reg f0))) ];
    Ir.Func.v ~name:"p" ~params:[ a ] ~ret:(Some Ir.Types.Bool)
      ~blocks:
        [ block "entry"
            [ Ir.Instr.Compare
                (c, Ir.Op.Lt, Ir.Instr.Reg a, Ir.Instr.Imm_int 4) ]
            (Ir.Instr.Return (Some (Ir.Instr.Reg c))) ];
    Ir.Func.v ~name:"v" ~params:[ a ] ~ret:None
      ~blocks:
        [ block "entry"
            [ Ir.Instr.Store
                ({ Ir.Instr.base = "N"; index = Ir.Instr.Imm_int 0 },
                 Ir.Instr.Reg a) ]
            (Ir.Instr.Return None) ] ]

let wrap_typed_func (f : Ir.Func.t) : Ir.Program.t =
  Ir.Program.v
    ~globals:
      [ { Ir.Program.gname = "A"; elem = Ir.Types.F32; dims = [ 8 ] };
        { Ir.Program.gname = "B"; elem = Ir.Types.F32; dims = [ 8 ] };
        { Ir.Program.gname = "N"; elem = Ir.Types.I32; dims = [ 8 ] } ]
    ~funcs:(f :: helper_funcs)
    ~main:"main"

let arb_typed_program =
  QCheck.make
    ~print:(fun f -> Ir.Program.to_string (wrap_typed_func f))
    gen_typed_func

(* ------------------------------------------------------------------ *)
(* QCheck differential properties                                      *)
(* ------------------------------------------------------------------ *)

let test_diff_memo =
  Testutil.qtest ~count:300 "memo-generator programs agree" arb_memo_program
    (fun f -> diff_check (wrap_memo_func f))

let test_diff_typed =
  Testutil.qtest ~count:300 "typed-generator programs agree"
    arb_typed_program
    (fun f -> diff_check (wrap_typed_func f))

let test_diff_cache =
  Testutil.qtest ~count:100 "cache simulation agrees" arb_typed_program
    (fun f ->
      diff_check ~observe:false ~cache_config:Sim.Cache.default_l1
        (wrap_typed_func f))

(* Exact fuel boundary: a run consuming exactly N instructions+blocks
   must succeed at fuel=N and N+1 and raise Out_of_fuel at fuel=N-1,
   identically on both engines. N is reconstructed from the reference
   profile: total instructions plus one unit per block entry. *)
let fuel_needed (p : Ir.Program.t) (profile : Sim.Profile.t) =
  let block_entries =
    List.fold_left
      (fun acc (f : Ir.Func.t) ->
        Array.fold_left ( + ) acc
          (Sim.Profile.find profile f.Ir.Func.name).Sim.Profile.blocks)
      0 p.Ir.Program.funcs
  in
  Sim.Profile.total_instrs profile + block_entries

let fuel_boundary_holds (p : Ir.Program.t) =
  match interp ~engine:Sim.Interp.Reference p with
  | exception (Sim.Interp.Runtime_error _ | Sim.Interp.Out_of_fuel) ->
    true (* aborting programs are covered by the other properties *)
  | res ->
    let n = fuel_needed p res.Sim.Interp.profile in
    let at fuel engine =
      match interp ~engine ~fuel p with
      | _ -> `Done
      | exception Sim.Interp.Out_of_fuel -> `Fuel
    in
    if at (n - 1) Sim.Interp.Reference <> `Fuel then
      QCheck.Test.fail_reportf "reference: fuel %d did not exhaust" (n - 1);
    if at n Sim.Interp.Reference <> `Done then
      QCheck.Test.fail_reportf "reference: fuel %d did not complete" n;
    List.for_all
      (fun fuel -> diff_check ~observe:false ~fuel p)
      [ n - 1; n; n + 1 ]

let test_fuel_boundary =
  Testutil.qtest ~count:150 "Out_of_fuel boundary is engine-independent"
    arb_typed_program
    (fun f -> fuel_boundary_holds (wrap_typed_func f))

(* A random subset of the watch points: each block and each function's
   returns, in or out by a hash of [seed]. *)
let watch_subset seed : watch =
 fun ~func ~label -> Hashtbl.hash (seed, func, label) mod 3 = 0

let event_watched (watch : watch) = function
  | E_block (func, label, _) -> watch ~func ~label:(Some label)
  | E_return (func, _, _) -> watch ~func ~label:None

(* Watching a subset changes nothing but which events fire: under both
   engines the stream equals the full-observation stream filtered to
   the subset, register reads included, with the same outcome. Besides
   an unlimited run, a run that completes is replayed with fuel running
   out at a random point and at its last block, so the exact
   Out_of_fuel boundary and the events before it are covered. *)
let watch_subset_holds (p : Ir.Program.t) seed frac =
  let watch = watch_subset seed in
  let fuels =
    match interp ~engine:Sim.Interp.Reference p with
    | exception (Sim.Interp.Runtime_error _ | Sim.Interp.Out_of_fuel) ->
      [ None ]
    | res ->
      let n = fuel_needed p res.Sim.Interp.profile in
      [ None; Some (int_of_float (frac *. float_of_int n)); Some (n - 1) ]
  in
  List.for_all
    (fun fuel ->
      let full = run_one ~observe:true ?fuel Sim.Interp.Reference p in
      let want =
        { full with o_events = List.filter (event_watched watch) full.o_events }
      in
      List.iter
        (fun engine ->
          check_outcomes qfail p want
            (run_one ~observe:true ~watch ?fuel engine p))
        [ Sim.Interp.Reference; Sim.Interp.Staged ];
      true)
    fuels

let test_watch_subset =
  Testutil.qtest ~count:200
    "a watched subset sees the filtered full stream on both engines"
    (QCheck.triple arb_typed_program QCheck.int
       (QCheck.float_bound_exclusive 1.0))
    (fun (f, seed, frac) -> watch_subset_holds (wrap_typed_func f) seed frac)

let test_watch_subset_memo =
  Testutil.qtest ~count:100
    "a watched subset agrees on memo-generator programs"
    (QCheck.pair arb_memo_program QCheck.int)
    (fun (f, seed) -> watch_subset_holds (wrap_memo_func f) seed 0.5)

(* ------------------------------------------------------------------ *)
(* Targeted parity cases                                               *)
(* ------------------------------------------------------------------ *)

let straight ?(globals = []) instrs ret =
  Ir.Program.v ~globals
    ~funcs:
      [ Ir.Func.v ~name:"main" ~params:[] ~ret:(Some Ir.Types.I32)
          ~blocks:[ Ir.Block.v ~label:"entry" ~instrs ~term:ret ] ]
    ~main:"main"

let expect_error name p expected =
  List.iter
    (fun engine ->
      match interp ~engine p with
      | _ ->
        Alcotest.failf "%s (%s): expected Runtime_error" name
          (Sim.Interp.engine_name engine)
      | exception Sim.Interp.Runtime_error m ->
        Alcotest.(check string)
          (name ^ " @ " ^ Sim.Interp.engine_name engine)
          expected m)
    [ Sim.Interp.Reference; Sim.Interp.Staged ]

let n0 = Ir.Instr.reg "n0" Ir.Types.I32

let test_error_messages () =
  expect_error "div by zero"
    (straight
       [ Ir.Instr.Binary (n0, Ir.Op.Div, Ir.Instr.Imm_int 5, Ir.Instr.Imm_int 0) ]
       (Ir.Instr.Return (Some (Ir.Instr.Imm_int 0))))
    "integer division by zero";
  expect_error "rem by zero"
    (straight
       [ Ir.Instr.Binary (n0, Ir.Op.Rem, Ir.Instr.Imm_int 5, Ir.Instr.Imm_int 0) ]
       (Ir.Instr.Return (Some (Ir.Instr.Imm_int 0))))
    "integer remainder by zero";
  expect_error "uninitialized register"
    (straight []
       (Ir.Instr.Return (Some (Ir.Instr.Reg n0))))
    "uninitialized register %n0 in main";
  (* Both operands uninitialized: the reference engine evaluates the
     second operand first (right-to-left application), so its name must
     appear in the message — on both engines. *)
  let u1 = Ir.Instr.reg "u1" Ir.Types.I32 in
  let u2 = Ir.Instr.reg "u2" Ir.Types.I32 in
  expect_error "binary operand order"
    (straight
       [ Ir.Instr.Binary (n0, Ir.Op.Add, Ir.Instr.Reg u1, Ir.Instr.Reg u2) ]
       (Ir.Instr.Return (Some (Ir.Instr.Imm_int 0))))
    "uninitialized register %u2 in main";
  let gn = [ { Ir.Program.gname = "N"; elem = Ir.Types.I32; dims = [ 8 ] } ] in
  expect_error "constant index out of bounds"
    (straight ~globals:gn
       [ Ir.Instr.Load (n0, { Ir.Instr.base = "N"; index = Ir.Instr.Imm_int 9 }) ]
       (Ir.Instr.Return (Some (Ir.Instr.Imm_int 0))))
    "memory fault: index 9 out of bounds for N[8]";
  (* Store evaluates its value before the bounds check, so an
     uninitialized stored value wins over the bad index. *)
  expect_error "store value before bounds"
    (straight ~globals:gn
       [ Ir.Instr.Store
           ({ Ir.Instr.base = "N"; index = Ir.Instr.Imm_int 9 },
            Ir.Instr.Reg u1) ]
       (Ir.Instr.Return (Some (Ir.Instr.Imm_int 0))))
    "uninitialized register %u1 in main"

(* ------------------------------------------------------------------ *)
(* Specialised instruction shapes                                      *)
(* ------------------------------------------------------------------ *)

let block label instrs term = Ir.Block.v ~label ~instrs ~term
let reg_op r = Ir.Instr.Reg r
let imm n = Ir.Instr.Imm_int n

let typed_globals =
  [ { Ir.Program.gname = "A"; elem = Ir.Types.F32; dims = [ 8 ] };
    { Ir.Program.gname = "B"; elem = Ir.Types.F32; dims = [ 8 ] };
    { Ir.Program.gname = "N"; elem = Ir.Types.I32; dims = [ 8 ] } ]

(* A loop whose every read is proven defined, so each instruction takes
   its register/register or register/immediate closure: float and int
   loads and stores indexed by a register, float and int arithmetic, a
   float compare feeding a float select, and a branch on a register. *)
let spec_kernel =
  let k = kreg and n0 = ireg 0 and n1 = ireg 1 and n2 = ireg 2 in
  let f0 = freg 0 and f1 = freg 1 and f2 = freg 2 and f3 = freg 3 in
  let c0 = breg 0 and c1 = breg 1 in
  let at base = { Ir.Instr.base; index = reg_op k } in
  Ir.Program.v ~globals:typed_globals
    ~funcs:
      [ Ir.Func.v ~name:"main" ~params:[] ~ret:(Some Ir.Types.I32)
          ~blocks:
            [ block "entry"
                [ Ir.Instr.Assign (k, imm 0);
                  Ir.Instr.Assign (f0, Ir.Instr.Imm_float 0.5);
                  Ir.Instr.Assign (n0, imm 3) ]
                (Ir.Instr.Jump "head");
              block "head"
                [ Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op k, imm 8) ]
                (Ir.Instr.Branch (reg_op c0, "body", "exit"));
              block "body"
                [ Ir.Instr.Load (f1, at "A");
                  Ir.Instr.Binary
                    (f2, Ir.Op.Fmul, reg_op f1, Ir.Instr.Imm_float 2.0);
                  Ir.Instr.Binary (f3, Ir.Op.Fadd, reg_op f2, reg_op f0);
                  Ir.Instr.Store (at "B", reg_op f3);
                  Ir.Instr.Store (at "A", reg_op f3);
                  Ir.Instr.Load (n1, at "N");
                  Ir.Instr.Binary (n2, Ir.Op.Mul, reg_op n1, reg_op k);
                  Ir.Instr.Binary (n2, Ir.Op.Add, reg_op n2, imm 7);
                  Ir.Instr.Store (at "N", reg_op n2);
                  Ir.Instr.Compare (c1, Ir.Op.Flt, reg_op f3, reg_op f0);
                  Ir.Instr.Select (f0, reg_op c1, reg_op f3, reg_op f2);
                  Ir.Instr.Binary (n0, Ir.Op.Rem, reg_op n0, reg_op n2);
                  Ir.Instr.Binary (k, Ir.Op.Add, reg_op k, imm 1) ]
                (Ir.Instr.Jump "head");
              block "exit" [] (Ir.Instr.Return (Some (reg_op n0))) ] ]
    ~main:"main"

let alco_fail msg = Alcotest.fail msg

(* Out-of-bounds accesses whose index is a proven register fault with
   the reference engine's exact message, loads and stores, int and
   float arrays, below and above the bounds. *)
let test_proven_index_faults () =
  let n1 = ireg 1 in
  let at base = { Ir.Instr.base; index = reg_op n1 } in
  let case name idx instr expected =
    expect_error name
      (straight ~globals:typed_globals
         [ Ir.Instr.Assign (n1, imm idx); instr ]
         (Ir.Instr.Return (Some (imm 0))))
      expected
  in
  case "int load past end" 8 (Ir.Instr.Load (ireg 0, at "N"))
    "memory fault: index 8 out of bounds for N[8]";
  case "int store below start" (-1) (Ir.Instr.Store (at "N", imm 5))
    "memory fault: index -1 out of bounds for N[8]";
  case "float load below start" (-1) (Ir.Instr.Load (freg 0, at "A"))
    "memory fault: index -1 out of bounds for A[8]";
  case "float store past end" 9
    (Ir.Instr.Store (at "B", Ir.Instr.Imm_float 1.0))
    "memory fault: index 9 out of bounds for B[8]"

(* [n1] is defined on the [then] path only and read at the join, so the
   read keeps its def-byte check and [then] must keep writing the def
   byte even though the run has no observer. [n0] is proven at the join
   and never checked, so its def byte is elided; [n2] is never written
   before the join. *)
let one_path_def taken =
  let n0 = ireg 0 and n1 = ireg 1 and n2 = ireg 2 and c0 = breg 0 in
  Ir.Program.v ~globals:typed_globals
    ~funcs:
      [ Ir.Func.v ~name:"main" ~params:[] ~ret:(Some Ir.Types.I32)
          ~blocks:
            [ block "entry"
                [ Ir.Instr.Assign (n0, imm (if taken then 1 else 9));
                  Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op n0, imm 5) ]
                (Ir.Instr.Branch (reg_op c0, "then", "else"));
              block "then"
                [ Ir.Instr.Assign (n1, imm 7) ]
                (Ir.Instr.Jump "join");
              block "else" [] (Ir.Instr.Jump "join");
              block "join"
                [ Ir.Instr.Binary (n2, Ir.Op.Add, reg_op n1, reg_op n0) ]
                (Ir.Instr.Return (Some (reg_op n2))) ] ]
    ~main:"main"

let test_one_path_def () =
  List.iter
    (fun observe ->
      List.iter
        (fun taken ->
          let p = one_path_def taken in
          check_outcomes alco_fail p
            (run_one ~observe Sim.Interp.Reference p)
            (run_one ~observe Sim.Interp.Staged p))
        [ true; false ])
    [ false; true ];
  (match interp ~engine:Sim.Interp.Staged (one_path_def true) with
   | { Sim.Interp.return_value = Some (Sim.Value.Vint 8); _ } -> ()
   | _ -> Alcotest.fail "defined path must return 8");
  (* A watch point at [join] alone: the proof answers for [n0], the def
     bytes for [n1] and [n2], exactly as the reference engine's
     environment does. *)
  let at_join ~func:_ ~label = label = Some "join" in
  let value =
    Alcotest.testable (Fmt.of_to_string pp_value_opt) value_opt_equal
  in
  List.iter
    (fun (taken, n0, n1) ->
      let p = one_path_def taken in
      let r = run_one ~observe:true ~watch:at_join Sim.Interp.Reference p in
      let s = run_one ~observe:true ~watch:at_join Sim.Interp.Staged p in
      check_outcomes alco_fail p r s;
      match s.o_events with
      | [ E_block ("main", "join", reads) ] ->
        List.iter
          (fun (reg, want) ->
            Alcotest.check value
              (Printf.sprintf "%s at join (taken=%b)" reg taken)
              want (List.assoc reg reads))
          [ "n0", Some n0; "n1", n1; "n2", None ]
      | evs ->
        Alcotest.failf "expected one event at join, got %d" (List.length evs))
    [ true, Sim.Value.Vint 1, Some (Sim.Value.Vint 7);
      false, Sim.Value.Vint 9, None ];
  expect_error "read of a one-path definition" (one_path_def false)
    "uninitialized register %n1 in main"

(* Control-flow graphs the staged engine's analysis rejects through the
   function's [Ir.Cfg] index: a label given to two blocks, a jump or a
   branch to a label no block has, and a function with no blocks; and a
   name given to two functions, which has one counter set in the
   profile and so one function to run (the last, on both engines). Each
   program falls back to the reference engine, so both engines agree on
   the outcome, including any exception the reference engine raises for
   the malformed graph. *)
let malformed_cfgs =
  let n0 = ireg 0 and c0 = breg 0 in
  let main blocks =
    Ir.Func.v ~name:"main" ~params:[] ~ret:(Some Ir.Types.I32) ~blocks
  in
  let prog funcs = Ir.Program.v ~globals:typed_globals ~funcs ~main:"main" in
  [ ( "duplicate label",
      prog
        [ main
            [ block "entry" [ Ir.Instr.Assign (n0, imm 1) ] (Ir.Instr.Jump "b");
              block "b" [] (Ir.Instr.Return (Some (reg_op n0)));
              block "b" [] (Ir.Instr.Return (Some (imm 2))) ] ] );
    ( "jump to an unknown label",
      prog [ main [ block "entry" [] (Ir.Instr.Jump "nowhere") ] ] );
    ( "branch with one unknown target",
      prog
        [ main
            [ block "entry"
                [ Ir.Instr.Assign (c0, Ir.Instr.Imm_bool true) ]
                (Ir.Instr.Branch (reg_op c0, "ok", "nowhere"));
              block "ok" [] (Ir.Instr.Return (Some (imm 1))) ] ] );
    ( "function with no blocks",
      prog
        [ main [ block "entry" [] (Ir.Instr.Return (Some (imm 0))) ];
          Ir.Func.v ~name:"empty" ~params:[] ~ret:None ~blocks:[] ] );
    ( "function name given twice",
      let f k =
        Ir.Func.v ~name:"f" ~params:[] ~ret:(Some Ir.Types.I32)
          ~blocks:[ block "entry" [] (Ir.Instr.Return (Some (imm k))) ]
      in
      prog
        [ main
            [ block "entry"
                [ Ir.Instr.Call (Some n0, "f", []) ]
                (Ir.Instr.Return (Some (reg_op n0))) ];
          f 1;
          f 2 ] ) ]

let test_malformed_cfgs () =
  List.iter
    (fun (name, p) ->
      if Option.is_some (staged_analysis p) then
        Alcotest.failf "%s: the staged analysis must reject it" name;
      let run engine =
        match run_one ~observe:true engine p with
        | o -> Ok o
        | exception e -> Error (Printexc.to_string e)
      in
      match run Sim.Interp.Reference, run Sim.Interp.Staged with
      | Ok r, Ok s -> check_outcomes alco_fail p r s
      | Error r, Error s -> Alcotest.(check string) name r s
      | Ok _, Error e | Error e, Ok _ ->
        Alcotest.failf "%s: only one engine raised %s" name e)
    malformed_cfgs

(* A reachable loop header with an unreachable predecessor: the latch
   [Lower.lower_loop] leaves behind when the body always returns. The
   must-defined facts start that latch from the parameters, so [a] and
   [w], written before the loop, are not proven at [head]: its read of
   [a] keeps a check and [w] keeps its def byte for a watch point at
   [head]. The latch reads [u], which nothing writes, and never runs. *)
let dead_latch =
  let a = Ir.Instr.reg "a" Ir.Types.I32 in
  let w = Ir.Instr.reg "w" Ir.Types.I32 in
  let c0 = breg 0 and n1 = ireg 1 in
  Ir.Program.v ~globals:typed_globals
    ~funcs:
      [ Ir.Func.v ~name:"main" ~params:[] ~ret:(Some Ir.Types.I32)
          ~blocks:
            [ block "entry"
                [ Ir.Instr.Assign (a, imm 7); Ir.Instr.Assign (w, imm 3) ]
                (Ir.Instr.Jump "head");
              block "head"
                [ Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op a, imm 10) ]
                (Ir.Instr.Branch (reg_op c0, "body", "exit"));
              block "body" [] (Ir.Instr.Return (Some (reg_op a)));
              block "latch"
                [ Ir.Instr.Binary (n1, Ir.Op.Add, reg_op ureg, imm 1) ]
                (Ir.Instr.Jump "head");
              block "exit" [] (Ir.Instr.Return (Some (imm 0))) ] ]
    ~main:"main"

let test_dead_latch () =
  let p = dead_latch in
  let cfg = Ir.Cfg.of_func (Ir.Program.func_exn p "main") in
  Alcotest.(check int) "latch is unreachable" (-1)
    cfg.Ir.Cfg.rpo_index.(Ir.Cfg.id cfg "latch");
  if Option.is_none (staged_analysis p) then
    Alcotest.fail "the dead-latch program must take the staged path";
  let n =
    let res = interp ~engine:Sim.Interp.Reference p in
    fuel_needed p res.Sim.Interp.profile
  in
  let at_head ~func:_ ~label = label = Some "head" in
  List.iter
    (fun fuel ->
      List.iter
        (fun observe ->
          check_outcomes alco_fail p
            (run_one ~observe ~watch:at_head ?fuel Sim.Interp.Reference p)
            (run_one ~observe ~watch:at_head ?fuel Sim.Interp.Staged p))
        [ false; true ])
    [ None; Some (n - 1); Some n ];
  let value =
    Alcotest.testable (Fmt.of_to_string pp_value_opt) value_opt_equal
  in
  let staged = run_one ~observe:true ~watch:at_head Sim.Interp.Staged p in
  match staged.o_events with
  | [ E_block ("main", "head", reads) ] ->
    List.iter
      (fun (reg, want) ->
        Alcotest.check value (reg ^ " at head") want (List.assoc reg reads))
      [ "a", Some (Sim.Value.Vint 7); "w", Some (Sim.Value.Vint 3); "u", None ]
  | evs ->
    Alcotest.failf "expected one event at head, got %d" (List.length evs)

(* With no observer every def byte of [spec_kernel] is elided (all its
   reads are proven); an observed run must still see every register the
   reference engine sees, at every block entry and return. *)
let test_observed_elided_defs () =
  let p = spec_kernel in
  let r = run_one ~observe:true Sim.Interp.Reference p in
  let s = run_one ~observe:true Sim.Interp.Staged p in
  check_outcomes alco_fail p r s;
  let defined_reads =
    List.fold_left
      (fun acc ev ->
        match ev with
        | E_block (_, _, reads) | E_return (_, _, reads) ->
          acc + List.length (List.filter (fun (_, v) -> v <> None) reads))
      0 s.o_events
  in
  if defined_reads = 0 then Alcotest.fail "observer saw no defined register"

let test_spec_cache () =
  let p = spec_kernel in
  let r = run_one ~cache_config:Sim.Cache.default_l1 Sim.Interp.Reference p in
  let s = run_one ~cache_config:Sim.Cache.default_l1 Sim.Interp.Staged p in
  check_outcomes alco_fail p r s;
  match s.o_cache with
  | Some st when st.Sim.Cache.accesses > 0 -> ()
  | Some _ | None -> Alcotest.fail "expected cache accesses"

let test_spec_fuel_boundary () =
  (match interp ~engine:Sim.Interp.Reference spec_kernel with
   | _ -> ()
   | exception e ->
     Alcotest.failf "kernel must complete: %s" (Printexc.to_string e));
  Alcotest.(check bool) "boundary holds" true (fuel_boundary_holds spec_kernel)

(* The staged hot path allocates nothing per instruction: a call-free
   kernel with int and float arithmetic and float loads and stores
   allocates the same minor words, up to a small constant, whether its
   outer loop runs [reps] or [4 * reps] times. *)
let alloc_kernel reps =
  Cayman_frontend.Lower.compile
    (Printf.sprintf
       {|const int M = 64;
         const int R = %d;
         float a[M]; float b[M];
         int main() {
           int s = 0;
           for (int r = 0; r < R; r++) {
             for (int i = 0; i < M; i++) {
               a[i] = a[i] * 0.5 + b[i] + (float)i;
               b[i] = a[i] - 1.0;
               s = s + i * 3;
             }
           }
           return s;
         }|}
       reps)

let staged_minor_words checked =
  let p = (checked : Ir.Validate.t :> Ir.Cfg.program) in
  (match Cayman_sim.Interp_staged.analyze p with
   | Some _ -> ()
   | None -> Alcotest.fail "alloc kernel fails the staged analysis");
  let before = Gc.minor_words () in
  ignore (Sim.Interp.run ~engine:Sim.Interp.Staged p : Sim.Interp.result);
  Gc.minor_words () -. before

let test_hot_path_no_alloc () =
  let small = alloc_kernel 50 and large = alloc_kernel 200 in
  ignore (staged_minor_words small : float);
  let w_small = staged_minor_words small in
  let w_large = staged_minor_words large in
  let growth = w_large -. w_small in
  if growth > 256.0 then
    Alcotest.failf
      "staged run allocates per instruction: %.0f minor words at R=50, %.0f \
       at R=200"
      w_small w_large

(* ------------------------------------------------------------------ *)
(* Block chains and fused compare-and-branch                           *)
(* ------------------------------------------------------------------ *)

(* Both engines, unobserved and with every block and return watched (or
   the points [watch] picks), at [fuel] (unlimited by default), must
   agree. *)
let agree ?fuel ?watch name p =
  List.iter
    (fun observe ->
      check_outcomes
        (fun m -> Alcotest.failf "%s (observe=%b): %s" name observe m)
        p
        (run_one ~observe ?watch ?fuel Sim.Interp.Reference p)
        (run_one ~observe ?watch ?fuel Sim.Interp.Staged p))
    [ false; true ]

let main_i32 ?(globals = typed_globals) ?(funcs = []) blocks =
  Ir.Program.v ~globals
    ~funcs:
      (Ir.Func.v ~name:"main" ~params:[] ~ret:(Some Ir.Types.I32) ~blocks
      :: funcs)
    ~main:"main"

let staged_return name p want =
  match interp ~engine:Sim.Interp.Staged p with
  | { Sim.Interp.return_value = Some (Sim.Value.Vint n); _ } ->
    Alcotest.(check int) name want n
  | _ -> Alcotest.failf "%s: expected an int return" name
  | exception e -> Alcotest.failf "%s: %s" name (Printexc.to_string e)

(* A counted loop whose header ends in an integer compare feeding its
   branch, so the header compiles to one fused terminator link. The
   compare's register [c0] is read again in both successors ([body] by
   a select, [exit] by another), and a watch point at [body] reads it
   proven while one at [head] reads it through its def byte: it is not
   must-defined at [head], whose first entry comes from [entry]. The
   run returns 0 + 1 + 2 = 3 only if the fused link writes [c0]. *)
let fused_loop =
  let k = kreg and c0 = breg 0 and n0 = ireg 0 and n1 = ireg 1 in
  let n2 = ireg 2 in
  main_i32
    [ block "entry"
        [ Ir.Instr.Assign (k, imm 0); Ir.Instr.Assign (n1, imm 0) ]
        (Ir.Instr.Jump "head");
      block "head"
        [ Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op k, imm 3) ]
        (Ir.Instr.Branch (reg_op c0, "body", "exit"));
      block "body"
        [ Ir.Instr.Select (n0, reg_op c0, reg_op k, imm 99);
          Ir.Instr.Binary (n1, Ir.Op.Add, reg_op n1, reg_op n0);
          Ir.Instr.Binary (k, Ir.Op.Add, reg_op k, imm 1) ]
        (Ir.Instr.Jump "head");
      block "exit"
        [ Ir.Instr.Select (n2, reg_op c0, imm 1000, reg_op n1) ]
        (Ir.Instr.Return (Some (reg_op n2))) ]

let test_fused_register_read () =
  agree "fused loop" fused_loop;
  staged_return "fused loop returns" fused_loop 3;
  let s = run_one ~observe:true Sim.Interp.Staged fused_loop in
  let c0_at label =
    List.filter_map
      (function
        | E_block (_, l, reads) when String.equal l label ->
          Some (List.assoc "c0" reads)
        | E_block _ | E_return _ -> None)
      s.o_events
  in
  let value =
    Alcotest.testable (Fmt.of_to_string pp_value_opt) value_opt_equal
  in
  let t = Some (Sim.Value.Vbool true) and f = Some (Sim.Value.Vbool false) in
  Alcotest.(check (list value)) "c0 at head" [ None; t; t; t ] (c0_at "head");
  Alcotest.(check (list value)) "c0 at body" [ t; t; t ] (c0_at "body");
  Alcotest.(check (list value)) "c0 at exit" [ f ] (c0_at "exit")

(* A fused compare whose operands [Must_defined] does not prove keeps
   their checks, in the reference engine's order: [b] before [a]. *)
let test_fused_unproven_operand () =
  let u1 = Ir.Instr.reg "u1" Ir.Types.I32 in
  let u2 = Ir.Instr.reg "u2" Ir.Types.I32 in
  let c0 = breg 0 in
  let fused a b =
    main_i32
      [ block "entry"
          [ Ir.Instr.Compare (c0, Ir.Op.Le, a, b) ]
          (Ir.Instr.Branch (reg_op c0, "t", "f"));
        block "t" [] (Ir.Instr.Return (Some (imm 1)));
        block "f" [] (Ir.Instr.Return (Some (imm 2))) ]
  in
  expect_error "fused compare, both operands unproven"
    (fused (reg_op u1) (reg_op u2))
    "uninitialized register %u2 in main";
  expect_error "fused compare, a unproven"
    (fused (reg_op u1) (imm 0))
    "uninitialized register %u1 in main";
  (* [n1] is written on one path only, so its read at [join] keeps a
     check that passes on that path and raises on the other. *)
  let one_path taken =
    let n0 = ireg 0 and n1 = ireg 1 and c1 = breg 1 in
    main_i32
      [ block "entry"
          [ Ir.Instr.Assign (n0, imm (if taken then 1 else 9));
            Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op n0, imm 5) ]
          (Ir.Instr.Branch (reg_op c0, "then", "join"));
        block "then" [ Ir.Instr.Assign (n1, imm 7) ] (Ir.Instr.Jump "join");
        block "join"
          [ Ir.Instr.Compare (c1, Ir.Op.Gt, reg_op n1, reg_op n0) ]
          (Ir.Instr.Branch (reg_op c1, "big", "small"));
        block "big" [] (Ir.Instr.Return (Some (imm 1)));
        block "small" [] (Ir.Instr.Return (Some (imm 2))) ]
  in
  agree "one-path operand, defined" (one_path true);
  staged_return "one-path operand, defined" (one_path true) 1;
  agree "one-path operand, undefined" (one_path false);
  expect_error "one-path operand, undefined" (one_path false)
    "uninitialized register %n1 in main"

(* The exact Out_of_fuel boundary on a loop whose header is a fused
   block: at N - 1 both engines run out, at N both complete, with the
   same events up to that point. *)
let test_fused_fuel_boundary () =
  let p = fused_loop in
  let n =
    fuel_needed p (interp ~engine:Sim.Interp.Reference p).profile
  in
  List.iter
    (fun engine ->
      let at fuel =
        match interp ~engine ~fuel p with
        | _ -> "done"
        | exception Sim.Interp.Out_of_fuel -> "out of fuel"
      in
      let name = Sim.Interp.engine_name engine in
      Alcotest.(check string) (name ^ " at N - 1") "out of fuel" (at (n - 1));
      Alcotest.(check string) (name ^ " at N") "done" (at n))
    [ Sim.Interp.Reference; Sim.Interp.Staged ];
  List.iter (fun fuel -> agree ~fuel "fused loop fuel" p) [ n - 1; n ]

(* A float compare stays a link of its own, and the branch reads its
   register. With a NaN operand every ordered compare is false and
   [Fne] is true, as in the reference engine. *)
let test_float_compare_branch () =
  let f0 = freg 0 and c0 = breg 0 and c1 = breg 1 in
  let p =
    main_i32
      [ block "entry"
          [ Ir.Instr.Binary
              (f0, Ir.Op.Fdiv, Ir.Instr.Imm_float 0.0, Ir.Instr.Imm_float 0.0);
            Ir.Instr.Compare (c0, Ir.Op.Flt, reg_op f0, Ir.Instr.Imm_float 1.0)
          ]
          (Ir.Instr.Branch (reg_op c0, "lt", "nlt"));
        block "lt" [] (Ir.Instr.Return (Some (imm 1)));
        block "nlt"
          [ Ir.Instr.Compare (c1, Ir.Op.Fne, reg_op f0, reg_op f0) ]
          (Ir.Instr.Branch (reg_op c1, "ne", "eq"));
        block "ne" [] (Ir.Instr.Return (Some (imm 2)));
        block "eq" [] (Ir.Instr.Return (Some (imm 3))) ]
  in
  agree "NaN compare" p;
  staged_return "NaN compare" p 2

(* Blocks with no instructions: the chain is the terminator alone, a
   branch on a register written in another block and a return. *)
let test_empty_blocks () =
  let c0 = breg 0 and n0 = ireg 0 in
  let p =
    main_i32
      [ block "entry"
          [ Ir.Instr.Assign (c0, Ir.Instr.Imm_bool false);
            Ir.Instr.Assign (n0, imm 5) ]
          (Ir.Instr.Jump "hop");
        block "hop" [] (Ir.Instr.Branch (reg_op c0, "dead", "out"));
        block "dead" [] (Ir.Instr.Return (Some (imm 0)));
        block "out" [] (Ir.Instr.Return (Some (reg_op n0))) ]
  in
  agree "empty blocks" p;
  staged_return "empty blocks" p 5;
  let n =
    fuel_needed p (interp ~engine:Sim.Interp.Reference p).profile
  in
  List.iter (fun fuel -> agree ~fuel "empty blocks fuel" p) [ n - 1; n ]

(* A returning block that keeps def bytes, in a function with a return
   handler. With every block watched, [n2], defined in [done], is not
   must-defined at the entry of [neg], so [done] keeps its byte and its
   chain runs the def-byte link before the return link; the handler
   reads [n1] through the byte [neg] keeps. [h] is called on both
   paths. *)
let test_defs_before_return () =
  let x = Ir.Instr.reg "x" Ir.Types.I32 in
  let c0 = breg 0 and n0 = ireg 0 and n1 = ireg 1 and n2 = ireg 2 in
  let n3 = ireg 3 in
  let h =
    Ir.Func.v ~name:"h" ~params:[ x ] ~ret:(Some Ir.Types.I32)
      ~blocks:
        [ block "entry"
            [ Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op x, imm 0) ]
            (Ir.Instr.Branch (reg_op c0, "neg", "done"));
          block "neg" [ Ir.Instr.Assign (n1, imm 7) ] (Ir.Instr.Jump "done");
          block "done"
            [ Ir.Instr.Binary (n2, Ir.Op.Add, reg_op x, imm 1) ]
            (Ir.Instr.Return (Some (reg_op n2))) ]
  in
  let p =
    main_i32 ~funcs:[ h ]
      [ block "entry"
          [ Ir.Instr.Call (Some n0, "h", [ imm (-4) ]);
            Ir.Instr.Call (Some n3, "h", [ imm 4 ]);
            Ir.Instr.Binary (n0, Ir.Op.Mul, reg_op n0, reg_op n3) ]
          (Ir.Instr.Return (Some (reg_op n0))) ]
  in
  agree "def bytes before a watched return" p;
  staged_return "def bytes before a watched return" p (-15);
  let s = run_one ~observe:true Sim.Interp.Staged p in
  let returns =
    List.filter_map
      (function
        | E_return ("h", v, reads) ->
          Some (pp_value_opt v ^ " n1=" ^ pp_value_opt (List.assoc "n1" reads))
        | E_return _ | E_block _ -> None)
      s.o_events
  in
  Alcotest.(check (list string)) "h's returns" [ "-3 n1=7"; "5 n1=<none>" ]
    returns

(* ------------------------------------------------------------------ *)
(* Fused address links and loop latches                                *)
(* ------------------------------------------------------------------ *)

let binop d op a b = Ir.Instr.Binary (d, op, a, b)
let store base index v = Ir.Instr.Store ({ Ir.Instr.base; index }, v)
let load d base index = Ir.Instr.Load (d, { Ir.Instr.base; index })

(* A loop whose body holds both address groups and ends in a latch:
   [n1 = mul k 2; n2 = add n1 n0; f1 = load A[n2]] (the fed operand
   first, float memory) and [w = mul n0 k; x = add n0 w; a = load N[x]]
   (fed operand second, int memory), then [k = add k 1; jump head].
   [exit] reads every group member: none is must-defined there, so the
   reads keep checks and the body keeps their def bytes, and a watch
   point at [head] reads them through those bytes. The run returns 38
   only if every member writes its register. *)
let address_loop =
  let k = kreg and n0 = ireg 0 and n1 = ireg 1 and n2 = ireg 2 in
  let n3 = ireg 3 and f0 = freg 0 and f1 = freg 1 and c0 = breg 0 in
  let w = Ir.Instr.reg "w" Ir.Types.I32 and x = Ir.Instr.reg "x" Ir.Types.I32 in
  let a = Ir.Instr.reg "a" Ir.Types.I32 in
  let t0 = Ir.Instr.reg "t0" Ir.Types.I32 in
  let t1 = Ir.Instr.reg "t1" Ir.Types.I32 in
  main_i32
    [ block "entry"
        [ Ir.Instr.Assign (k, imm 0);
          Ir.Instr.Assign (n0, imm 1);
          Ir.Instr.Assign (n3, imm 0);
          Ir.Instr.Assign (f0, Ir.Instr.Imm_float 0.0);
          store "N" (imm 3) (imm 11);
          store "A" (imm 3) (Ir.Instr.Imm_float 2.5) ]
        (Ir.Instr.Jump "head");
      block "head"
        [ Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op k, imm 3) ]
        (Ir.Instr.Branch (reg_op c0, "body", "exit"));
      block "body"
        [ binop n1 Ir.Op.Mul (reg_op k) (imm 2);
          binop n2 Ir.Op.Add (reg_op n1) (reg_op n0);
          load f1 "A" (reg_op n2);
          binop f0 Ir.Op.Fadd (reg_op f0) (reg_op f1);
          binop w Ir.Op.Mul (reg_op n0) (reg_op k);
          binop x Ir.Op.Add (reg_op n0) (reg_op w);
          load a "N" (reg_op x);
          binop n3 Ir.Op.Add (reg_op n3) (reg_op a);
          binop k Ir.Op.Add (reg_op k) (imm 1) ]
        (Ir.Instr.Jump "head");
      block "exit"
        [ binop t0 Ir.Op.Add (reg_op n1) (reg_op n2);
          binop t0 Ir.Op.Add (reg_op t0) (reg_op w);
          binop t0 Ir.Op.Add (reg_op t0) (reg_op x);
          binop t0 Ir.Op.Add (reg_op t0) (reg_op a);
          binop t0 Ir.Op.Add (reg_op t0) (reg_op n3);
          Ir.Instr.Unary (t1, Ir.Op.Int_of_float, reg_op f0);
          binop t0 Ir.Op.Add (reg_op t0) (reg_op t1) ]
        (Ir.Instr.Return (Some (reg_op t0))) ]

let test_fused_address_reads () =
  agree "address loop" address_loop;
  staged_return "address loop returns" address_loop 38;
  let s = run_one ~observe:true Sim.Interp.Staged address_loop in
  let at label reg =
    List.filter_map
      (function
        | E_block (_, l, reads) when String.equal l label ->
          Some (pp_value_opt (List.assoc reg reads))
        | E_block _ | E_return _ -> None)
      s.o_events
  in
  Alcotest.(check (list string)) "n1 at head" [ "<none>"; "0"; "2"; "4" ]
    (at "head" "n1");
  Alcotest.(check (list string)) "n2 at head" [ "<none>"; "1"; "3"; "5" ]
    (at "head" "n2");
  Alcotest.(check (list string)) "w, x, a at exit" [ "2"; "3"; "11" ]
    (List.concat_map (at "exit") [ "w"; "x"; "a" ])

(* One register through a whole group: [n1 = mul n1 3; n1 = add n1 n1;
   n1 = load N[n1]], the same with a float load into another register,
   and with no load. The add must read the mul's result for both
   operands, and the load's destination is written last. *)
let test_fused_register_reuse () =
  let n1 = ireg 1 and n2 = ireg 2 and n3 = ireg 3 and f0 = freg 0 in
  let t0 = Ir.Instr.reg "t0" Ir.Types.I32 in
  let p =
    straight ~globals:typed_globals
      [ Ir.Instr.Assign (n1, imm 1);
        Ir.Instr.Assign (n2, imm 1);
        store "N" (imm 6) (imm 9);
        store "A" (imm 6) (Ir.Instr.Imm_float 1.5);
        binop n1 Ir.Op.Mul (reg_op n1) (imm 3);
        binop n1 Ir.Op.Add (reg_op n1) (reg_op n1);
        load n1 "N" (reg_op n1);
        binop n2 Ir.Op.Mul (reg_op n2) (imm 3);
        binop n2 Ir.Op.Add (reg_op n2) (reg_op n2);
        load f0 "A" (reg_op n2);
        Ir.Instr.Assign (n3, imm 2);
        binop n3 Ir.Op.Mul (reg_op n3) (imm 3);
        binop n3 Ir.Op.Add (reg_op n3) (reg_op n3);
        binop t0 Ir.Op.Add (reg_op n1) (reg_op n2);
        binop t0 Ir.Op.Add (reg_op t0) (reg_op n3) ]
      (Ir.Instr.Return (Some (reg_op t0)))
  in
  agree "register reuse" p;
  staged_return "register reuse returns" p 27

(* A fused load out of bounds faults with [Memory]'s exact message, in
   int and float memory, below and above the bounds; in-bounds fused
   loads touch the cache as the reference engine's loads do. *)
let test_fused_load_bounds () =
  let n0 = ireg 0 and n1 = ireg 1 and n2 = ireg 2 and n3 = ireg 3 in
  let group base dst a0 a1 =
    straight ~globals:typed_globals
      [ Ir.Instr.Assign (n0, imm a0);
        Ir.Instr.Assign (n1, imm a1);
        binop n2 Ir.Op.Mul (reg_op n1) (imm 2);
        binop n3 Ir.Op.Add (reg_op n2) (reg_op n0);
        load dst base (reg_op n3) ]
      (Ir.Instr.Return (Some (imm 0)))
  in
  expect_error "fused int load past end" (group "N" (ireg 0) 0 4)
    "memory fault: index 8 out of bounds for N[8]";
  expect_error "fused int load below start" (group "N" (ireg 0) 1 (-1))
    "memory fault: index -1 out of bounds for N[8]";
  expect_error "fused float load past end" (group "A" (freg 0) 3 3)
    "memory fault: index 9 out of bounds for A[8]";
  expect_error "fused float load below start" (group "A" (freg 0) (-3) 1)
    "memory fault: index -1 out of bounds for A[8]";
  let p = address_loop in
  let r = run_one ~cache_config:Sim.Cache.default_l1 Sim.Interp.Reference p in
  let s = run_one ~cache_config:Sim.Cache.default_l1 Sim.Interp.Staged p in
  check_outcomes alco_fail p r s;
  match s.o_cache with
  | Some st -> Alcotest.(check int) "cache accesses" 8 st.Sim.Cache.accesses
  | None -> Alcotest.fail "expected cache statistics"

(* Group members whose operands [Must_defined] does not prove keep their
   checks, emitted before the group in the unfused order: the mul's
   operands b before a, then the add's other operand. A trailing add
   fused with its jump checks b before a too. *)
let test_fused_unproven_add () =
  let u1 = Ir.Instr.reg "u1" Ir.Types.I32 in
  let u2 = Ir.Instr.reg "u2" Ir.Types.I32 in
  let n0 = ireg 0 and n1 = ireg 1 and n2 = ireg 2 and f0 = freg 0 in
  let group mul_a mul_b add_a add_b =
    straight ~globals:typed_globals
      [ Ir.Instr.Assign (n0, imm 2);
        binop n1 Ir.Op.Mul mul_a mul_b;
        binop n2 Ir.Op.Add add_a add_b;
        load f0 "A" (reg_op n2) ]
      (Ir.Instr.Return (Some (imm 0)))
  in
  let msg r = Printf.sprintf "uninitialized register %%%s in main" r in
  expect_error "add operand a unproven"
    (group (reg_op n0) (imm 3) (reg_op u1) (reg_op n1))
    (msg "u1");
  expect_error "add operand b unproven"
    (group (reg_op n0) (imm 3) (reg_op n1) (reg_op u2))
    (msg "u2");
  expect_error "mul operand before add operand"
    (group (reg_op u1) (imm 3) (reg_op n1) (reg_op u2))
    (msg "u1");
  expect_error "mul operands b before a"
    (group (reg_op u1) (reg_op u2) (reg_op n1) (reg_op n0))
    (msg "u2");
  expect_error "latch operands b before a"
    (main_i32
       [ block "entry"
           [ binop n1 Ir.Op.Add (reg_op u1) (reg_op u2) ]
           (Ir.Instr.Jump "out");
         block "out" [] (Ir.Instr.Return (Some (imm 0))) ])
    (msg "u2");
  (* [n1] is written on one path only, so the add's read of it at
     [join] keeps a check that passes on that path and raises on the
     other. *)
  let one_path taken =
    let c0 = breg 0 and n3 = ireg 3 in
    main_i32
      [ block "entry"
          [ Ir.Instr.Assign (n0, imm (if taken then 1 else 9));
            Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op n0, imm 5) ]
          (Ir.Instr.Branch (reg_op c0, "then", "join"));
        block "then" [ Ir.Instr.Assign (n1, imm 2) ] (Ir.Instr.Jump "join");
        block "join"
          [ binop n2 Ir.Op.Mul (reg_op n0) (imm 3);
            binop n3 Ir.Op.Add (reg_op n2) (reg_op n1);
            load n2 "N" (reg_op n3) ]
          (Ir.Instr.Return (Some (reg_op n3))) ]
  in
  agree "one-path add operand, defined" (one_path true);
  staged_return "one-path add operand, defined" (one_path true) 5;
  expect_error "one-path add operand, undefined" (one_path false) (msg "n1")

(* Every fuel budget from 0 to the run's need on a loop whose latch is
   a block of its own, [k = add k 1; jump head], one fused link: both
   engines run out at the same block, with the same events before it,
   the latch's watch handler included when the fuel runs out on entry
   to the latch. *)
let test_fused_latch_fuel () =
  let k = kreg and c0 = breg 0 and n1 = ireg 1 in
  let p =
    main_i32
      [ block "entry"
          [ Ir.Instr.Assign (k, imm 0); Ir.Instr.Assign (n1, imm 0) ]
          (Ir.Instr.Jump "head");
        block "head"
          [ Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op k, imm 3) ]
          (Ir.Instr.Branch (reg_op c0, "body", "exit"));
        block "body"
          [ binop n1 Ir.Op.Add (reg_op n1) (reg_op k) ]
          (Ir.Instr.Jump "latch");
        block "latch"
          [ binop k Ir.Op.Add (reg_op k) (imm 1) ]
          (Ir.Instr.Jump "head");
        block "exit" [] (Ir.Instr.Return (Some (reg_op n1))) ]
  in
  let n = fuel_needed p (interp ~engine:Sim.Interp.Reference p).profile in
  for fuel = 0 to n do
    agree ~fuel (Printf.sprintf "latch loop at fuel %d" fuel) p
  done;
  List.iter
    (fun engine ->
      let at fuel =
        match interp ~engine ~fuel p with
        | _ -> "done"
        | exception Sim.Interp.Out_of_fuel -> "out of fuel"
      in
      let name = Sim.Interp.engine_name engine in
      Alcotest.(check string) (name ^ " at N - 1") "out of fuel" (at (n - 1));
      Alcotest.(check string) (name ^ " at N") "done" (at n))
    [ Sim.Interp.Reference; Sim.Interp.Staged ];
  (* Fuel that runs out on entry to the latch: the last event is the
     latch's, on both engines. *)
  let last_label fuel =
    let s = run_one ~observe:true ~fuel Sim.Interp.Staged p in
    match List.rev s.o_events with
    | E_block (_, l, _) :: _ -> l
    | E_return _ :: _ | [] -> "-"
  in
  let latch_stops =
    List.filter
      (fun fuel ->
        String.equal (last_label fuel) "latch"
        && (run_one ~fuel Sim.Interp.Staged p).o_err = Some "out_of_fuel")
      (List.init n Fun.id)
  in
  if latch_stops = [] then
    Alcotest.fail "no budget runs out on entry to the latch"

(* A kernel whose inner loop takes all three fused links: two address
   groups feeding loads, one feeding a store (a mul-add link alone), and
   the latch. *)
let fused_alloc_kernel reps =
  Cayman_frontend.Lower.compile
    (Printf.sprintf
       {|const int M = 8;
         const int R = %d;
         float a[M][M]; int b[M][M];
         int main() {
           float s = 0.0;
           int t = 0;
           for (int r = 0; r < R; r++) {
             for (int i = 0; i < M; i++) {
               for (int j = 0; j < M; j++) {
                 s = s + a[i][j] * 0.5;
                 t = t + b[j][i];
                 b[i][j] = t - r;
               }
             }
           }
           return t;
         }|}
       reps)

(* The shapes [codegen] fuses, counted over a program's blocks: a
   mul-add whose add feeds a load, a mul-add alone, and an add before a
   jump. *)
let fused_shapes (p : Ir.Validate.t) =
  let feeds (t : Ir.Instr.reg) (o : Ir.Instr.operand) =
    match o with
    | Ir.Instr.Reg r -> String.equal r.Ir.Instr.id t.Ir.Instr.id
    | Ir.Instr.Imm_int _ | Ir.Instr.Imm_float _ | Ir.Instr.Imm_bool _ -> false
  in
  let with_load = ref 0 and alone = ref 0 and latch = ref 0 in
  List.iter
    (fun (f : Ir.Func.t) ->
      List.iter
        (fun (b : Ir.Block.t) ->
          let rec scan = function
            | Ir.Instr.Binary (t, Ir.Op.Mul, _, _)
              :: Ir.Instr.Binary (u, Ir.Op.Add, a, c)
              :: rest
              when feeds t a || feeds t c ->
              (match rest with
               | Ir.Instr.Load (_, m) :: rest when feeds u m.Ir.Instr.index ->
                 incr with_load;
                 scan rest
               | rest ->
                 incr alone;
                 scan rest)
            | [ Ir.Instr.Binary (_, Ir.Op.Add, _, _) ] ->
              (match b.Ir.Block.term with
               | Ir.Instr.Jump _ -> incr latch
               | Ir.Instr.Branch _ | Ir.Instr.Return _ -> ())
            | _ :: rest -> scan rest
            | [] -> ()
          in
          scan b.Ir.Block.instrs)
        f.Ir.Func.blocks)
    (p :> Ir.Cfg.program).Ir.Cfg.program.Ir.Program.funcs;
  !with_load, !alone, !latch

let test_fused_no_alloc () =
  let small = fused_alloc_kernel 50 and large = fused_alloc_kernel 200 in
  let with_load, alone, latch = fused_shapes small in
  if with_load < 2 || alone < 1 || latch < 1 then
    Alcotest.failf
      "kernel lacks a fused shape: %d mul-add-loads, %d mul-adds, %d latches"
      with_load alone latch;
  ignore (staged_minor_words small : float);
  let w_small = staged_minor_words small in
  let w_large = staged_minor_words large in
  if w_large -. w_small > 256.0 then
    Alcotest.failf
      "fused links allocate per instruction: %.0f minor words at R=50, %.0f \
       at R=200"
      w_small w_large

(* ------------------------------------------------------------------ *)
(* Block counts derived from edges                                     *)
(* ------------------------------------------------------------------ *)

(* The staged engine derives a block's count from its incoming edges
   (and, for the entry, the calls) once a run completes; each function's
   block counts must equal those the reference engine bumps block by
   block. *)
let same_block_counts name (p : Ir.Program.t) reference staged =
  let counts prof =
    List.map
      (fun (f : Ir.Func.t) ->
        ( f.Ir.Func.name,
          Array.to_list
            (Sim.Profile.find prof f.Ir.Func.name).Sim.Profile.blocks ))
      p.Ir.Program.funcs
  in
  Alcotest.(check (list (pair string (list int))))
    (name ^ " block counts") (counts reference) (counts staged)

let check_block_counts name p =
  same_block_counts name p
    (interp ~engine:Sim.Interp.Reference p).Sim.Interp.profile
    (interp ~engine:Sim.Interp.Staged p).Sim.Interp.profile

let test_derived_block_counts () =
  let x = Ir.Instr.reg "x" Ir.Types.I32 in
  let c0 = breg 0 and n0 = ireg 0 and n1 = ireg 1 and n2 = ireg 2 in
  let k = kreg in
  (* [g]'s entry block is its loop header, so edges enter id 0 on top of
     its two calls; [dead] has no predecessor and never runs. *)
  let g =
    Ir.Func.v ~name:"g" ~params:[ x ] ~ret:(Some Ir.Types.I32)
      ~blocks:
        [ block "top"
            [ Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op x, imm 5) ]
            (Ir.Instr.Branch (reg_op c0, "step", "done"));
          block "step" [ binop x Ir.Op.Add (reg_op x) (imm 2) ]
            (Ir.Instr.Jump "top");
          block "dead" [ binop n0 Ir.Op.Add (reg_op x) (imm 1) ]
            (Ir.Instr.Jump "top");
          block "done" [] (Ir.Instr.Return (Some (reg_op x))) ]
  in
  let header_entry =
    main_i32 ~funcs:[ g ]
      [ block "entry"
          [ Ir.Instr.Call (Some n0, "g", [ imm 0 ]);
            Ir.Instr.Call (Some n1, "g", [ imm 3 ]);
            binop n0 Ir.Op.Add (reg_op n0) (reg_op n1) ]
          (Ir.Instr.Return (Some (reg_op n0))) ]
  in
  check_block_counts "entry block is a loop header" header_entry;
  agree "entry block is a loop header" header_entry;
  staged_return "entry block is a loop header" header_entry 11;
  let prof = (interp ~engine:Sim.Interp.Staged header_entry).profile in
  let cfg = Ir.Cfg.of_func g in
  Alcotest.(check int) "unreachable block count" 0
    (Sim.Profile.find prof "g").Sim.Profile.blocks.(Ir.Cfg.id cfg "dead");
  Alcotest.(check int) "loop header count" 6
    (Sim.Profile.find prof "g").Sim.Profile.blocks.(0);
  (* [fact] is called from [main]'s loop and by itself. *)
  let fact =
    Ir.Func.v ~name:"fact" ~params:[ x ] ~ret:(Some Ir.Types.I32)
      ~blocks:
        [ block "entry"
            [ Ir.Instr.Compare (c0, Ir.Op.Le, reg_op x, imm 1) ]
            (Ir.Instr.Branch (reg_op c0, "base", "rec"));
          block "base" [] (Ir.Instr.Return (Some (imm 1)));
          block "rec"
            [ binop n0 Ir.Op.Sub (reg_op x) (imm 1);
              Ir.Instr.Call (Some n1, "fact", [ reg_op n0 ]);
              binop n1 Ir.Op.Mul (reg_op x) (reg_op n1) ]
            (Ir.Instr.Return (Some (reg_op n1))) ]
  in
  let recursive =
    main_i32 ~funcs:[ fact ]
      [ block "entry"
          [ Ir.Instr.Assign (k, imm 0); Ir.Instr.Assign (n1, imm 0) ]
          (Ir.Instr.Jump "head");
        block "head"
          [ Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op k, imm 4) ]
          (Ir.Instr.Branch (reg_op c0, "body", "exit"));
        block "body"
          [ Ir.Instr.Call (Some n2, "fact", [ reg_op k ]);
            binop n1 Ir.Op.Add (reg_op n1) (reg_op n2);
            binop k Ir.Op.Add (reg_op k) (imm 1) ]
          (Ir.Instr.Jump "head");
        block "exit" [] (Ir.Instr.Return (Some (reg_op n1))) ]
  in
  check_block_counts "called from a loop and recursively" recursive;
  agree "called from a loop and recursively" recursive;
  staged_return "called from a loop and recursively" recursive 10

(* ------------------------------------------------------------------ *)
(* Threaded loop headers                                               *)
(* ------------------------------------------------------------------ *)

let m_entries = Obs.Metrics.counter "sim.profile_entries"

(* The block executions of a completed staged run that were not
   block-loop entries: bare headers run inside the jump that entered
   them. [watch] observes the run with those watch points. *)
let threaded ?watch p =
  let observer =
    Option.map
      (fun w -> recording_observer w (ref []) (Sim.Memory.Log.create ()))
      watch
  in
  let before = Obs.Metrics.value m_entries in
  let res = interp ~engine:Sim.Interp.Staged ?observer p in
  let entries = Obs.Metrics.value m_entries - before in
  let blocks =
    List.fold_left
      (fun acc (f : Ir.Func.t) ->
        Array.fold_left ( + ) acc
          (Sim.Profile.find res.Sim.Interp.profile f.Ir.Func.name)
            .Sim.Profile.blocks)
      0 p.Ir.Program.funcs
  in
  blocks - entries

(* The executions of block [label] of [main] in a reference run. *)
let block_runs p label =
  let prof = (interp ~engine:Sim.Interp.Reference p).Sim.Interp.profile in
  let cfg = Ir.Cfg.of_func (Ir.Program.func_exn p "main") in
  (Sim.Profile.find prof "main").Sim.Profile.blocks.(Ir.Cfg.id cfg label)

let watch_labels labels : watch =
 fun ~func:_ ~label ->
  match label with
  | Some l -> List.mem l labels
  | None -> false

(* A two-deep loop nest. Both headers hold only their compare, and every
   jump into them is threaded: the preheader jumps from [entry] and [ob]
   ([ob]'s is a plain jump after an assign) and the latches [ib] and
   [ol] (an add and its jump). [exit] reads the outer compare's
   register. *)
let loop_nest =
  let i = ireg 0 and j = ireg 1 and s = ireg 2 and t0 = ireg 3 in
  let c0 = breg 0 and c1 = breg 1 in
  main_i32
    [ block "entry"
        [ Ir.Instr.Assign (i, imm 0); Ir.Instr.Assign (s, imm 0) ]
        (Ir.Instr.Jump "oh");
      block "oh"
        [ Ir.Instr.Compare (c0, Ir.Op.Lt, reg_op i, imm 3) ]
        (Ir.Instr.Branch (reg_op c0, "ob", "exit"));
      block "ob" [ Ir.Instr.Assign (j, imm 0) ] (Ir.Instr.Jump "ih");
      block "ih"
        [ Ir.Instr.Compare (c1, Ir.Op.Gt, imm 2, reg_op j) ]
        (Ir.Instr.Branch (reg_op c1, "ib", "ol"));
      block "ib"
        [ binop s Ir.Op.Add (reg_op s) (reg_op j);
          binop s Ir.Op.Add (reg_op s) (reg_op i);
          binop j Ir.Op.Add (reg_op j) (imm 1) ]
        (Ir.Instr.Jump "ih");
      block "ol" [ binop i Ir.Op.Add (reg_op i) (imm 1) ] (Ir.Instr.Jump "oh");
      block "exit"
        [ Ir.Instr.Select (t0, reg_op c0, imm 1000, reg_op s) ]
        (Ir.Instr.Return (Some (reg_op t0))) ]

(* Every budget from 0 to the run's need, unobserved, with every block
   watched (no header is threaded), with the latches watched (both
   headers are threaded, and the fuel that runs out at [ih] is seen from
   its successors), and with [exit] watched ([c1] is not proven there,
   so [ih] keeps its byte; [oh] is threaded). *)
let test_threaded_nest_fuel () =
  let p = loop_nest in
  staged_return "loop nest returns" p 9;
  let runs = block_runs p in
  let latches = watch_labels [ "ib"; "ol" ] and at_exit = watch_labels [ "exit" ] in
  Alcotest.(check int) "threaded, unobserved" (runs "oh" + runs "ih")
    (threaded p);
  Alcotest.(check int) "threaded, every block watched" 0
    (threaded ~watch:watch_all p);
  Alcotest.(check int) "threaded, latches watched" (runs "oh" + runs "ih")
    (threaded ~watch:latches p);
  Alcotest.(check int) "threaded, exit watched" (runs "oh")
    (threaded ~watch:at_exit p);
  let n = fuel_needed p (interp ~engine:Sim.Interp.Reference p).profile in
  for fuel = 0 to n do
    List.iter
      (fun (wname, watch) ->
        agree ~fuel ~watch
          (Printf.sprintf "loop nest at fuel %d, watching %s" fuel wname)
          p)
      [ "every block", watch_all; "latches", latches; "exit", at_exit ]
  done

(* Each integer compare in a threaded header, over equal, negative and
   [max_int] operands: the header is entered from [entry]'s jump and
   from the latch, whose add wraps past [max_int]. [exit] reads the
   compare's register, in an instruction and at a watch point. *)
let compare_header op x0 y0 =
  let x = ireg 0 and y = ireg 1 and n1 = ireg 2 and n2 = ireg 3 in
  let c0 = breg 0 and c1 = breg 1 in
  main_i32
    [ block "entry"
        [ Ir.Instr.Assign (x, imm x0);
          Ir.Instr.Assign (y, imm y0);
          Ir.Instr.Assign (n1, imm 0) ]
        (Ir.Instr.Jump "head");
      block "head"
        [ Ir.Instr.Compare (c0, op, reg_op x, reg_op y) ]
        (Ir.Instr.Branch (reg_op c0, "body", "exit"));
      block "body"
        [ binop n1 Ir.Op.Add (reg_op n1) (imm 1);
          Ir.Instr.Compare (c1, Ir.Op.Lt, reg_op n1, imm 3) ]
        (Ir.Instr.Branch (reg_op c1, "latch", "exit"));
      block "latch" [ binop x Ir.Op.Add (reg_op x) (imm 1) ]
        (Ir.Instr.Jump "head");
      block "exit"
        [ Ir.Instr.Select (n2, reg_op c0, imm 100, imm 0);
          binop n2 Ir.Op.Add (reg_op n2) (reg_op n1) ]
        (Ir.Instr.Return (Some (reg_op n2))) ]

let test_threaded_compares () =
  let ops =
    [ Ir.Op.Eq; Ir.Op.Ne; Ir.Op.Lt; Ir.Op.Le; Ir.Op.Gt; Ir.Op.Ge ]
  in
  let operands =
    [ 0, 0; 7, 7; -5, -5; -5, 3; 3, -5; -1, -2; -2, -1;
      max_int, max_int; max_int - 1, max_int; max_int, 0; 0, max_int;
      -max_int, max_int; max_int, -1 ]
  in
  let at_exit = watch_labels [ "exit" ] in
  List.iter
    (fun op ->
      List.iter
        (fun (x0, y0) ->
          let p = compare_header op x0 y0 in
          let name =
            Printf.sprintf "%s %d %d" (Ir.Op.cmp_to_string op) x0 y0
          in
          agree name p;
          agree ~watch:at_exit (name ^ ", exit watched") p;
          Alcotest.(check int) (name ^ " threaded") (block_runs p "head")
            (threaded ~watch:at_exit p))
        operands)
    ops

(* A watched header, and a header that keeps a def byte, are not
   threaded; [oh] is threaded in both runs of [loop_nest]. With [ih]
   watched, [ih] runs its handler first. With [ob] watched, [c1] is not
   proven at [ob] (its first entry comes before [ih] ran), so [ih]
   keeps the byte the watch point reads [c1] through. *)
let test_unthreaded_headers () =
  let p = loop_nest in
  let at_ih = watch_labels [ "ih" ] and at_ob = watch_labels [ "ob" ] in
  agree ~watch:at_ih "inner header watched" p;
  Alcotest.(check int) "inner header watched" (block_runs p "oh")
    (threaded ~watch:at_ih p);
  agree ~watch:at_ob "inner header keeps a def byte" p;
  Alcotest.(check int) "inner header keeps a def byte" (block_runs p "oh")
    (threaded ~watch:at_ob p);
  let s = run_one ~observe:true ~watch:at_ob Sim.Interp.Staged p in
  let c1 =
    List.map
      (function
        | E_block (_, _, reads) -> pp_value_opt (List.assoc "c1" reads)
        | E_return _ -> "-")
      s.o_events
  in
  Alcotest.(check (list string)) "c1 at ob" [ "<none>"; "false"; "false" ] c1;
  let n = fuel_needed p (interp ~engine:Sim.Interp.Reference p).profile in
  for fuel = 0 to n do
    agree ~fuel ~watch:at_ob
      (Printf.sprintf "def-byte header at fuel %d" fuel)
      p
  done

(* A header entered from a threaded latch and from a branch ([body]
   branches straight back on odd [k]), and a header that is the
   function's entry, id 0, entered by calls and by a threaded latch:
   block counts derived from edges must equal the reference's. *)
let test_threaded_mixed_entries () =
  let k = kreg and n0 = ireg 0 and n1 = ireg 1 and n2 = ireg 2 in
  let c0 = breg 0 and c1 = breg 1 in
  let p =
    main_i32
      [ block "entry"
          [ Ir.Instr.Assign (k, imm 0); Ir.Instr.Assign (n1, imm 0) ]
          (Ir.Instr.Jump "head");
        block "head"
          [ Ir.Instr.Compare (c0, Ir.Op.Le, reg_op k, imm 6) ]
          (Ir.Instr.Branch (reg_op c0, "body", "exit"));
        block "body"
          [ binop n1 Ir.Op.Add (reg_op n1) (reg_op k);
            binop k Ir.Op.Add (reg_op k) (imm 1);
            binop n2 Ir.Op.And (reg_op k) (imm 1);
            Ir.Instr.Compare (c1, Ir.Op.Ne, reg_op n2, imm 0) ]
          (Ir.Instr.Branch (reg_op c1, "head", "latch"));
        block "latch" [ binop k Ir.Op.Add (reg_op k) (imm 1) ]
          (Ir.Instr.Jump "head");
        block "exit" [] (Ir.Instr.Return (Some (reg_op n1))) ]
  in
  agree "header entered by a latch and a branch" p;
  check_block_counts "header entered by a latch and a branch" p;
  staged_return "header entered by a latch and a branch" p 9;
  Alcotest.(check int) "threaded through entry and latch"
    (block_runs p "entry" + block_runs p "latch")
    (threaded p);
  let x = Ir.Instr.reg "x" Ir.Types.I32 in
  let g =
    Ir.Func.v ~name:"g" ~params:[ x ] ~ret:(Some Ir.Types.I32)
      ~blocks:
        [ block "top"
            [ Ir.Instr.Compare (c0, Ir.Op.Ge, imm 9, reg_op x) ]
            (Ir.Instr.Branch (reg_op c0, "step", "done"));
          block "step" [ binop x Ir.Op.Add (reg_op x) (imm 2) ]
            (Ir.Instr.Jump "top");
          block "done" [] (Ir.Instr.Return (Some (reg_op x))) ]
  in
  let p =
    main_i32 ~funcs:[ g ]
      [ block "entry"
          [ Ir.Instr.Call (Some n0, "g", [ imm 0 ]);
            Ir.Instr.Call (Some n1, "g", [ imm 5 ]);
            binop n0 Ir.Op.Add (reg_op n0) (reg_op n1) ]
          (Ir.Instr.Return (Some (reg_op n0))) ]
  in
  agree "entry header with a latch" p;
  check_block_counts "entry header with a latch" p;
  staged_return "entry header with a latch" p 21;
  (* [g]'s latch ran 5 + 3 times, each entering [top] threaded. *)
  Alcotest.(check int) "entry header threaded" 8 (threaded p)

let test_threaded_no_alloc () =
  let small = fused_alloc_kernel 50 and large = fused_alloc_kernel 200 in
  if threaded (small :> Ir.Cfg.program).Ir.Cfg.program = 0 then
    Alcotest.fail "kernel threads no loop header";
  ignore (staged_minor_words small : float);
  let w_small = staged_minor_words small in
  let w_large = staged_minor_words large in
  if w_large -. w_small > 256.0 then
    Alcotest.failf
      "threaded links allocate per instruction: %.0f minor words at R=50, \
       %.0f at R=200"
      w_small w_large

(* ------------------------------------------------------------------ *)
(* 28-benchmark suite parity + fast-path sanity                        *)
(* ------------------------------------------------------------------ *)

(* Real benchmarks execute millions of blocks, so their observer stream
   is folded into a rolling hash (plus an exact event count) in constant
   memory: block-entry order, function names, labels and return values
   — the exact sequence Rtl.Cosim keys its golden snapshots off. *)
let folding_observer () =
  let h = ref 0 and count = ref 0 in
  let mix x y = h := (!h * 1000003) lxor Hashtbl.hash x lxor Hashtbl.hash y in
  let obs =
    { Sim.Interp.obs_block =
        (fun ~func ~label ->
          Some
            { Sim.Interp.w_reads = [];
              w_run =
                (fun ~regs:_ ~mem:_ ->
                  incr count;
                  mix func label) });
      obs_return =
        (fun ~func ->
          Some
            { Sim.Interp.w_reads = [];
              w_run =
                (fun ~regs:_ ~value ~mem:_ ->
                  incr count;
                  mix func (pp_value_opt value)) });
      obs_logged = unlogged;
      obs_log = Sim.Memory.Log.create () }
  in
  obs, h, count

let run_bench_engine bname ?observer engine p =
  match Sim.Interp.run ~engine ?observer (p : Ir.Validate.t :> Ir.Cfg.program) with
  | res -> res
  | exception e ->
    Alcotest.failf "%s (%s): %s" bname
      (Sim.Interp.engine_name engine)
      (Printexc.to_string e)

let check_bench_parity bname (r : Sim.Interp.result) (s : Sim.Interp.result) =
  if not (value_opt_equal r.Sim.Interp.return_value s.Sim.Interp.return_value)
  then
    Alcotest.failf "%s: return mismatch %s vs %s" bname
      (pp_value_opt r.Sim.Interp.return_value)
      (pp_value_opt s.Sim.Interp.return_value);
  (match Sim.Memory.diff r.Sim.Interp.memory s.Sim.Interp.memory with
   | [] -> ()
   | (base, detail) :: _ ->
     Alcotest.failf "%s: memory mismatch at %s: %s" bname base detail);
  Alcotest.(check string)
    (bname ^ " profile bytes")
    (Digest.to_hex (Digest.string (Marshal.to_string r.Sim.Interp.profile [])))
    (Digest.to_hex (Digest.string (Marshal.to_string s.Sim.Interp.profile [])))

(* Flow conservation of a completed run's profile, which checks its
   indexing by {!Ir.Cfg} id: in every function, a block runs as often as
   it is entered, through its incoming edges' successor slots or, for
   the entry, by a call; and the blocks' executions times their static
   costs add up to the run's totals. A counter written to the wrong
   block or slot breaks an equation. *)
let check_flow name (p : Ir.Validate.t) (profile : Sim.Profile.t) =
  let cycles = ref 0 and instrs = ref 0 in
  List.iter
    (fun index ->
      let cfg, _ = Option.get index in
      let f = cfg.Ir.Cfg.func in
      let c = Sim.Profile.find profile f.Ir.Func.name in
      let entered = Array.make cfg.Ir.Cfg.size 0 in
      entered.(0) <- c.Sim.Profile.calls;
      Array.iteri
        (fun u succs ->
          Array.iteri
            (fun k v -> entered.(v) <- entered.(v) + c.Sim.Profile.edges.(u).(k))
            succs)
        cfg.Ir.Cfg.succs;
      Array.iteri
        (fun v (b : Ir.Block.t) ->
          let n = c.Sim.Profile.blocks.(v) in
          if n <> entered.(v) then
            Alcotest.failf "%s: %s/%s runs %d times but is entered %d times"
              name f.Ir.Func.name b.Ir.Block.label n entered.(v);
          cycles := !cycles + (n * Sim.Cpu_model.block_cycles b);
          instrs := !instrs + (n * List.length b.Ir.Block.instrs))
        cfg.Ir.Cfg.blocks)
    (p :> Ir.Cfg.program).Ir.Cfg.funcs;
  Alcotest.(check int) (name ^ " total cycles") !cycles
    (Sim.Profile.total_cycles profile);
  Alcotest.(check int) (name ^ " total instructions") !instrs
    (Sim.Profile.total_instrs profile)

(* Flow conservation on the reference engine over generated MiniC
   programs (the Table II programs are checked by the suite parity test
   below). The staged engine derives its block counts from these very
   equations, so they hold there by construction; its counts must equal
   the reference engine's instead. *)
let test_flow_conservation () =
  List.iter
    (fun seed ->
      for index = 0 to 15 do
        let p =
          Cayman_frontend.Lower.compile
            (Fleet.Genprog.minic_source ~seed ~index)
        in
        let name = Printf.sprintf "genprog %d/%d" seed index in
        let r = run_bench_engine name Sim.Interp.Reference p in
        let s = run_bench_engine name Sim.Interp.Staged p in
        check_flow name p r.Sim.Interp.profile;
        same_block_counts name (p :> Ir.Cfg.program).Ir.Cfg.program
          r.Sim.Interp.profile s.Sim.Interp.profile
      done)
    [ 1; 2; 3 ]

let test_suite_parity () =
  List.iter
    (fun (b : Cayman_suites.Suite.benchmark) ->
      let p = Cayman_suites.Suite.compile b in
      (* The staged engine must actually take its fast path on real
         benchmarks — falling back would make the speedup a lie. *)
      (match Cayman_sim.Interp_staged.analyze (p :> Ir.Cfg.program) with
       | Some _ -> ()
       | None ->
         Alcotest.failf "%s fails the staged cleanliness analysis" b.name);
      let r = run_bench_engine b.name Sim.Interp.Reference p in
      let s = run_bench_engine b.name Sim.Interp.Staged p in
      check_flow (b.name ^ " (reference)") p r.Sim.Interp.profile;
      check_bench_parity b.name r s)
    Cayman_suites.Suite.all

(* Observer-stream parity on the Fig. 6 subset (one benchmark per
   suite); the full 28 would double the wall time for no extra signal. *)
let test_fig6_observer_parity () =
  List.iter
    (fun name ->
      let b = Cayman_suites.Suite.find_exn name in
      let p = Cayman_suites.Suite.compile b in
      let obs_r, h_r, n_r = folding_observer () in
      let obs_s, h_s, n_s = folding_observer () in
      let r = run_bench_engine b.name ~observer:obs_r Sim.Interp.Reference p in
      let s = run_bench_engine b.name ~observer:obs_s Sim.Interp.Staged p in
      Alcotest.(check int) (b.name ^ " observer event count") !n_r !n_s;
      Alcotest.(check int) (b.name ^ " observer stream hash") !h_r !h_s;
      check_bench_parity b.name r s)
    Cayman_suites.Suite.fig6

(* ------------------------------------------------------------------ *)
(* An exception from a watch handler                                   *)
(* ------------------------------------------------------------------ *)

(* Rtl.Cosim ends a golden run by raising from a watch handler. Both
   engines must let that exception through unchanged, after the same
   handler calls: the k-th call raises, for a k early, in the middle and
   at the last call of a complete run, with every block, the loop
   headers only, or the returns watched. *)
exception Watch_stop of int

let stopping_observer (watch : watch) k =
  let calls = ref 0 in
  let hit () =
    incr calls;
    if !calls = k then raise (Watch_stop k)
  in
  ( { Sim.Interp.obs_block =
        (fun ~func ~label ->
          if watch ~func ~label:(Some label) then
            Some { Sim.Interp.w_reads = []; w_run = (fun ~regs:_ ~mem:_ -> hit ()) }
          else None);
      obs_return =
        (fun ~func ->
          if watch ~func ~label:None then
            Some
              { Sim.Interp.w_reads = [];
                w_run = (fun ~regs:_ ~value:_ ~mem:_ -> hit ()) }
          else None);
      obs_logged = unlogged;
      obs_log = Sim.Memory.Log.create () },
    calls )

let test_watch_exception () =
  let watches =
    [ "every block", (fun ~func:_ ~label -> label <> None);
      ( "loop headers",
        fun ~func:_ ~label ->
          match label with
          | Some l -> Testutil.contains l "loop_head"
          | None -> false );
      "returns", (fun ~func:_ ~label -> label = None) ]
  in
  List.iter
    (fun index ->
      let p =
        Cayman_frontend.Lower.compile
          (Fleet.Genprog.minic_source ~seed:5 ~index)
      in
      List.iter
        (fun (wname, (watch : watch)) ->
          let name = Printf.sprintf "genprog 5/%d, %s" index wname in
          let total =
            let obs, calls = stopping_observer watch 0 in
            ignore
              (run_bench_engine name ~observer:obs Sim.Interp.Reference p);
            !calls
          in
          if total = 0 then Alcotest.failf "%s: no watch point ran" name;
          List.iter
            (fun k ->
              let stopped engine =
                let obs, calls = stopping_observer watch k in
                match
                  Sim.Interp.run ~engine ~observer:obs (p :> Ir.Cfg.program)
                with
                | _ -> Alcotest.failf "%s: the run outlived call %d" name k
                | exception Watch_stop k' -> k', !calls
                | exception e ->
                  Alcotest.failf "%s (%s): %s" name
                    (Sim.Interp.engine_name engine)
                    (Printexc.to_string e)
              in
              let label = Printf.sprintf "%s, raise at call %d" name k in
              Alcotest.(check (pair int int))
                (label ^ " (reference)") (k, k)
                (stopped Sim.Interp.Reference);
              Alcotest.(check (pair int int))
                (label ^ " (staged)") (k, k)
                (stopped Sim.Interp.Staged))
            (List.sort_uniq compare [ 1; 2; (total + 1) / 2; total ]))
        watches)
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Declared reads and the store log                                    *)
(* ------------------------------------------------------------------ *)

(* A run whose handler at every block records the store log's contents
   and then clears the log where [clear] says, over the stores of the
   blocks [logged] marks. How it ends, the records and the final log
   must not depend on the engine. *)
let logging_run ?fuel ?(clear = fun _ -> false) ~logged engine p =
  let log = Sim.Memory.Log.create () and seen = ref [] in
  let observer =
    { Sim.Interp.obs_block =
        (fun ~func:_ ~label ->
          Some
            { Sim.Interp.w_reads = [];
              w_run =
                (fun ~regs:_ ~mem:_ ->
                  seen := (label, log_entries log) :: !seen;
                  if clear label then Sim.Memory.Log.clear log) });
      obs_return = (fun ~func:_ -> None);
      obs_logged = (fun ~func:_ ~label -> logged label);
      obs_log = log }
  in
  let ending =
    match Sim.Interp.run ~engine ?fuel ~observer p with
    | _ -> "completed"
    | exception Sim.Interp.Out_of_fuel -> "out of fuel"
    | exception Sim.Interp.Runtime_error m -> m
  in
  ending, List.rev !seen, log_entries log

let same_logging ?fuel ?clear ~logged name p =
  let r = logging_run ?fuel ?clear ~logged Sim.Interp.Reference p in
  if logging_run ?fuel ?clear ~logged Sim.Interp.Staged p <> r then
    Alcotest.failf "%s: the engines' store logs differ" name;
  r

let every _ = true

(* Three arrays of two kinds, one stored on one path only. *)
let logged_src =
  {|int n[8]; float a[8]; float b[8];
    int main() {
      for (int i = 0; i < 5; i++) {
        n[i] = i * 2;
        a[7 - i] = (float)i;
        if (i % 2 == 0) { b[i] = a[7 - i] + 1.0; }
      }
      n[6] = 42;
      return n[6];
    }|}

let test_log_arrays () =
  let p = (Cayman_frontend.Lower.compile logged_src :> Ir.Cfg.program) in
  let ending, _, log = same_logging ~logged:every "every block" p in
  Alcotest.(check string) "run completes" "completed" ending;
  Alcotest.(check (list (pair string int)))
    "every store, in order"
    [ "n", 0; "a", 7; "b", 0; "n", 1; "a", 6; "n", 2; "a", 5; "b", 2;
      "n", 3; "a", 4; "n", 4; "a", 3; "b", 4; "n", 6 ]
    log;
  let _, _, none = same_logging ~logged:(fun _ -> false) "no block" p in
  Alcotest.(check int) "unmarked blocks log nothing" 0 (List.length none);
  (* every split of the blocks logs its part of the same order *)
  List.iter
    (fun seed ->
      ignore
        (same_logging
           ~logged:(fun l -> Hashtbl.hash (seed, l) mod 2 = 0)
           (Printf.sprintf "block subset %d" seed)
           p))
    [ 1; 2; 3; 4 ]

(* The fourth iteration's store faults: what was logged before stays,
   and the faulting store is not logged. *)
let test_log_fault () =
  let fault_src kind =
    Printf.sprintf
      {|int n[8]; float a[8];
        int main() {
          for (int i = 0; i < 5; i++) {
            %s
          }
          return 0;
        }|}
      (if kind = `Int then "a[i] = 1.0; n[i * 3] = i;"
       else "n[i] = i; a[i * 3] = 1.0;")
  in
  List.iter
    (fun (kind, name, logged, msg) ->
      let p =
        (Cayman_frontend.Lower.compile (fault_src kind) :> Ir.Cfg.program)
      in
      let ending, _, log = same_logging ~logged:every name p in
      Alcotest.(check string) (name ^ ": fault") msg ending;
      Alcotest.(check (list (pair string int))) (name ^ ": log") logged log)
    [ ( `Int, "int store",
        [ "a", 0; "n", 0; "a", 1; "n", 3; "a", 2; "n", 6; "a", 3 ],
        "memory fault: index 9 out of bounds for n[8]" );
      ( `Float, "float store",
        [ "n", 0; "a", 0; "n", 1; "a", 3; "n", 2; "a", 6; "n", 3 ],
        "memory fault: index 9 out of bounds for a[8]" ) ]

(* Fuel running out at any point of the run, inside a logged block
   included, leaves the same log and records on both engines. *)
let test_log_fuel () =
  let p = (Cayman_frontend.Lower.compile logged_src :> Ir.Cfg.program) in
  let res = Sim.Interp.run ~engine:Sim.Interp.Reference p in
  let n = fuel_needed p.Ir.Cfg.program res.Sim.Interp.profile in
  for fuel = 0 to n + 1 do
    let ending, _, _ =
      same_logging ~fuel ~logged:every (Printf.sprintf "fuel %d" fuel) p
    in
    Alcotest.(check string)
      (Printf.sprintf "fuel %d ends" fuel)
      (if fuel < n then "out of fuel" else "completed")
      ending
  done

(* A handler may clear the log: both engines append after it in the
   same way. *)
let test_log_clear () =
  let p = (Cayman_frontend.Lower.compile logged_src :> Ir.Cfg.program) in
  let _, seen, _ = same_logging ~clear:every ~logged:every "clear at every block" p in
  if List.for_all (fun (_, log) -> log = []) seen then
    Alcotest.fail "no block saw a logged store";
  List.iter
    (fun seed ->
      ignore
        (same_logging
           ~clear:(fun l -> Hashtbl.hash (seed, l) mod 3 = 0)
           ~logged:every
           (Printf.sprintf "clear subset %d" seed)
           p))
    [ 1; 2; 3 ]

(* [Interp.read] answers for the declared registers only; a register
   the function lacks reads [None]. Any other read raises the same
   [Invalid_argument] on both engines, at a block and at a return. *)
let test_undeclared_read () =
  let p = (Cayman_frontend.Lower.compile logged_src :> Ir.Cfg.program) in
  let run engine ~at_return =
    let watch f = Some { Sim.Interp.w_reads = [ "nosuch" ]; w_run = f } in
    let observer =
      { Sim.Interp.obs_block =
          (fun ~func:_ ~label:_ ->
            if at_return then None
            else
              watch (fun ~regs ~mem:_ ->
                  if Sim.Interp.read regs "nosuch" <> None then
                    Alcotest.fail "a register the function lacks was read";
                  ignore (Sim.Interp.read regs "i" : Sim.Value.t option)));
        obs_return =
          (fun ~func:_ ->
            watch (fun ~regs ~value:_ ~mem:_ ->
                ignore (Sim.Interp.read regs "i" : Sim.Value.t option)));
        obs_logged = unlogged;
        obs_log = Sim.Memory.Log.create () }
    in
    match Sim.Interp.run ~engine ~observer p with
    | _ -> "completed"
    | exception Invalid_argument m -> m
  in
  List.iter
    (fun (at_return, want) ->
      List.iter
        (fun engine ->
          Alcotest.(check string)
            (Sim.Interp.engine_name engine)
            want (run engine ~at_return))
        [ Sim.Interp.Reference; Sim.Interp.Staged ])
    [ ( false,
        "Interp: the watch point at main/entry0 reads undeclared register %i" );
      ( true,
        "Interp: the watch point at main/<return> reads undeclared register \
         %i" ) ]

(* Reads by position agree on both engines at every block and return:
   whether each declared register is defined, its value typed and
   boxed, and the error a typed read of an undefined register, of one
   of another type, or past the last position raises. *)
let test_typed_reads () =
  let p = (Cayman_frontend.Lower.compile logged_src :> Ir.Cfg.program) in
  (* a register the function lacks, an i32, an f32 and a bool *)
  let declared = [ "nosuch"; "i0"; "t4"; "t1" ] in
  let attempt f =
    match f () with
    | s -> s
    | exception Invalid_argument m -> "raised: " ^ m
  in
  let snap regs =
    List.init
      (List.length declared + 1)
      (fun k ->
        String.concat " | "
          [ attempt (fun () -> string_of_bool (Sim.Interp.reg_defined regs k));
            attempt (fun () -> string_of_int (Sim.Interp.reg_int regs k));
            attempt (fun () -> Printf.sprintf "%h" (Sim.Interp.reg_float regs k));
            attempt (fun () -> pp_value_opt (Sim.Interp.reg_value regs k)) ])
  in
  let run engine =
    let seen = ref [] in
    let watch label =
      { Sim.Interp.w_reads = declared;
        w_run = (fun ~regs -> seen := (label, snap regs) :: !seen) }
    in
    let observer =
      { Sim.Interp.obs_block =
          (fun ~func:_ ~label ->
            let w = watch label in
            Some { w with Sim.Interp.w_run = (fun ~regs ~mem:_ -> w.w_run ~regs) });
        obs_return =
          (fun ~func:_ ->
            let w = watch "<return>" in
            Some
              { w with
                Sim.Interp.w_run = (fun ~regs ~value:_ ~mem:_ -> w.w_run ~regs) });
        obs_logged = unlogged;
        obs_log = Sim.Memory.Log.create () }
    in
    ignore (Sim.Interp.run ~engine ~observer p : Sim.Interp.result);
    List.rev !seen
  in
  let r = run Sim.Interp.Reference in
  Alcotest.(check (list (pair string (list string))))
    "typed reads" r (run Sim.Interp.Staged);
  let all = List.concat_map snd r in
  List.iter
    (fun want ->
      if not (List.mem want all) then Alcotest.failf "no read gave %s" want)
    [ "true | 5 | raised: Interp.reg_float: declared register 1 is not a \
       defined register of that type | 5";
      "true | raised: Interp.reg_int: declared register 2 is not a defined \
       register of that type | 0x1p+2 | 4";
      "true | 1 | raised: Interp.reg_float: declared register 3 is not a \
       defined register of that type | true" ]

(* ------------------------------------------------------------------ *)
(* Engine selection plumbing                                           *)
(* ------------------------------------------------------------------ *)

let test_engine_selection () =
  Alcotest.(check string) "env var" "CAYMAN_INTERP" Sim.Interp.engine_env_var;
  let eng = Alcotest.testable
      (Fmt.of_to_string Sim.Interp.engine_name) ( = )
  in
  Alcotest.(check (option eng)) "parse staged" (Some Sim.Interp.Staged)
    (Sim.Interp.engine_of_string "staged");
  Alcotest.(check (option eng)) "parse reference" (Some Sim.Interp.Reference)
    (Sim.Interp.engine_of_string " Reference ");
  Alcotest.(check (option eng)) "parse garbage" None
    (Sim.Interp.engine_of_string "jit");
  (* Override wins over the environment and is restored by with_engine.
     The ambient CAYMAN_INTERP (set by the CI matrix) is restored
     afterwards so the remaining suites keep running under it. *)
  let saved = Sys.getenv_opt Sim.Interp.engine_env_var in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Sim.Interp.engine_env_var (Option.value saved ~default:"");
      Sim.Interp.clear_engine ())
    (fun () ->
      Unix.putenv Sim.Interp.engine_env_var "reference";
      Sim.Interp.clear_engine ();
      Alcotest.(check eng) "env respected" Sim.Interp.Reference
        (Sim.Interp.current_engine ());
      Sim.Interp.with_engine Sim.Interp.Staged (fun () ->
          Alcotest.(check eng) "override wins" Sim.Interp.Staged
            (Sim.Interp.current_engine ()));
      Alcotest.(check eng) "override restored" Sim.Interp.Reference
        (Sim.Interp.current_engine ());
      Unix.putenv Sim.Interp.engine_env_var "";
      Sim.Interp.clear_engine ();
      Alcotest.(check eng) "default is staged" Sim.Interp.default_engine
        (Sim.Interp.current_engine ()))

let tests =
  [ test_diff_memo;
    test_diff_typed;
    test_diff_cache;
    test_fuel_boundary;
    test_watch_subset;
    test_watch_subset_memo;
    Alcotest.test_case "exact error-message parity" `Quick
      test_error_messages;
    Alcotest.test_case "proven-index bounds faults" `Quick
      test_proven_index_faults;
    Alcotest.test_case "one-path definition keeps def bytes" `Quick
      test_one_path_def;
    Alcotest.test_case "observed run sees elided def bytes" `Quick
      test_observed_elided_defs;
    Alcotest.test_case "malformed CFGs fall back with identical outcomes"
      `Quick test_malformed_cfgs;
    Alcotest.test_case "unreachable latch of a reachable loop header" `Quick
      test_dead_latch;
    Alcotest.test_case "cache stats on specialised paths" `Quick
      test_spec_cache;
    Alcotest.test_case "fuel boundary on specialised paths" `Quick
      test_spec_fuel_boundary;
    Alcotest.test_case "hot path does not allocate" `Quick
      test_hot_path_no_alloc;
    Alcotest.test_case "fused compare register read in successors" `Quick
      test_fused_register_read;
    Alcotest.test_case "fused compare with unproven operands" `Quick
      test_fused_unproven_operand;
    Alcotest.test_case "fuel boundary at a fused loop header" `Quick
      test_fused_fuel_boundary;
    Alcotest.test_case "float compare with NaN feeding a branch" `Quick
      test_float_compare_branch;
    Alcotest.test_case "blocks with no instructions" `Quick test_empty_blocks;
    Alcotest.test_case "def bytes before a watched return" `Quick
      test_defs_before_return;
    Alcotest.test_case "fused address link reads in successors" `Quick
      test_fused_address_reads;
    Alcotest.test_case "fused address link register reuse" `Quick
      test_fused_register_reuse;
    Alcotest.test_case "fused load bounds faults and cache" `Quick
      test_fused_load_bounds;
    Alcotest.test_case "fused address link with unproven operands" `Quick
      test_fused_unproven_add;
    Alcotest.test_case "fuel boundary at a fused latch" `Quick
      test_fused_latch_fuel;
    Alcotest.test_case "fused links do not allocate" `Quick
      test_fused_no_alloc;
    Alcotest.test_case "staged block counts equal the reference's" `Quick
      test_derived_block_counts;
    Alcotest.test_case "fuel boundary in a threaded loop nest" `Quick
      test_threaded_nest_fuel;
    Alcotest.test_case "integer compares in a threaded header" `Quick
      test_threaded_compares;
    Alcotest.test_case "watched and def-byte headers are not threaded" `Quick
      test_unthreaded_headers;
    Alcotest.test_case "threaded headers entered several ways" `Quick
      test_threaded_mixed_entries;
    Alcotest.test_case "threaded links do not allocate" `Quick
      test_threaded_no_alloc;
    Alcotest.test_case "profile flow conservation" `Quick
      test_flow_conservation;
    Alcotest.test_case "28-benchmark suite parity" `Quick test_suite_parity;
    Alcotest.test_case "fig6 observer-stream parity" `Quick
      test_fig6_observer_parity;
    Alcotest.test_case "an exception from a watch handler" `Quick
      test_watch_exception;
    Alcotest.test_case "store log across arrays" `Quick test_log_arrays;
    Alcotest.test_case "a faulting store is not logged" `Quick test_log_fault;
    Alcotest.test_case "fuel boundary in logged blocks" `Quick test_log_fuel;
    Alcotest.test_case "a handler clears the store log" `Quick test_log_clear;
    Alcotest.test_case "an undeclared read raises" `Quick test_undeclared_read;
    Alcotest.test_case "typed reads by position" `Quick test_typed_reads;
    Alcotest.test_case "engine selection plumbing" `Quick
      test_engine_selection ]
