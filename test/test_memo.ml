(* Tests for lib/memo: the key builder, alpha-equivalent structural
   hashing (rename invariance + single-mutation sensitivity, both as
   QCheck properties over random CFGs), the on-disk content-addressed
   store (round-trip, corruption tolerance, gc, clear safety), and
   end-to-end cached-vs-uncached equality of selection frontiers and
   co-simulation reports. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Hls = Cayman_hls

(* ------------------------------------------------------------------ *)
(* Temp-store helpers                                                  *)
(* ------------------------------------------------------------------ *)

(* Run [f] against a private enabled store; the ambient store (off in
   the other suites) is restored afterwards. *)
let with_store f =
  Memo.Store.with_private_store @@ fun dir ->
  Alcotest.(check bool) "store enabled" true (Memo.Store.active ());
  f dir

let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

(* Object files of a store directory (leaves under objects/). *)
let object_files dir =
  let obj = Filename.concat dir "objects" in
  if not (Sys.file_exists obj) then []
  else
    Array.to_list (Sys.readdir obj)
    |> List.concat_map (fun d ->
           let sub = Filename.concat obj d in
           if Sys.is_directory sub then
             Array.to_list (Sys.readdir sub)
             |> List.map (Filename.concat sub)
           else [])

(* ------------------------------------------------------------------ *)
(* Key builder                                                         *)
(* ------------------------------------------------------------------ *)

let test_builder () =
  let d feed =
    let b = Memo.Hash.builder ~ns:"t" in
    feed b;
    Memo.Hash.digest b
  in
  Alcotest.(check string) "deterministic"
    (d (fun b -> Memo.Hash.str b "x"; Memo.Hash.int b 7))
    (d (fun b -> Memo.Hash.str b "x"; Memo.Hash.int b 7));
  (* fields are self-delimiting: no sliding between adjacent strings *)
  Alcotest.(check bool) "no field sliding" true
    (d (fun b -> Memo.Hash.str b "ab"; Memo.Hash.str b "c")
    <> d (fun b -> Memo.Hash.str b "a"; Memo.Hash.str b "bc"));
  Alcotest.(check bool) "int vs string" true
    (d (fun b -> Memo.Hash.int b 1) <> d (fun b -> Memo.Hash.str b "1"));
  Alcotest.(check bool) "float bits" true
    (d (fun b -> Memo.Hash.float b 0.1)
    <> d (fun b -> Memo.Hash.float b 0.2));
  Alcotest.(check bool) "int_opt none vs some" true
    (d (fun b -> Memo.Hash.int_opt b None)
    <> d (fun b -> Memo.Hash.int_opt b (Some 0)));
  (* the field bytes are part of every stored key: an int is its
     decimal rendering, a string its length then its bytes *)
  List.iter
    (fun n ->
      Alcotest.(check string) (string_of_int n)
        (Digest.to_hex
           (Digest.string
              (Memo.Hash.version ^ "/t\ni" ^ string_of_int n ^ ";s3:abc")))
        (d (fun b -> Memo.Hash.int b n; Memo.Hash.str b "abc")))
    [ 0; 7; -7; 10; -10; 1234567; max_int; min_int ];
  let other_ns =
    let b = Memo.Hash.builder ~ns:"u" in
    Memo.Hash.str b "x";
    Memo.Hash.int b 7;
    Memo.Hash.digest b
  in
  Alcotest.(check bool) "namespace separates" true
    (other_ns <> d (fun b -> Memo.Hash.str b "x"; Memo.Hash.int b 7))

(* ------------------------------------------------------------------ *)
(* Random CFGs for the canonicalizer properties                        *)
(* ------------------------------------------------------------------ *)

(* The random CFG generator itself lives in [Fleet.Genprog] (promoted
   from this file so the fleet subsystem can reuse it); the rename and
   mutation transforms below stay test-local — they exist only to state
   the canonicalizer's invariance/sensitivity properties. *)

let arb_func = Fleet.Genprog.arb_ir_func

(* A bijective rename of every register and label (array bases are
   program symbols and stay put — the canonicalizer must keep them). *)
let rename_func (f : Ir.Func.t) =
  let rr (r : Ir.Instr.reg) = { r with Ir.Instr.id = "zz_" ^ r.Ir.Instr.id } in
  let rl l = "Q" ^ l ^ "_renamed" in
  let rop = function
    | Ir.Instr.Reg r -> Ir.Instr.Reg (rr r)
    | (Ir.Instr.Imm_int _ | Ir.Instr.Imm_float _ | Ir.Instr.Imm_bool _) as o
      -> o
  in
  let rmem (m : Ir.Instr.mem_ref) =
    { m with Ir.Instr.index = rop m.Ir.Instr.index }
  in
  let rinstr = function
    | Ir.Instr.Assign (r, a) -> Ir.Instr.Assign (rr r, rop a)
    | Ir.Instr.Unary (r, op, a) -> Ir.Instr.Unary (rr r, op, rop a)
    | Ir.Instr.Binary (r, op, a, b) ->
      Ir.Instr.Binary (rr r, op, rop a, rop b)
    | Ir.Instr.Compare (r, op, a, b) ->
      Ir.Instr.Compare (rr r, op, rop a, rop b)
    | Ir.Instr.Select (r, c, a, b) ->
      Ir.Instr.Select (rr r, rop c, rop a, rop b)
    | Ir.Instr.Load (r, m) -> Ir.Instr.Load (rr r, rmem m)
    | Ir.Instr.Store (m, v) -> Ir.Instr.Store (rmem m, rop v)
    | Ir.Instr.Call (r, name, args) ->
      Ir.Instr.Call (Option.map rr r, name, List.map rop args)
  in
  let rterm = function
    | Ir.Instr.Jump l -> Ir.Instr.Jump (rl l)
    | Ir.Instr.Branch (c, t, e) -> Ir.Instr.Branch (rop c, rl t, rl e)
    | Ir.Instr.Return v -> Ir.Instr.Return (Option.map rop v)
  in
  Ir.Func.v ~name:f.Ir.Func.name
    ~params:(List.map rr f.Ir.Func.params)
    ~ret:f.Ir.Func.ret
    ~blocks:
      (List.map
         (fun (b : Ir.Block.t) ->
           Ir.Block.v ~label:(rl b.Ir.Block.label)
             ~instrs:(List.map rinstr b.Ir.Block.instrs)
             ~term:(rterm b.Ir.Block.term))
         f.Ir.Func.blocks)

let canon_of f = Memo.Hash.canon_region f (Testutil.pst f)

let test_rename_invariance =
  Testutil.qtest ~count:150 "canon_code is rename-invariant" arb_func
    (fun f ->
      let g = rename_func f in
      let cf = canon_of f and cg = canon_of g in
      if cf.Memo.Hash.code <> cg.Memo.Hash.code then
        QCheck.Test.fail_reportf "canon differs under rename:\n%s\n--\n%s"
          cf.Memo.Hash.code cg.Memo.Hash.code;
      (* the canonical names of corresponding originals agree too *)
      List.iter2
        (fun l l' ->
          if
            cf.Memo.Hash.label_name l <> cg.Memo.Hash.label_name l'
          then QCheck.Test.fail_reportf "label canon differs for %s" l)
        cf.Memo.Hash.block_order cg.Memo.Hash.block_order;
      (* renaming is visible in the exact listing whenever the function
         has at least one named thing (it always has a terminator label
         or register here) *)
      let exact f = (Memo.Hash.exact_region f (Testutil.pst f)).Memo.Hash.code in
      exact f <> exact g)

(* Canonical names go out in a fixed order that stored keys depend on:
   within an instruction, operands last to first, then the destination;
   a store's value before its index; a call's destination before its
   arguments, which go left to right. *)
let test_canon_naming_order () =
  let r id ty = Ir.Instr.reg id ty in
  let reg id ty = Ir.Instr.Reg (r id ty) in
  let i32 = Ir.Types.I32 and f32 = Ir.Types.F32 in
  let blk =
    Ir.Block.v ~label:"entry"
      ~instrs:
        [ Ir.Instr.Binary (r "c" i32, Ir.Op.Add, reg "a" i32, reg "b" i32);
          Ir.Instr.Store ({ Ir.Instr.base = "A"; index = reg "i" i32 }, reg "v" f32);
          Ir.Instr.Select (r "s" f32, reg "p" Ir.Types.Bool, reg "x" f32, reg "y" f32);
          Ir.Instr.Call (Some (r "d" i32), "g", [ reg "m" i32; reg "n" i32 ]) ]
      ~term:(Ir.Instr.Return (Some (reg "d" i32)))
  in
  let f = Ir.Func.v ~name:"f" ~params:[] ~ret:(Some i32) ~blocks:[ blk ] in
  let code = (canon_of f).Memo.Hash.code in
  Alcotest.(check string) "canonical listing"
    "region whole blocks=1\n\
     B0:\n\
    \ %r2:i32 = add %r1:i32, %r0:i32\n\
    \ store A[%r4:i32], %r3:f32\n\
    \ %r8:f32 = select %r7:bool, %r6:f32, %r5:f32\n\
    \ %r9:i32 = call g(%r10:i32, %r11:i32)\n\
    \ return %r9:i32\n"
    code

(* One point mutation to the first instruction of the first block that
   has one: any semantic change must change the canonical listing. *)
let mutate_func (f : Ir.Func.t) =
  let bump = function
    | Ir.Instr.Imm_int n -> Ir.Instr.Imm_int (n + 1)
    | Ir.Instr.Imm_float x -> Ir.Instr.Imm_float (x +. 1.0)
    | Ir.Instr.Imm_bool b -> Ir.Instr.Imm_bool (not b)
    | Ir.Instr.Reg _ -> Ir.Instr.Imm_int 424242
  in
  let mutate_instr = function
    | Ir.Instr.Assign (r, a) -> Ir.Instr.Assign (r, bump a)
    | Ir.Instr.Unary (r, op, a) -> Ir.Instr.Unary (r, op, bump a)
    | Ir.Instr.Binary (r, op, a, b) ->
      let op' = if op = Ir.Op.Fadd then Ir.Op.Fsub else Ir.Op.Fadd in
      Ir.Instr.Binary (r, op', a, b)
    | Ir.Instr.Compare (r, op, a, b) -> Ir.Instr.Compare (r, op, bump a, b)
    | Ir.Instr.Select (r, c, a, b) -> Ir.Instr.Select (r, c, bump a, b)
    | Ir.Instr.Load (r, m) ->
      Ir.Instr.Load (r, { m with Ir.Instr.base = m.Ir.Instr.base ^ "2" })
    | Ir.Instr.Store (m, v) -> Ir.Instr.Store (m, bump v)
    | Ir.Instr.Call (r, name, args) -> Ir.Instr.Call (r, name ^ "2", args)
  in
  let mutated = ref false in
  let blocks =
    List.map
      (fun (b : Ir.Block.t) ->
        match b.Ir.Block.instrs with
        | i :: rest when not !mutated ->
          mutated := true;
          Ir.Block.v ~label:b.Ir.Block.label
            ~instrs:(mutate_instr i :: rest)
            ~term:b.Ir.Block.term
        | _ -> b)
      f.Ir.Func.blocks
  in
  if !mutated then
    Some
      (Ir.Func.v ~name:f.Ir.Func.name ~params:f.Ir.Func.params
         ~ret:f.Ir.Func.ret ~blocks)
  else None

let test_mutation_sensitivity =
  Testutil.qtest ~count:150 "canon_code is mutation-sensitive" arb_func
    (fun f ->
      match mutate_func f with
      | None -> QCheck.assume_fail ()
      | Some g ->
        let cf = canon_of f and cg = canon_of g in
        if cf.Memo.Hash.code = cg.Memo.Hash.code then
          QCheck.Test.fail_reportf
            "mutation did not change canon:\n%s" cf.Memo.Hash.code;
        true)

(* ------------------------------------------------------------------ *)
(* Store round-trip, compute-once, corruption, gc, clear               *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_store @@ fun _dir ->
  let v = ([ 1; 2; 3 ], "payload", 0.5) in
  Memo.Store.save ~ns:"test" ~key:"k1" v;
  (match Memo.Store.find ~ns:"test" ~key:"k1" with
   | Some got ->
     Alcotest.(check bool) "round-trips" true (got = v)
   | None -> Alcotest.fail "saved entry not found");
  Alcotest.(check bool) "missing key misses" true
    (Memo.Store.find ~ns:"test" ~key:"other" = (None : int option));
  (* same key, different namespace: distinct entries *)
  Alcotest.(check bool) "namespace isolates" true
    (Memo.Store.find ~ns:"test2" ~key:"k1" = (None : int option))

let test_memoize_compute_once () =
  with_store @@ fun _dir ->
  let calls = ref 0 in
  let f () = incr calls; !calls * 100 in
  let a = Memo.Store.memoize ~ns:"m" ~key:"k" f in
  let b = Memo.Store.memoize ~ns:"m" ~key:"k" f in
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "same value" a b;
  (* a fresh process (simulated by dropping the in-memory table) reads
     the disk entry instead of recomputing *)
  Memo.Store.reset_memory ();
  let hits0 = counter "memo.disk_hits" in
  let c = Memo.Store.memoize ~ns:"m" ~key:"k" f in
  Alcotest.(check int) "disk hit, not recomputed" 1 !calls;
  Alcotest.(check int) "disk value equals computed" a c;
  Alcotest.(check bool) "disk_hits incremented" true
    (counter "memo.disk_hits" > hits0);
  (* a failing computation propagates and caches nothing *)
  (match
     Memo.Store.memoize ~ns:"m" ~key:"boom" (fun () ->
         failwith "expected")
   with
  | (_ : int) -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "failure not cached" true
    (Memo.Store.find ~ns:"m" ~key:"boom" = (None : int option))

let test_corruption_tolerated () =
  with_store @@ fun dir ->
  Memo.Store.save ~ns:"test" ~key:"victim" [ "some"; "value" ];
  (* drop the in-run memory table so the reads below hit the disk *)
  Memo.Store.reset_memory ();
  let files = object_files dir in
  Alcotest.(check bool) "one object on disk" true (List.length files = 1);
  let path = List.hd files in
  (* truncate the entry mid-payload *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full / 2)));
  let corrupt0 = counter "memo.corrupt_entries" in
  Alcotest.(check bool) "truncated entry reads as miss" true
    (Memo.Store.find ~ns:"test" ~key:"victim" = (None : string list option));
  Alcotest.(check bool) "counted as corrupt" true
    (counter "memo.corrupt_entries" > corrupt0);
  (* scribbled garbage (not even the magic) also reads as a miss *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "not a cayman entry at all");
  Alcotest.(check bool) "garbage entry reads as miss" true
    (Memo.Store.find ~ns:"test" ~key:"victim" = (None : string list option));
  (* and the slot is rewritable afterwards *)
  Memo.Store.save ~ns:"test" ~key:"victim" [ "fresh" ];
  Memo.Store.reset_memory ();
  Alcotest.(check bool) "slot recovers on rewrite" true
    (Memo.Store.find ~ns:"test" ~key:"victim" = Some [ "fresh" ])

let test_gc_evicts () =
  with_store @@ fun dir ->
  let payload = String.make 10_000 'x' in
  for i = 1 to 5 do
    Memo.Store.save ~ns:"gc" ~key:(string_of_int i) (payload, i)
  done;
  match Memo.Store.ambient () with
  | None -> Alcotest.fail "ambient store missing"
  | Some t ->
    let s0 = Memo.Store.stats_of t in
    Alcotest.(check int) "five entries" 5 s0.Memo.Store.st_entries;
    let evicted, freed = Memo.Store.gc t ~max_bytes:25_000 in
    Alcotest.(check bool) "evicted some" true (evicted >= 1 && freed > 0);
    let s1 = Memo.Store.stats_of t in
    Alcotest.(check bool) "under the cap" true
      (s1.Memo.Store.st_bytes <= 25_000);
    Alcotest.(check bool) "kept some" true (s1.Memo.Store.st_entries >= 1);
    Alcotest.(check bool) "dir still a store" true (Memo.Store.is_store dir)

let test_clear_refuses_non_store () =
  (* a directory full of somebody else's files must not be cleared *)
  Memo.Store.with_temp_dir @@ fun dir ->
  let precious = Filename.concat dir "precious.txt" in
  Out_channel.with_open_bin precious (fun oc ->
      Out_channel.output_string oc "keep me");
  (match Memo.Store.clear dir with
   | Ok _ -> Alcotest.fail "cleared a non-store directory"
   | Error _ -> ());
  Alcotest.(check bool) "foreign file untouched" true
    (Sys.file_exists precious);
  Alcotest.(check bool) "not a store" true (not (Memo.Store.is_store dir));
  (* a real store clears fine *)
  with_store @@ fun sdir ->
  Memo.Store.save ~ns:"test" ~key:"k" 42;
  Memo.Store.reset_memory ();
  (match Memo.Store.clear sdir with
   | Ok n -> Alcotest.(check bool) "cleared entries" true (n >= 1)
   | Error e -> Alcotest.failf "clear refused a real store: %s" e);
  Alcotest.(check bool) "entry gone" true
    (Memo.Store.find ~ns:"test" ~key:"k" = (None : int option))

let test_open_store_refuses_nonempty () =
  Memo.Store.with_temp_dir @@ fun dir ->
  Out_channel.with_open_bin (Filename.concat dir "data") (fun oc ->
      Out_channel.output_string oc "unrelated");
  match Memo.Store.open_store dir with
  | Ok _ -> Alcotest.fail "opened a non-empty unmarked directory"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Cached vs recomputed: selection frontiers and cosim reports         *)
(* ------------------------------------------------------------------ *)

let flow_src =
  {|
const int N = 64;
float x[N]; float y[N];

void kernel(float k, float b) {
  for (int i = 0; i < N; i++) {
    y[i] = k * x[i] + b;
  }
}

int main() {
  for (int i = 0; i < N; i++) { x[i] = (float)i * 0.5; }
  for (int t = 0; t < 3; t++) { kernel(1.5, 2.0); }
  float s = 0.0;
  for (int i = 0; i < N; i++) { s += y[i]; }
  return (int)s;
}
|}

(* Selection itself keeps nothing in the store; what a warm run reuses
   is the profile, so the warm side analyses the source again. *)
let test_select_cached_equals_uncached () =
  Memo.Store.disable ();
  let base =
    Core.Cayman.run ~mode:Hls.Kernel.Heuristic
      (Core.Cayman.analyze_source flow_src)
  in
  with_store @@ fun _dir ->
  let cold =
    Core.Cayman.run ~mode:Hls.Kernel.Heuristic
      (Core.Cayman.analyze_source flow_src)
  in
  Memo.Store.reset_memory ();
  let hits0 = counter "memo.disk_hits" in
  let a = Core.Cayman.analyze_source flow_src in
  let warm = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
  Alcotest.(check bool) "cold frontier = uncached" true
    (Core.Solution.equal_frontier cold.Core.Cayman.frontier
       base.Core.Cayman.frontier);
  Alcotest.(check bool) "warm frontier = uncached" true
    (Core.Solution.equal_frontier warm.Core.Cayman.frontier
       base.Core.Cayman.frontier);
  Alcotest.(check bool) "warm run hit the disk" true
    (counter "memo.disk_hits" > hits0);
  Alcotest.(check bool) "frontier nonempty" true
    (base.Core.Cayman.frontier <> []);
  let lookups () =
    counter "memo.disk_hits" + counter "memo.disk_misses"
    + counter "memo.run_shared"
  in
  let lookups0 = lookups () and puts0 = counter "memo.puts" in
  ignore (Core.Cayman.run ~mode:Hls.Kernel.Heuristic a);
  Alcotest.(check int) "selection makes no store lookup" lookups0
    (lookups ());
  Alcotest.(check int) "selection makes no store put" puts0
    (counter "memo.puts")

(* Two programs that differ only in a float constant past its sixth
   significant digit: both print the constant as 0.01 under [%g], yet
   one more loop iteration passes the guard in the first. Each must get
   its own profile from a shared store, not the other's. *)
let guarded_src k =
  Printf.sprintf
    {|
const int N = 100;
float x[N];

int main() {
  int c = 0;
  for (int i = 0; i < N; i++) {
    if ((float)i * %s < 0.50000075) { c = c + 1; x[i] = 1.0; }
  }
  return c;
}
|}
    k

let test_float_constants_keep_profiles_apart () =
  let src_a = guarded_src "0.01000001" and src_b = guarded_src "0.01000002" in
  let instrs (a : Core.Cayman.analyzed) =
    Cayman_sim.Profile.total_instrs a.Core.Cayman.profile
  in
  let own_a, own_b =
    Memo.Store.without_cache (fun () ->
        ( Core.Cayman.analyze_source src_a,
          Core.Cayman.analyze_source src_b ))
  in
  Alcotest.(check bool) "the programs profile differently" true
    (instrs own_a <> instrs own_b);
  with_store @@ fun _dir ->
  ignore (Core.Cayman.analyze_source src_a);
  let b = Core.Cayman.analyze_source src_b in
  Alcotest.(check int) "B after A gets B's own profile" (instrs own_b)
    (instrs b);
  Alcotest.(check int) "B's own host cycles"
    (Cayman_sim.Profile.total_cycles own_b.Core.Cayman.profile)
    (Cayman_sim.Profile.total_cycles b.Core.Cayman.profile)

let test_cosim_cached_equals_uncached () =
  let a = Core.Cayman.analyze_source flow_src in
  Memo.Store.disable ();
  let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
  let sel = Core.Cayman.best_under_ratio r ~budget_ratio:0.25 in
  let specs = Core.Cayman.kernels a sel in
  Alcotest.(check bool) "has kernels to co-simulate" true (specs <> []);
  let program = a.Core.Cayman.program in
  let base = Rtl.Cosim.run_many program specs in
  with_store @@ fun _dir ->
  let cold = Rtl.Cosim.run_many program specs in
  Alcotest.(check bool) "cold reports = uncached" true (cold = base);
  Memo.Store.reset_memory ();
  let cached0 = counter "rtl.cosim_cached_reports" in
  let warm = Rtl.Cosim.run_many program specs in
  Alcotest.(check bool) "warm reports = uncached" true (warm = base);
  Alcotest.(check bool) "warm reports came from the cache" true
    (counter "rtl.cosim_cached_reports" >= cached0 + List.length specs)

(* ------------------------------------------------------------------ *)
(* Naming hygiene: Sim.Cache (data-cache model) vs Memo.Store          *)
(* ------------------------------------------------------------------ *)

(* [lib/sim]'s [Cache] simulates a hardware data cache; [Memo.Store] is
   the toolchain's memoization cache. The [memo] library deliberately
   has no module named [Cache], so opening both libraries cannot rebind
   the simulator's module (see the notes in sim/cache.mli and
   memo/store.mli). *)
let test_cache_naming () =
  let open Cayman_sim in
  let open Memo in
  (* after [open Memo], [Cache] still resolves to the simulator's module *)
  let (config : Cache.config) = Cache.default_l1 in
  Alcotest.(check bool) "sim data-cache geometry" true
    (config.Cache.sets > 0 && config.Cache.ways > 0
    && config.Cache.miss_cycles > config.Cache.hit_cycles);
  Alcotest.(check bool) "memo store is the other cache" true
    (not (Store.active ()) || true)

let tests =
  [ Alcotest.test_case "key builder fields" `Quick test_builder;
    test_rename_invariance;
    test_mutation_sensitivity;
    Alcotest.test_case "canonical naming order" `Quick test_canon_naming_order;
    Alcotest.test_case "store round-trip" `Quick test_roundtrip;
    Alcotest.test_case "memoize computes once" `Quick
      test_memoize_compute_once;
    Alcotest.test_case "corrupt entries read as misses" `Quick
      test_corruption_tolerated;
    Alcotest.test_case "gc evicts to the cap" `Quick test_gc_evicts;
    Alcotest.test_case "clear refuses non-store dirs" `Quick
      test_clear_refuses_non_store;
    Alcotest.test_case "open_store refuses non-empty dirs" `Quick
      test_open_store_refuses_nonempty;
    Alcotest.test_case "cached selection = uncached" `Slow
      test_select_cached_equals_uncached;
    Alcotest.test_case "cached cosim = uncached" `Slow
      test_cosim_cached_equals_uncached;
    Alcotest.test_case "float constants keep profiles apart" `Quick
      test_float_constants_keep_profiles_apart;
    Alcotest.test_case "Sim.Cache vs Memo naming" `Quick test_cache_naming ]
