(* Environment-driven determinism harness, run by dune's runtest alias
   once with CAYMAN_JOBS=1 and once with CAYMAN_JOBS=4 (see test/dune):
   whatever the environment says, the engine must resolve it and the
   selection frontier must match the explicit sequential baseline
   bit-for-bit.

   Exits non-zero on the first violation; plain asserts keep this
   executable independent of the Alcotest main suite. *)

module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let () =
  let expected_jobs =
    match Array.to_list Sys.argv with
    | [ _; "--expect-jobs"; n ] -> int_of_string n
    | _ -> fail "usage: test_jobs.exe --expect-jobs N"
  in
  (* 1. the environment variable reaches the engine *)
  let resolved = Engine.Config.jobs () in
  if resolved <> expected_jobs then
    fail "CAYMAN_JOBS resolution: expected %d, engine resolved %d"
      expected_jobs resolved;
  (* 2. pool smoke test under the env-resolved job count *)
  let xs = List.init 32 (fun i -> i) in
  let squares = Engine.Pool.map (fun i -> i * i) xs in
  if squares <> List.map (fun i -> i * i) xs then
    fail "pool map order violated under CAYMAN_JOBS=%d" resolved;
  (* 3. end-to-end: env-driven selection equals the sequential run.
     Metrics are snapshotted around each run so the schedule-independent
     subset (counters + histograms) can be compared bit-for-bit. *)
  let atax = Suite.compile (Suite.find_exn "atax") in
  let a = Core.Cayman.analyze atax in
  Obs.Metrics.reset ();
  let seq_run = Core.Cayman.run ~jobs:1 ~mode:Hls.Kernel.Heuristic a in
  let seq_metrics = Obs.Metrics.deterministic_snapshot () in
  Obs.Metrics.reset ();
  let env_run = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
  let env_metrics = Obs.Metrics.deterministic_snapshot () in
  if
    not
      (Core.Solution.equal_frontier env_run.Core.Cayman.frontier
         seq_run.Core.Cayman.frontier)
  then fail "frontier differs between CAYMAN_JOBS=%d and jobs=1" resolved;
  if env_run.Core.Cayman.stats <> seq_run.Core.Cayman.stats then
    fail "selection stats differ between CAYMAN_JOBS=%d and jobs=1" resolved;
  (* 4. the deterministic metric subset is bit-identical across job
     counts: same names in the same order, same values *)
  if List.length seq_metrics = 0 then
    fail "deterministic_snapshot is empty after an instrumented run";
  if seq_metrics <> env_metrics then begin
    if List.length seq_metrics = List.length env_metrics then
      List.iter2
        (fun (n1, s1) (n2, s2) ->
          if n1 <> n2 || s1 <> s2 then
            Printf.eprintf "  metric %s/%s differs\n" n1 n2)
        seq_metrics env_metrics
    else
      Printf.eprintf "  %d vs %d metrics registered\n"
        (List.length seq_metrics)
        (List.length env_metrics);
    fail "deterministic metrics differ between CAYMAN_JOBS=%d and jobs=1"
      resolved
  end;
  (* 5. warm-cache determinism: against a private memoization store, a
     cold analysis primes the cache with the profile; warm analyses plus
     runs at jobs=1 and at the env-resolved job count must then
     reproduce the cache-off frontier bit-for-bit, with bit-identical
     deterministic metrics between the two warm runs and a nonzero disk
     hit count (the phases above ran with the store disabled — the
     library default — so their metric comparisons are unaffected). *)
  Memo.Store.with_private_store
    (fun _ ->
      if not (Memo.Store.active ()) then
        fail "private memoization store failed to enable";
      let cold =
        Core.Cayman.run ~mode:Hls.Kernel.Heuristic (Core.Cayman.analyze atax)
      in
      if
        not
          (Core.Solution.equal_frontier cold.Core.Cayman.frontier
             seq_run.Core.Cayman.frontier)
      then fail "cold cached frontier differs from the cache-off frontier";
      let warm_run jobs =
        Memo.Store.reset_memory ();
        Obs.Metrics.reset ();
        let r =
          Core.Cayman.run ?jobs ~mode:Hls.Kernel.Heuristic
            (Core.Cayman.analyze atax)
        in
        r, Obs.Metrics.deterministic_snapshot ()
      in
      let warm_seq, warm_seq_metrics = warm_run (Some 1) in
      let warm_env, warm_env_metrics = warm_run None in
      let hits =
        Obs.Metrics.value (Obs.Metrics.counter "memo.disk_hits")
      in
      if
        not
          (Core.Solution.equal_frontier warm_seq.Core.Cayman.frontier
             seq_run.Core.Cayman.frontier)
      then fail "warm jobs=1 frontier differs from the cache-off frontier";
      if
        not
          (Core.Solution.equal_frontier warm_env.Core.Cayman.frontier
             seq_run.Core.Cayman.frontier)
      then
        fail "warm CAYMAN_JOBS=%d frontier differs from the cache-off \
              frontier" resolved;
      if warm_seq_metrics <> warm_env_metrics then
        fail "warm-cache deterministic metrics differ between jobs=1 and \
              CAYMAN_JOBS=%d" resolved;
      if hits <= 0 then
        fail "warm run recorded no memoization disk hits";
      Printf.printf
        "test_jobs: warm cache ok (%d disk hits at CAYMAN_JOBS=%d)\n" hits
        resolved);
  (* 6. staged-vs-reference engine parity, under the env-resolved job
     count: the interpreter engine must be invisible to every consumer —
     profiles (Marshal bytes), selection frontiers and stats, cosim
     reports (rendered bytes), and the memoization store (whose profile
     digests are keyed by program + fuel only, so entries written under
     one engine are hits under the other). *)
  let module Sim = Cayman_sim in
  let program = a.Core.Cayman.program in
  let profile_digest e =
    Sim.Interp.with_engine e (fun () ->
        Digest.string
          (Marshal.to_string
             (Sim.Interp.run (program :> Cayman_ir.Cfg.program)).Sim.Interp.profile []))
  in
  if profile_digest Sim.Interp.Reference <> profile_digest Sim.Interp.Staged
  then fail "profile Marshal bytes differ between engines";
  let run_under e =
    Sim.Interp.with_engine e (fun () ->
        let a' = Core.Cayman.analyze (Suite.compile (Suite.find_exn "atax")) in
        a', Core.Cayman.run ~mode:Hls.Kernel.Heuristic a')
  in
  let a_ref, r_ref = run_under Sim.Interp.Reference in
  let _a_stg, r_stg = run_under Sim.Interp.Staged in
  if
    not
      (Core.Solution.equal_frontier r_ref.Core.Cayman.frontier
         r_stg.Core.Cayman.frontier)
  then fail "selection frontier differs between engines";
  if
    not
      (Core.Solution.equal_frontier r_ref.Core.Cayman.frontier
         seq_run.Core.Cayman.frontier)
  then fail "engine-pinned frontier differs from the ambient-engine run";
  if r_ref.Core.Cayman.stats <> r_stg.Core.Cayman.stats then
    fail "selection stats differ between engines";
  let specs =
    Core.Cayman.kernels a_ref
      (Core.Cayman.best_under_ratio r_ref ~budget_ratio:0.25)
  in
  if specs = [] then fail "engine parity phase found no kernels to co-simulate";
  let cosim_text e =
    Sim.Interp.with_engine e (fun () ->
        String.concat "\n---\n"
          (List.map Rtl.Cosim.report_to_string
             (Rtl.Cosim.run_many a_ref.Core.Cayman.program specs)))
  in
  let cosim_ref = cosim_text Sim.Interp.Reference in
  if cosim_ref <> cosim_text Sim.Interp.Staged then
    fail "cosim reports differ between engines";
  (* Cross-engine warm cache: prime a private store under the reference
     engine, then read it back under the staged engine. *)
  Memo.Store.with_private_store
    (fun _ ->
      let _ = Sim.Interp.with_engine Sim.Interp.Reference (fun () ->
          let a' =
            Core.Cayman.analyze (Suite.compile (Suite.find_exn "atax"))
          in
          Core.Cayman.run ~mode:Hls.Kernel.Heuristic a')
      in
      Memo.Store.reset_memory ();
      Obs.Metrics.reset ();
      let warm_stg = Sim.Interp.with_engine Sim.Interp.Staged (fun () ->
          let a' =
            Core.Cayman.analyze (Suite.compile (Suite.find_exn "atax"))
          in
          Core.Cayman.run ~mode:Hls.Kernel.Heuristic a')
      in
      let hits = Obs.Metrics.value (Obs.Metrics.counter "memo.disk_hits") in
      if hits <= 0 then
        fail "staged run missed the reference-engine-primed cache \
              (profile digests must be engine-independent)";
      if
        not
          (Core.Solution.equal_frontier warm_stg.Core.Cayman.frontier
             r_ref.Core.Cayman.frontier)
      then fail "cross-engine warm frontier differs");
  Printf.printf
    "test_jobs: engine parity ok (reference = staged on profiles, \
     frontiers, cosim, warm cache)\n";
  Printf.printf
    "test_jobs: ok (CAYMAN_JOBS=%d, CAYMAN_INTERP=%s, %d frontier \
     solutions, %d deterministic metrics)\n"
    resolved
    (Sim.Interp.engine_name (Sim.Interp.current_engine ()))
    (List.length env_run.Core.Cayman.frontier)
    (List.length seq_metrics)
