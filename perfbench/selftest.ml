(* Tests of the benchmark's own code.

     selftest.exe MAIN_EXE GOLDEN_DIR

   Built and run by `dune build @perfbench/selftest`. *)

module W = Perfbench.Workloads
module Refloop = Perfbench_ref.Refloop

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* The reference loop runs no Cayman code: its library links nothing of
   the program's (see perfbench/dune), and running it moves no program
   counter and records no program span. *)
let test_reference_isolated () =
  let before = Obs.Metrics.snapshot () in
  Obs.Trace.reset ();
  Obs.Trace.set_enabled true;
  let dt = Refloop.run () in
  Obs.Trace.set_enabled false;
  check "reference loop moves no program counter" (Obs.Metrics.snapshot () = before);
  check "reference loop records no program span" (Obs.Trace.spans () = []);
  check "reference loop takes measurable time" (dt > 0.0)

(* One suite-cold op checks against its golden digest; corrupting that
   digest makes the same op fail. *)
let test_corrupt_golden golden_dir =
  let golden = Perfbench.Golden.load ~dir:golden_dir "suite-cold" in
  let op = W.suite_op (Cayman_suites.Suite.find_exn "bicg") in
  check "golden op passes" (W.run_op golden op).W.ok;
  let d = Hashtbl.find golden "bicg" in
  let flipped = (if d.[0] = '0' then "1" else "0") ^ String.sub d 1 (String.length d - 1) in
  Hashtbl.replace golden "bicg" flipped;
  check "corrupted golden digest fails the op" (not (W.run_op golden op).W.ok);
  Hashtbl.remove golden "bicg";
  check "missing golden digest fails the op" (not (W.run_op golden op).W.ok)

let run_traced main_exe golden_dir workload =
  let cmd =
    Printf.sprintf "%s --workload %s --seed 3 --seconds 1 --trace 1 --golden-dir %s"
      (Filename.quote main_exe) workload (Filename.quote golden_dir)
  in
  let ic = Unix.open_process_in cmd in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  match Unix.close_process_in ic, Obs.Json.parse !last with
  | Unix.WEXITED 0, Ok j -> Some j
  | _ -> None

(* Allocation counts and work counts of two traced runs of the same
   workload and seed are identical (one job: they do not depend on the
   host or the schedule). *)
let exact_metric name =
  Filename.check_suffix name ".alloc_mw"
  || List.mem name
       [ "sim.profile_instrs"; "select.points_evaluated"; "fleet.kernels";
         "fleet.clusters"; "memo.puts"; "memo.bytes_written";
         "rtl.cosim_invocations"; "rtl.cosim_sim_cycles" ]

let test_alloc_repeats main_exe golden_dir =
  List.iter
    (fun (w : W.workload) ->
      match run_traced main_exe golden_dir w.W.name, run_traced main_exe golden_dir w.W.name with
      | Some a, Some b ->
        let exact j =
          match Obs.Json.member "metrics" j with
          | Some (Obs.Json.Obj ms) -> List.filter (fun (n, _) -> exact_metric n) ms
          | _ -> []
        in
        check (w.W.name ^ ": traced runs are correct")
          (Obs.Json.member "correct" a = Some (Obs.Json.Bool true)
          && Obs.Json.member "correct" b = Some (Obs.Json.Bool true));
        check (w.W.name ^ ": allocation and work counts repeat exactly")
          (exact a <> [] && exact a = exact b)
      | _ -> check (w.W.name ^ ": traced runs complete") false)
    W.all

let () =
  match Sys.argv with
  | [| _; main_exe; golden_dir |] ->
    test_reference_isolated ();
    test_corrupt_golden golden_dir;
    test_alloc_repeats main_exe golden_dir;
    if !failures > 0 then exit 1
  | _ ->
    prerr_endline "usage: selftest.exe MAIN_EXE GOLDEN_DIR";
    exit 2
