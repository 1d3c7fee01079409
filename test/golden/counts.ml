(* Reads a traced perfbench result (the last line of its stdout) and
   prints the run's deterministic counts, one `<workload> <metric>
   <value>` line each, for the perf-counts golden:

     perfbench/main.exe --workload W --seed 3 --seconds 1 --trace 1 \
       | counts.exe W *)

let work_counts =
  [ "sim.profile_instrs"; "select.points_evaluated"; "fleet.kernels";
    "fleet.clusters"; "memo.puts"; "memo.bytes_written";
    "rtl.cosim_invocations"; "rtl.cosim_sim_cycles" ]

(* A run that died (perfbench exits 2 on an uncaught exception, such as
   a reply that no longer matches its golden digest) prints a line that
   no expected file contains, so the diff still shows every other
   workload's counts. *)
let () =
  let workload = Sys.argv.(1) in
  let lines = String.split_on_char '\n' (String.trim (In_channel.input_all stdin)) in
  let result =
    match Obs.Json.parse (List.nth lines (List.length lines - 1)) with
    | Ok j -> j
    | Error _ ->
      Printf.printf "%s no result\n" workload;
      exit 0
  in
  let number name path =
    match Option.bind (path result) Obs.Json.to_float with
    | Some v -> Printf.printf "%s %s %.17g\n" workload name v
    | None -> Printf.printf "%s %s missing\n" workload name
  in
  number "attempted" (Obs.Json.member "attempted");
  number "failed" (Obs.Json.member "failed");
  List.iter
    (fun name ->
      number name (fun j ->
          Option.bind
            (Option.bind (Obs.Json.member "metrics" j) (Obs.Json.member name))
            (Obs.Json.member "value")))
    work_counts
