(* perfbench: run one workload of the Cayman benchmark and print its
   result as the last line of stdout.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--golden-dir DIR]
     main.exe --write-golden --workload W [--golden-dir DIR]

   Run from the root of a checkout (see perfbench/run.py, which builds
   this first). Scratch files live in .perfbench-tmp/ and are removed on
   exit; the traced run writes its spans to .perfbench-out/. *)

module W = Perfbench.Workloads
module H = Perfbench.Harness

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--golden-dir DIR] | --write-golden --workload NAME [--golden-dir DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 in
  let trace = ref false and golden_dir = ref "perfbench/golden" in
  let write_golden = ref false in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := int_of_string v; parse r
    | "--trace" :: ("0" | "1" as v) :: r -> trace := v = "1"; parse r
    | "--golden-dir" :: v :: r -> golden_dir := v; parse r
    | "--write-golden" :: r -> write_golden := true; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.W.name) W.all));
      exit 2
  in
  if !seconds < 1 then usage ();
  if not (Sys.file_exists ".perfbench-tmp") then Sys.mkdir ".perfbench-tmp" 0o700;
  let tmp = Filename.concat ".perfbench-tmp" (string_of_int (Unix.getpid ())) in
  W.rm_rf tmp;
  Sys.mkdir tmp 0o700;
  let cleanup () =
    W.rm_rf tmp;
    try Sys.rmdir ".perfbench-tmp" with Sys_error _ -> ()
  in
  at_exit cleanup;
  if !write_golden then begin
    Engine.Config.set_jobs 1;
    Cayman_sim.Interp.set_engine Cayman_sim.Interp.Staged;
    let entries = w.W.golden_outputs ~tmp in
    Perfbench.Golden.write ~dir:!golden_dir w.W.name entries;
    Printf.printf "%s: %d golden digests written\n" w.W.name (List.length entries)
  end
  else begin
    let r =
      H.run w ~seed:!seed ~seconds:!seconds ~trace:!trace ~golden_dir:!golden_dir ~tmp
    in
    (match r.H.spans_json with
     | Some j ->
       if not (Sys.file_exists ".perfbench-out") then Sys.mkdir ".perfbench-out" 0o755;
       Obs.Json.write_file
         (Printf.sprintf ".perfbench-out/%s-seed%d.json" w.W.name !seed)
         j
     | None -> ());
    print_endline (H.result_line r)
  end
