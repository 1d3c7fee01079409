(* Verdict on the memo-store reports that `bench/main.exe --json BASE`
   writes as BASE_cache.json:

     cache_check.exe [--cold FILE] [--warm FILE] [--clean FILE] ...

   Every report must say the store was [enabled]. A --cold report must
   also show [puts > 0]; a --warm report [disk_hits > 0],
   [disk_misses = 0] and [corrupt_entries = 0]; a --clean report only
   [corrupt_entries = 0], so a store written by another revision may
   miss but never decode to garbage. Exits 1 naming the first failed
   condition, and prints one summary line per report otherwise. *)

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let load path =
  match Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e
  | exception Sys_error e -> fail "%s" e

let int path j field =
  match Option.bind (Obs.Json.member field j) Obs.Json.to_int with
  | Some n -> n
  | None -> fail "%s: no integer field %s" path field

let require path cond what = if not cond then fail "%s: %s" path what

let check kind path =
  let j = load path in
  require path
    (Obs.Json.member "enabled" j = Some (Obs.Json.Bool true))
    "enabled is not true";
  let int = int path j in
  (match kind with
   | `Cold -> require path (int "puts" > 0) "puts = 0 on a cold run"
   | `Warm ->
     require path (int "disk_hits" > 0) "disk_hits = 0 on a warm run";
     require path
       (int "disk_misses" = 0)
       (Printf.sprintf "disk_misses = %d on a warm run" (int "disk_misses"))
   | `Clean -> ());
  (match kind with
   | `Warm | `Clean ->
     require path
       (int "corrupt_entries" = 0)
       (Printf.sprintf "corrupt_entries = %d" (int "corrupt_entries"))
   | `Cold -> ());
  Printf.printf "%s ok: %d hits, %d misses, %d puts, %d entries, %d bytes\n"
    path (int "disk_hits") (int "disk_misses") (int "puts")
    (int "store_entries") (int "store_bytes")

let () =
  let rec go = function
    | [] -> ()
    | "--cold" :: path :: rest -> check `Cold path; go rest
    | "--warm" :: path :: rest -> check `Warm path; go rest
    | "--clean" :: path :: rest -> check `Clean path; go rest
    | _ -> fail "usage: cache_check.exe [--cold|--warm|--clean FILE]..."
  in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> fail "usage: cache_check.exe [--cold|--warm|--clean FILE]..."
  | args -> go args
