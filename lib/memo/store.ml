(* See store.mli for the design contract. *)

type t = { root : string }

let marker_name = "cayman.store"
let marker_prefix = "cayman store "
let marker_content = marker_prefix ^ Hash.version ^ "\n"
let entry_magic = "CAYMANMEMO1\n"

(* --- metrics ---
   Counters are schedule-independent for a fixed initial store state
   (see the mli); wall-clock I/O time is a gauge, per the Obs policy. *)
let m_disk_hits = Obs.Metrics.counter "memo.disk_hits"
let m_disk_misses = Obs.Metrics.counter "memo.disk_misses"
let m_run_shared = Obs.Metrics.counter "memo.run_shared"
let m_puts = Obs.Metrics.counter "memo.puts"
let m_put_failures = Obs.Metrics.counter "memo.put_failures"
let m_corrupt = Obs.Metrics.counter "memo.corrupt_entries"
let m_evicted = Obs.Metrics.counter "memo.evicted"
let m_bytes_read = Obs.Metrics.counter "memo.bytes_read"
let m_bytes_written = Obs.Metrics.counter "memo.bytes_written"
let g_io_us = Obs.Metrics.gauge "memo.disk_io_us"

(* Every disk read or write of an entry, marshalling included: counted
   in [memo.disk_io_us] and traced as its own [memo.io] span, so the
   self time of the span that asked for it (a region's candidate
   generation, a program's analysis) holds no disk time. *)
let timed f =
  Obs.Trace.span ~cat:"memo" "memo.io" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let finally () =
    Obs.Metrics.gauge_add g_io_us
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))
  in
  Fun.protect ~finally f

(* --- directories --- *)

let default_dir () =
  match Sys.getenv_opt "CAYMAN_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ ->
    (match Sys.getenv_opt "XDG_CACHE_HOME" with
     | Some d when d <> "" -> Filename.concat d "cayman"
     | _ ->
       (match Sys.getenv_opt "HOME" with
        | Some h when h <> "" ->
          Filename.concat (Filename.concat h ".cache") "cayman"
        | _ -> ".cayman-cache"))

let mkdir_p dir =
  let rec go d =
    if d = "" || d = "/" || d = "." || Sys.file_exists d then ()
    else begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_store dir =
  Sys.file_exists dir && Sys.is_directory dir
  &&
  let marker = Filename.concat dir marker_name in
  Sys.file_exists marker
  &&
  match read_file marker with
  | s -> String.length s >= String.length marker_prefix
         && String.sub s 0 (String.length marker_prefix) = marker_prefix
  | exception _ -> false

let objects_dir root = Filename.concat root "objects"
let tmp_dir root = Filename.concat root "tmp"

let tmp_seq = Atomic.make 0

(* Stage in [tmp/] (same filesystem), then rename: concurrent readers and
   writers — pool domains or other processes — only ever see complete
   entries, and the last concurrent writer of one key wins with an
   identical payload. *)
let atomic_write root path content =
  let tmp =
    Filename.concat (tmp_dir root)
      (Printf.sprintf "w%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add tmp_seq 1))
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc content;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  mkdir_p (Filename.dirname path);
  Sys.rename tmp path

let open_store dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      Error (dir ^ " exists and is not a directory")
    else if is_store dir then begin
      mkdir_p (objects_dir dir);
      mkdir_p (tmp_dir dir);
      Ok { root = dir }
    end
    else if Array.length (Sys.readdir dir) > 0 then
      Error (dir ^ " is a non-empty directory without a cayman store marker")
    else begin
      mkdir_p (objects_dir dir);
      mkdir_p (tmp_dir dir);
      atomic_write dir (Filename.concat dir marker_name) marker_content;
      Ok { root = dir }
    end
  end
  else
    match
      mkdir_p dir;
      mkdir_p (objects_dir dir);
      mkdir_p (tmp_dir dir);
      atomic_write dir (Filename.concat dir marker_name) marker_content
    with
    | () -> Ok { root = dir }
    | exception (Sys_error m | Unix.Unix_error (_, m, _)) ->
      Error ("cannot create cache directory " ^ dir ^ ": " ^ m)

let dir t = t.root

(* --- entry codec --- *)

(* objects/<2 hex>/<30 hex> of MD5(version / ns / key); the version salt
   is mixed in even when the key already carries it. *)
let path_of t ~ns ~key =
  let d = Digest.to_hex (Digest.string (Hash.version ^ "/" ^ ns ^ "\x00" ^ key)) in
  Filename.concat
    (Filename.concat (objects_dir t.root) (String.sub d 0 2))
    (String.sub d 2 30)

let encode ~ns payload =
  String.concat ""
    [ entry_magic; ns; "\n"; Digest.to_hex (Digest.string payload); "\n";
      string_of_int (String.length payload); "\n"; payload ]

(* [Ok payload] | [Error `Miss] (no file) | [Error `Corrupt]. The payload
   digest is verified before any [Marshal.from_string], which makes the
   unmarshal safe against truncated or damaged entries. *)
let decode ~ns content =
  let len = String.length content in
  let line_end from = String.index_from_opt content from '\n' in
  let field from =
    match line_end from with
    | Some e when e < len -> Some (String.sub content from (e - from), e + 1)
    | Some _ | None -> None
  in
  let magic_len = String.length entry_magic in
  if len < magic_len || String.sub content 0 magic_len <> entry_magic then
    Error `Corrupt
  else
    match field magic_len with
    | None -> Error `Corrupt
    | Some (ens, p) ->
      (match field p with
       | None -> Error `Corrupt
       | Some (digest, p) ->
         (match field p with
          | None -> Error `Corrupt
          | Some (plen, p) ->
            (match int_of_string_opt plen with
             | None -> Error `Corrupt
             | Some plen ->
               if ens <> ns || plen < 0 || len - p <> plen then Error `Corrupt
               else
                 let payload = String.sub content p plen in
                 if Digest.to_hex (Digest.string payload) <> digest then
                   Error `Corrupt
                 else Ok payload)))

let disk_get : type a. t -> ns:string -> key:string -> a option =
 fun t ~ns ~key ->
  timed @@ fun () ->
  let path = path_of t ~ns ~key in
  match read_file path with
  | exception _ ->
    Obs.Metrics.incr m_disk_misses;
    None
  | content ->
    Obs.Metrics.add m_bytes_read (String.length content);
    (match decode ~ns content with
     | Error `Corrupt ->
       Obs.Metrics.incr m_corrupt;
       Obs.Metrics.incr m_disk_misses;
       None
     | Ok payload ->
       (match (Marshal.from_string payload 0 : a) with
        | v ->
          Obs.Metrics.incr m_disk_hits;
          (* touch for mtime LRU; best-effort *)
          (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
          Some v
        | exception _ ->
          Obs.Metrics.incr m_corrupt;
          Obs.Metrics.incr m_disk_misses;
          None))

let disk_put t ~ns ~key v =
  timed @@ fun () ->
  match Marshal.to_string v [] with
  | exception _ -> Obs.Metrics.incr m_put_failures
  | payload ->
    let content = encode ~ns payload in
    (match atomic_write t.root (path_of t ~ns ~key) content with
     | () ->
       Obs.Metrics.incr m_puts;
       Obs.Metrics.add m_bytes_written (String.length content)
     | exception _ -> Obs.Metrics.incr m_put_failures)

(* --- maintenance --- *)

let entries t =
  let obj = objects_dir t.root in
  let sub =
    match Sys.readdir obj with
    | a -> Array.to_list a
    | exception Sys_error _ -> []
  in
  List.concat_map
    (fun d ->
      let dir = Filename.concat obj d in
      if not (Sys.is_directory dir) then []
      else
        match Sys.readdir dir with
        | a ->
          List.filter_map
            (fun f ->
              let path = Filename.concat dir f in
              match Unix.stat path with
              | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                Some (path, st_size, st_mtime)
              | _ -> None
              | exception Unix.Unix_error _ -> None)
            (Array.to_list a)
        | exception Sys_error _ -> [])
    (List.sort String.compare sub)

type stats = {
  st_entries : int;
  st_bytes : int;
}

let stats_of t =
  let es = entries t in
  { st_entries = List.length es;
    st_bytes = List.fold_left (fun a (_, s, _) -> a + s) 0 es }

let gc t ~max_bytes =
  let es = entries t in
  let total = List.fold_left (fun a (_, s, _) -> a + s) 0 es in
  if total <= max_bytes then 0, 0
  else begin
    (* oldest mtime first; path breaks ties so the order is stable *)
    let es =
      List.sort
        (fun (p1, _, m1) (p2, _, m2) ->
          match compare (m1 : float) m2 with
          | 0 -> String.compare p1 p2
          | c -> c)
        es
    in
    let remaining = ref total in
    let evicted = ref 0 in
    let freed = ref 0 in
    List.iter
      (fun (path, size, _) ->
        if !remaining > max_bytes then begin
          match Sys.remove path with
          | () ->
            remaining := !remaining - size;
            incr evicted;
            freed := !freed + size
          | exception Sys_error _ -> ()
        end)
      es;
    Obs.Metrics.add m_evicted !evicted;
    !evicted, !freed
  end

let default_max_bytes () =
  let mb =
    Option.bind (Sys.getenv_opt "CAYMAN_CACHE_MAX_MB")
      Engine.Config.positive_int
  in
  Option.value mb ~default:2048 * 1024 * 1024

let clear dir =
  if not (Sys.file_exists dir) then
    Error (dir ^ " does not exist")
  else if not (is_store dir) then
    Error
      (dir
     ^ " does not look like a cayman cache (no " ^ marker_name
     ^ " marker); refusing to delete anything")
  else begin
    let t = { root = dir } in
    let es = entries t in
    List.iter
      (fun (path, _, _) -> try Sys.remove path with Sys_error _ -> ())
      es;
    (* stale staging files too *)
    (match Sys.readdir (tmp_dir dir) with
     | a ->
       Array.iter
         (fun f ->
           try Sys.remove (Filename.concat (tmp_dir dir) f)
           with Sys_error _ -> ())
         a
     | exception Sys_error _ -> ());
    Ok (List.length es)
  end

(* --- ambient state --- *)

let state : t option Atomic.t = Atomic.make None

let ambient () = Atomic.get state
let active () = ambient () <> None

let enable ?dir () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  match open_store dir with
  | Ok t ->
    ignore (gc t ~max_bytes:(default_max_bytes ()) : int * int);
    Atomic.set state (Some t)
  | Error msg ->
    Printf.eprintf "cayman: cache disabled: %s\n%!" msg;
    Atomic.set state None

let disable () = Atomic.set state None

let with_state set f =
  let saved = Atomic.get state in
  Fun.protect ~finally:(fun () -> Atomic.set state saved) (fun () ->
      set ();
      f ())

let without_cache f = with_state disable f
let with_enabled ?dir f = with_state (enable ?dir) f

(* --- compute-once table ---
   One cell per (ns, key) for the whole process: the first requester
   does the single disk lookup (and the computation on a miss); every
   later or concurrent requester gets the same value, blocking while
   the computation is in flight. A failed computation clears the cell
   and wakes the waiters, each of which then repeats the attempt — so
   failure semantics (one failure per requesting task) match the
   uncached pipeline exactly, and nothing is ever cached from a raise. *)

type cell = Pending | Ready of Obj.t

let cells : (string, cell ref) Hashtbl.t = Hashtbl.create 256
let cells_mu = Mutex.create ()
let cells_cv = Condition.create ()

let reset_memory () =
  Mutex.lock cells_mu;
  Hashtbl.reset cells;
  Condition.broadcast cells_cv;
  Mutex.unlock cells_mu

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "cayman" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () -> f dir)

let with_private_store f =
  with_temp_dir @@ fun dir ->
  reset_memory ();
  Fun.protect ~finally:reset_memory (fun () ->
      with_enabled ~dir (fun () -> f dir))

let find : type a. ns:string -> key:string -> a option =
 fun ~ns ~key ->
  match ambient () with
  | None -> None
  | Some t ->
    let full = ns ^ "\x00" ^ key in
    Mutex.lock cells_mu;
    let cached =
      match Hashtbl.find_opt cells full with
      | Some { contents = Ready v } -> Some (Obj.obj v : a)
      | Some { contents = Pending } | None -> None
    in
    Mutex.unlock cells_mu;
    (match cached with
     | Some v ->
       Obs.Metrics.incr m_run_shared;
       Some v
     | None -> disk_get t ~ns ~key)

let save : type a. ns:string -> key:string -> a -> unit =
 fun ~ns ~key v ->
  match ambient () with
  | None -> ()
  | Some t ->
    let full = ns ^ "\x00" ^ key in
    Mutex.lock cells_mu;
    (match Hashtbl.find_opt cells full with
     | Some cell -> cell := Ready (Obj.repr v)
     | None -> Hashtbl.add cells full (ref (Ready (Obj.repr v))));
    Condition.broadcast cells_cv;
    Mutex.unlock cells_mu;
    disk_put t ~ns ~key v

let memoize : type a. ns:string -> key:string -> (unit -> a) -> a =
 fun ~ns ~key f ->
  match ambient () with
  | None -> f ()
  | Some t ->
    let full = ns ^ "\x00" ^ key in
    let rec acquire () =
      match Hashtbl.find_opt cells full with
      | Some { contents = Ready v } -> `Hit (Obj.obj v : a)
      | Some { contents = Pending } ->
        Condition.wait cells_cv cells_mu;
        acquire ()
      | None ->
        Hashtbl.add cells full (ref Pending);
        `Mine
    in
    Mutex.lock cells_mu;
    let role = acquire () in
    Mutex.unlock cells_mu;
    (match role with
     | `Hit v ->
       Obs.Metrics.incr m_run_shared;
       v
     | `Mine ->
       let publish v =
         Mutex.lock cells_mu;
         (match Hashtbl.find_opt cells full with
          | Some cell -> cell := Ready (Obj.repr v)
          | None -> Hashtbl.add cells full (ref (Ready (Obj.repr v))));
         Condition.broadcast cells_cv;
         Mutex.unlock cells_mu
       in
       let abandon () =
         Mutex.lock cells_mu;
         Hashtbl.remove cells full;
         Condition.broadcast cells_cv;
         Mutex.unlock cells_mu
       in
       (match disk_get t ~ns ~key with
        | Some v ->
          publish v;
          v
        | None ->
          (match f () with
           | v ->
             publish v;
             disk_put t ~ns ~key v;
             v
           | exception e ->
             abandon ();
             raise e)
        | exception e ->
          abandon ();
          raise e))

(* --- bench report --- *)

let report_json ~wall_s =
  let c = Obs.Metrics.value in
  let store_fields =
    match ambient () with
    | None -> [ "enabled", Obs.Json.Bool false; "dir", Obs.Json.Null ]
    | Some t ->
      let s = stats_of t in
      [ "enabled", Obs.Json.Bool true;
        "dir", Obs.Json.String t.root;
        "store_entries", Obs.Json.Int s.st_entries;
        "store_bytes", Obs.Json.Int s.st_bytes ]
  in
  Obs.Json.Obj
    (store_fields
    @ [ "disk_hits", Obs.Json.Int (c m_disk_hits);
        "disk_misses", Obs.Json.Int (c m_disk_misses);
        "run_shared", Obs.Json.Int (c m_run_shared);
        "puts", Obs.Json.Int (c m_puts);
        "put_failures", Obs.Json.Int (c m_put_failures);
        "corrupt_entries", Obs.Json.Int (c m_corrupt);
        "evicted", Obs.Json.Int (c m_evicted);
        "bytes_read", Obs.Json.Int (c m_bytes_read);
        "bytes_written", Obs.Json.Int (c m_bytes_written);
        "wall_s", Obs.Json.Float wall_s ])
