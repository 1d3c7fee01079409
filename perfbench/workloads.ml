(* The benchmark's four workloads. Each one builds a fixed op list from
   the workload seed and the run length, times only the calls into the
   program, and checks every op's output against its golden digest. *)

module An = Cayman_analysis
module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

let now = Unix.gettimeofday

(* One timed op's outcome: raw latency and whether its output checked. *)
type sample = {
  lat_s : float;
  ok : bool;
}

(* A set-up workload. Batches are what the harness interleaves with the
   host reference loop: one op for the sequential workloads, a
   closed-loop burst of requests for serve-mixed. [run_batch] returns
   the batch's raw wall time and its ops' samples. *)
type instance = {
  batches : int;
  run_batch : int -> float * sample list;
  teardown : unit -> unit;
}

type workload = {
  name : string;
  setup : seed:int -> seconds:int -> tmp:string -> golden:Golden.t -> instance;
  (* Every op input the workload may draw, with its rendered output —
     what [--write-golden] digests. *)
  golden_outputs : tmp:string -> (string * string) list;
}

(* Per-layer facts only the ops can see (report fields, hit/miss
   latencies); the harness turns them into metrics. *)
let notes : (string, float list) Hashtbl.t = Hashtbl.create 16

let note name v =
  Hashtbl.replace notes name
    (v :: Option.value (Hashtbl.find_opt notes name) ~default:[])

(* An op runs the program and returns a renderer: rendering (outside
   the timed region) yields the output to digest and whether the
   output's own invariants hold. *)
type op = {
  key : string;
  run : unit -> unit -> string * bool;
}

let check_op golden o f =
  match f () with
  | exception _ -> false
  | output, invariants -> invariants && Golden.check golden ~key:o.key output

(* Seconds the memo store has spent in its own entry reads and writes
   (its memo.disk_io_us gauge: marshalling plus file-system calls).
   Every reported time leaves this out: on a shared disk it drifts
   tenfold within minutes, independently of the program, so it is
   reported per layer instead (memo.disk_io_us). *)
let store_io_s () =
  match List.assoc_opt "memo.disk_io_us" (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.S_gauge us) -> float_of_int us /. 1e6
  | _ -> 0.0

(* Run one op: [before]/[after] prepare and clean up around it,
   untimed. A raise is a failed op, never retried. *)
let run_op ?(before = ignore) ?(after = ignore) golden o =
  before ();
  let io0 = store_io_s () in
  let t0 = now () in
  let r = match o.run () with f -> Ok f | exception e -> Error e in
  let t1 = now () in
  let dt = t1 -. t0 -. (store_io_s () -. io0) in
  after ();
  let ok = match r with Ok f -> check_op golden o f | Error _ -> false in
  { lat_s = dt; ok }

let sequential ?before ?after ~golden ~teardown ops =
  let ops = Array.of_list ops in
  { batches = Array.length ops;
    run_batch =
      (fun i ->
        Tracer.set_op i;
        let s = run_op ?before ?after golden ops.(i) in
        s.lat_s, [ s ]);
    teardown }

let rng ~seed salt = Random.State.make [| seed; Hashtbl.hash salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir ~tmp name =
  let d = Filename.concat tmp name in
  rm_rf d;
  Sys.mkdir d 0o700;
  d

(* Ops per run scale with the run length: [per_20s] at the committed
   20-second run, never fewer than one. *)
let scaled ~seconds per_20s = max 1 (per_20s * seconds / 20)

(* ------------------------------------------------------------------ *)
(* suite-cold: the whole Table II suite through the user's flow        *)
(* ------------------------------------------------------------------ *)

let netlist_text (a : Core.Cayman.analyzed) (acc : Core.Solution.accel) =
  let ctx = Hashtbl.find a.Core.Cayman.ctxs acc.Core.Solution.a_func in
  match
    An.Wpst.region a.Core.Cayman.wpst
      { An.Wpst.vfunc = acc.Core.Solution.a_func;
        vid = acc.Core.Solution.a_region_id }
  with
  | None -> "no-region"
  | Some region ->
    (match Hls.Netlist.of_kernel ctx region acc.Core.Solution.a_point.Hls.Kernel.config with
     | Some nl -> nl.Hls.Netlist.module_name ^ " " ^ Golden.digest nl.Hls.Netlist.verilog
     | None -> "not-synthesizable")

let merge_text (m : Core.Merge.result) =
  Printf.sprintf "merge: %d accels, area %.6g -> %.6g (%.4f%%), %d reusable"
    (List.length m.Core.Merge.accels) m.Core.Merge.area_before
    m.Core.Merge.area_after m.Core.Merge.saving_pct m.Core.Merge.n_reusable

let suite_op (b : Suite.benchmark) =
  { key = b.Suite.name;
    run =
      (fun () ->
        let p = Tracer.span "frontend.compile" (fun () -> Suite.compile b) in
        let a = Tracer.span "core.analyze" (fun () -> Core.Cayman.analyze p) in
        let r =
          Tracer.span "core.select" (fun () ->
              Core.Cayman.run ~jobs:1 ~mode:Hls.Kernel.Heuristic a)
        in
        let sols =
          Tracer.span "core.best_under_ratio" (fun () ->
              List.map
                (fun budget_ratio -> Core.Cayman.best_under_ratio r ~budget_ratio)
                [ 0.25; 0.65 ])
        in
        let merges =
          Tracer.span "core.merge" (fun () -> List.map (Core.Cayman.merge a) sols)
        in
        let netlists =
          Tracer.span "hls.netlist" (fun () ->
              List.concat_map
                (fun (s : Core.Solution.t) ->
                  List.map (netlist_text a) s.Core.Solution.accels)
                sols)
        in
        fun () ->
          ( String.concat "\n"
              (List.map (Format.asprintf "%a" Core.Solution.pp) sols
              @ List.map merge_text merges @ netlists),
            true )) }

let suite_cold =
  { name = "suite-cold";
    setup =
      (fun ~seed ~seconds ~tmp:_ ~golden ->
        let st = rng ~seed "suite-cold" in
        let progs = Array.of_list Suite.all in
        let ops =
          List.concat
            (List.init (scaled ~seconds 8) (fun _ ->
                 Array.to_list (Array.map suite_op (shuffle st progs))))
        in
        sequential ~golden ~teardown:ignore ops);
    golden_outputs =
      (fun ~tmp:_ ->
        List.map
          (fun b ->
            let o = suite_op b in
            o.key, fst (o.run () ()))
          Suite.all) }

(* ------------------------------------------------------------------ *)
(* cosim-verify: uncapped co-simulation of selected kernels            *)
(* ------------------------------------------------------------------ *)

(* Kernels of the 0.25-budget Heuristic selection, by position in the
   selected solution. They were chosen by measured per-kernel cost: each
   co-simulation takes 40-200 ms, so one run holds a few hundred of
   them, whereas the suite's other kernels take 0.5-25 s each and would
   leave one sample per run. *)
let cosim_kernels =
  [ "atax", [ 0 ]; "bicg", [ 0 ]; "mvt", [ 0 ]; "trmm", [ 0 ];
    "cholesky", [ 1 ]; "gramschmidt", [ 0; 1; 3 ]; "trisolv", [ 0 ];
    "fft", [ 0; 1; 2 ]; "md", [ 0 ]; "spmv", [ 0 ]; "covariance", [ 0; 1 ] ]

let cosim_ops () =
  List.concat_map
    (fun (name, picks) ->
      let a = Core.Cayman.analyze (Suite.compile (Suite.find_exn name)) in
      let sel =
        Core.Cayman.best_under_ratio
          (Core.Cayman.run ~jobs:1 ~mode:Hls.Kernel.Heuristic a)
          ~budget_ratio:0.25
      in
      let accels = Array.of_list sel.Core.Solution.accels in
      List.map
        (fun i ->
          let acc = accels.(i) in
          let ctx = Hashtbl.find a.Core.Cayman.ctxs acc.Core.Solution.a_func in
          let region =
            Option.get
              (An.Wpst.region a.Core.Cayman.wpst
                 { An.Wpst.vfunc = acc.Core.Solution.a_func;
                   vid = acc.Core.Solution.a_region_id })
          in
          let spec =
            { Rtl.Cosim.k_ctx = ctx; k_region = region;
              k_config = acc.Core.Solution.a_point.Hls.Kernel.config }
          in
          (* the analyses' region labels belong to the if-converted
             program, so that is the golden program to observe *)
          let program = a.Core.Cayman.program in
          { key =
              Printf.sprintf "%s/%s/%s#%d" name acc.Core.Solution.a_func
                acc.Core.Solution.a_region_name i;
            run =
              (fun () ->
                let rep =
                  Tracer.span "rtl.cosim" (fun () -> Rtl.Cosim.run program spec)
                in
                fun () ->
                  ( Rtl.Cosim.report_to_string rep,
                    Rtl.Cosim.functional_ok rep && rep.Rtl.Cosim.r_cycles_ok
                    && rep.Rtl.Cosim.r_n_mismatches = 0
                    && not rep.Rtl.Cosim.r_capped )) })
        picks)
    cosim_kernels

let cosim_verify =
  { name = "cosim-verify";
    setup =
      (* The kernel set is fixed, and so is the order: a seeded order
         moved peak RSS by up to 30% from run to run (the major heap's
         growth depends on which co-simulation follows which), so the
         seed changes nothing here. *)
      (fun ~seed:_ ~seconds ~tmp:_ ~golden ->
        let kernels = cosim_ops () in
        sequential ~golden ~teardown:ignore
          (List.concat (List.init (scaled ~seconds 14) (fun _ -> kernels))));
    golden_outputs =
      (fun ~tmp:_ ->
        List.map
          (fun o ->
            let out, inv = o.run () () in
            if not inv then failwith ("cosim-verify: kernel fails its checks: " ^ o.key);
            o.key, out)
          (cosim_ops ())) }

(* ------------------------------------------------------------------ *)
(* fleet-cold: cross-program merging from an empty private store       *)
(* ------------------------------------------------------------------ *)

(* No store: with an empty private store per op, the store's file
   system took three times the op's own time and its interference
   spread the op times by 12% between runs on the reference host. Memo
   writes are measured on serve-mixed instead. *)
let fleet_programs = 32
let fleet_ops_per_20s = 200

(* The fleets of a committed run; the seed orders them (and picks a
   subset for a shorter run). A seeded half of a larger pool made the
   tail depend on which few heavy fleets were drawn. *)
let fleet_pool = List.init fleet_ops_per_20s (fun j -> 1000 + j)

let fleet_op fleet_seed =
  { key = Printf.sprintf "fleet-%d" fleet_seed;
    run =
      (fun () ->
        let r =
          Tracer.span "fleet.run" (fun () ->
              Fleet.Merge.run
                { Fleet.Merge.default_options with
                  Fleet.Merge.o_kernels = fleet_programs;
                  o_seed = fleet_seed;
                  o_jobs = Some 1 })
        in
        note "fleet.distinct"
          (float_of_int r.Fleet.Merge.r_distinct);
        fun () -> Fleet.Merge.report_to_string r, r.Fleet.Merge.r_failed = 0) }

let fleet_cold =
  { name = "fleet-cold";
    setup =
      (fun ~seed ~seconds ~tmp:_ ~golden ->
        let st = rng ~seed "fleet-cold" in
        let pool = shuffle st (Array.of_list fleet_pool) in
        let n = min (Array.length pool) (scaled ~seconds fleet_ops_per_20s) in
        sequential ~golden ~teardown:ignore
          (List.map fleet_op (Array.to_list (Array.sub pool 0 n))));
    golden_outputs =
      (fun ~tmp:_ ->
        List.map
          (fun s ->
            let o = fleet_op s in
            let out, inv = o.run () () in
            if not inv then failwith ("fleet-cold: failed programs in " ^ o.key);
            o.key, out)
          fleet_pool) }

(* ------------------------------------------------------------------ *)
(* serve-mixed: closed-loop requests against an in-process daemon      *)
(* ------------------------------------------------------------------ *)

(* Reply-cache hits are `run` requests on these Table II programs, whose
   replies are computed once in set-up (the cheapest programs to prime,
   so set-up stays short). Misses are `run` requests on generated
   sources, each sent once per run. *)
let serve_hit_benches =
  [ "bicg"; "spmv"; "mvt"; "atax"; "cholesky"; "fft"; "md"; "trisolv" ]

let serve_batch = 40
let serve_misses_per_batch = 4
let serve_batches_per_20s = 400
let serve_in_flight = 2

(* As for fleet-cold, every committed run sends the same misses, in
   seeded bursts and positions: drawing half of a pool twice this size
   spread tail_ms by 21% between runs. *)
let serve_miss_pool = serve_batches_per_20s * serve_misses_per_batch

let gen_source j = Fleet.Genprog.minic_source ~seed:7 ~index:j

type daemon = {
  client : Serve.Client.t;
  domain : unit Domain.t;
  fds : Unix.file_descr * Unix.file_descr;
  store : string;
}

(* The daemon runs on its own domain with one pool worker and its reply
   cache on a private store; the client talks to it over a socketpair,
   one connection. *)
let start_daemon ~tmp =
  let store = fresh_dir ~tmp "serve-store" in
  Memo.Store.reset_memory ();
  let config =
    { Serve.Server.default_config with
      Serve.Server.sc_jobs = 1;
      sc_interp = Some Cayman_sim.Interp.Staged;
      sc_cache = true;
      sc_cache_dir = Some store }
  in
  let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let domain =
    Domain.spawn (fun () -> Serve.Server.serve_fds ~config ~input:d ~output:d ())
  in
  { client = Serve.Client.of_fds ~input:c ~output:c (); domain; fds = c, d; store }

let stop_daemon dm =
  Serve.Client.shutdown dm.client;
  Domain.join dm.domain;
  Unix.close (fst dm.fds);
  Unix.close (snd dm.fds);
  Memo.Store.disable ();
  Memo.Store.reset_memory ();
  rm_rf dm.store

type request = {
  r_key : string;
  r_hit : bool;
  r_req : id:int -> Serve.Protocol.request;
}

let hit_request b =
  { r_key = b; r_hit = true;
    r_req = (fun ~id -> Serve.Protocol.request ~bench:b ~id "run") }

let miss_request j =
  let source = gen_source j in
  { r_key = Printf.sprintf "gen-%d" j; r_hit = false;
    r_req = (fun ~id -> Serve.Protocol.request ~source ~id "run") }

let reply_ok golden key (r : Serve.Protocol.reply) =
  r.Serve.Protocol.rp_ok && Golden.check golden ~key r.Serve.Protocol.rp_output

(* Closed loop: [serve_in_flight] requests outstanding; each reply
   sends the next. Latency runs from send to reply, client side. *)
let burst cl golden (reqs : request array) =
  let n = Array.length reqs in
  let sent = Hashtbl.create 8 in
  let replies = Array.make n None in
  let lat = Array.make n 0.0 in
  let next = ref 0 in
  (* The store's time, read only when a miss has been out since the
     last read: hits do no store I/O, so the gauge cannot have moved, and
     skipping the read keeps its cost off the hits' latencies. *)
  let io = ref (store_io_s ()) and misses_out = ref 0 and dirty = ref false in
  let io_now () =
    if !dirty || !misses_out > 0 then begin
      io := store_io_s ();
      dirty := !misses_out > 0
    end;
    !io
  in
  let send () =
    let i = !next in
    incr next;
    let id = Serve.Client.fresh_id cl in
    let io_sent = io_now () in
    if not reqs.(i).r_hit then begin
      incr misses_out;
      dirty := true
    end;
    Hashtbl.replace sent id (i, io_sent, now ());
    Serve.Client.send cl (reqs.(i).r_req ~id)
  in
  let w0 = Gc.minor_words () in
  let io0 = !io in
  let t0 = now () in
  while !next < min n serve_in_flight do send () done;
  for _ = 1 to n do
    let r = Serve.Client.recv_any cl in
    let t = now () in
    let i, io_sent, ts = Hashtbl.find sent r.Serve.Protocol.rp_id in
    Hashtbl.remove sent r.Serve.Protocol.rp_id;
    let io_recv = io_now () in
    if not reqs.(i).r_hit then decr misses_out;
    replies.(i) <- Some r;
    (* less the daemon's store time while this request was out, its own
       or a batch-mate's it waited behind *)
    lat.(i) <- t -. ts -. (io_recv -. io_sent);
    Tracer.record (if reqs.(i).r_hit then "serve.hit" else "serve.miss") ts t;
    if !Tracer.enabled then begin
      note (if reqs.(i).r_hit then "serve.hit_s" else "serve.miss_s") lat.(i);
      note "serve.queue_depth"
        (match List.assoc_opt "serve.queue_depth" (Obs.Metrics.snapshot ()) with
         | Some (Obs.Metrics.S_gauge v) -> float_of_int v
         | _ -> 0.0)
    end;
    if !next < n then send ()
  done;
  let t1 = now () in
  let wall = t1 -. t0 -. (store_io_s () -. io0) in
  Tracer.record ~alloc_w:(Gc.minor_words () -. w0) "serve.client" t0 t1;
  ( wall,
    List.init n (fun i ->
        let ok =
          match replies.(i) with
          | Some r -> reply_ok golden reqs.(i).r_key r
          | None -> false
        in
        { lat_s = lat.(i); ok }) )

let serve_mixed =
  { name = "serve-mixed";
    setup =
      (fun ~seed ~seconds ~tmp ~golden ->
        let st = rng ~seed "serve-mixed" in
        let dm = start_daemon ~tmp in
        (* prime the reply cache; a priming failure fails set-up *)
        List.iter
          (fun b ->
            let r = Serve.Client.rpc dm.client ~bench:b "run" in
            if not (reply_ok golden b r) then
              failwith ("serve-mixed: priming reply for " ^ b ^ " is wrong"))
          serve_hit_benches;
        let hits = Array.of_list serve_hit_benches in
        let misses = shuffle st (Array.init serve_miss_pool Fun.id) in
        let n_batches =
          min (scaled ~seconds serve_batches_per_20s)
            (serve_miss_pool / serve_misses_per_batch)
        in
        let batches =
          Array.init n_batches (fun b ->
              let reqs =
                Array.init serve_batch (fun i ->
                    if i < serve_misses_per_batch then
                      miss_request misses.((b * serve_misses_per_batch) + i)
                    else hit_request hits.(Random.State.int st (Array.length hits)))
              in
              shuffle st reqs)
        in
        { batches = n_batches;
          run_batch =
            (fun b ->
              Tracer.set_op b;
              burst dm.client golden batches.(b));
          teardown = (fun () -> stop_daemon dm) });
    golden_outputs =
      (fun ~tmp ->
        let dm = start_daemon ~tmp in
        Fun.protect
          ~finally:(fun () -> stop_daemon dm)
          (fun () ->
            List.map
              (fun r ->
                let rp = Serve.Client.request dm.client (r.r_req ~id:(Serve.Client.fresh_id dm.client)) in
                if not rp.Serve.Protocol.rp_ok then
                  failwith ("serve-mixed: request fails: " ^ r.r_key);
                r.r_key, rp.Serve.Protocol.rp_output)
              (List.map hit_request serve_hit_benches
              @ List.init serve_miss_pool miss_request))) }

let all = [ suite_cold; fleet_cold; cosim_verify; serve_mixed ]

let find name = List.find_opt (fun w -> w.name = name) all
