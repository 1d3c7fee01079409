module Ir = Cayman_ir

type counts = {
  name : string;
  blocks : int array;
  edges : int array array;
  mutable calls : int;
}

type t = {
  funcs : counts array;
  mutable total_cycles : int;
  mutable total_instrs : int;
}

let counts (cfg : Ir.Cfg.t) =
  { name = cfg.Ir.Cfg.func.Ir.Func.name;
    blocks = Array.make cfg.Ir.Cfg.size 0;
    edges = Array.map (fun s -> Array.make (Array.length s) 0) cfg.Ir.Cfg.succs;
    calls = 0 }

let create funcs =
  { funcs = Array.of_list funcs; total_cycles = 0; total_instrs = 0 }

(* The last function of that name is the one both engines call. *)
let find t name =
  let rec go i =
    if i < 0 then invalid_arg ("Profile.find: no function " ^ name)
    else if String.equal t.funcs.(i).name name then t.funcs.(i)
    else go (i - 1)
  in
  go (Array.length t.funcs - 1)

let add_cycles t c = t.total_cycles <- t.total_cycles + c
let add_instrs t n = t.total_instrs <- t.total_instrs + n

let total_cycles t = t.total_cycles
let total_instrs t = t.total_instrs
let total_seconds t = Cpu_model.seconds_of_cycles t.total_cycles

(* Aggregate totals, re-exported through the shared Obs.Metrics registry
   (once per completed profiling run, from Interp.run) so Eq. (1)'s
   inputs appear in `cayman stats` next to every other phase instead of
   living only in this one-off structure. All are deterministic facts of
   the interpreted program, hence counters. *)
let m_runs = Obs.Metrics.counter "sim.profile_runs"
let m_cycles = Obs.Metrics.counter "sim.profile_cycles"
let m_instrs = Obs.Metrics.counter "sim.profile_instrs"
let m_calls = Obs.Metrics.counter "sim.profile_calls"
let m_block_execs = Obs.Metrics.counter "sim.profile_block_execs"
let m_distinct_blocks = Obs.Metrics.counter "sim.profile_distinct_blocks"

let publish_metrics t =
  let calls = ref 0 and execs = ref 0 and distinct = ref 0 in
  Array.iter
    (fun c ->
      calls := !calls + c.calls;
      Array.iter
        (fun n ->
          execs := !execs + n;
          if n > 0 then incr distinct)
        c.blocks)
    t.funcs;
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_cycles t.total_cycles;
  Obs.Metrics.add m_instrs t.total_instrs;
  Obs.Metrics.add m_calls !calls;
  Obs.Metrics.add m_block_execs !execs;
  Obs.Metrics.add m_distinct_blocks !distinct
