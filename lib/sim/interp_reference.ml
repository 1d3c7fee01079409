module Ir = Cayman_ir
open Interp_common

(* The original tree-walking interpreter, kept verbatim as the reference
   semantics that the staged engine (Interp_staged) is differentially
   tested against. Registers live in a per-call string-keyed hashtable;
   every instruction goes through one match dispatch. *)

(* A compiled block holds exactly one representation of its instruction
   sequence: the array. The static cycle cost is precomputed (it needs
   the instruction list only at compile time), and the dynamic
   instruction count is [Array.length instrs]. The observer's watch
   points are resolved here too, once per run: [watch] per block and
   [on_return] per function, each with its declared registers, and
   [log_ids], each instruction's array number in the observer's store
   log when it is a store of a logged block, [-1] otherwise. So
   are the block's profile counters: [id]
   is its {!Ir.Cfg} id, and [slots] the successor slot of each target
   of its terminator, in branch order ([-1] for a label the index
   drops). *)
(* A watch point: its handler, and its declared registers, which read
   the environment [env] holds, set to the current call's each time the
   handler runs. *)
type 'h point = {
  env : (string, Value.t) Hashtbl.t ref;
  regs : regs;
  run : 'h;
}

type cblock = {
  id : int;
  slots : int array;
  static_cycles : int;
  instrs : Ir.Instr.t array;
  log_ids : int array;
  term : Ir.Instr.term;
  watch : block_watch point option;
}

type cfunc = {
  f : Ir.Func.t;
  blocks : (string, cblock) Hashtbl.t;
  entry : string;
  on_return : return_watch point option;
  counts : Profile.counts;
}

let point ~func ~label (w : _ watch) =
  let env = ref (Hashtbl.create 1) in
  let names = Array.of_list w.w_reads in
  { env;
    run = w.w_run;
    regs =
      boxed_regs ~func ~label w.w_reads (fun k ->
          Hashtbl.find_opt !env names.(k)) }

let compile_func observer (f : Ir.Func.t) index =
  let func = f.Ir.Func.name in
  let blocks = Hashtbl.create 16 in
  let entry = (Ir.Func.entry f).Ir.Block.label in
  (* [Func.entry] raised for the one function without an index. *)
  let cfg, _ = Option.get index in
  (* A node's slots are its blocks' targets in block order, so a block
     that repeats a label takes the slots after those of its namesakes. *)
  let next_slot = Array.make cfg.Ir.Cfg.size 0 in
  List.iter
    (fun (b : Ir.Block.t) ->
      let label = b.Ir.Block.label in
      let id = Ir.Cfg.id cfg label in
      let slot l =
        match Ir.Cfg.id_opt cfg l with
        | None -> -1
        | Some _ ->
          let k = next_slot.(id) in
          next_slot.(id) <- k + 1;
          k
      in
      let log_id =
        match observer with
        | Some o when o.obs_logged ~func ~label -> (
          fun (i : Ir.Instr.t) ->
            match i with
            | Ir.Instr.Store (m, _) -> Memory.Log.id o.obs_log m.Ir.Instr.base
            | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
            | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Load _
            | Ir.Instr.Call _ ->
              -1)
        | Some _ | None -> fun _ -> -1
      in
      let instrs = Array.of_list b.Ir.Block.instrs in
      Hashtbl.replace blocks label
        { id;
          slots = Array.of_list (List.map slot (Ir.Block.succs b));
          static_cycles = Cpu_model.block_cycles b;
          instrs;
          log_ids = Array.map log_id instrs;
          term = b.Ir.Block.term;
          watch =
            Option.map
              (point ~func ~label:(Some label))
              (Option.bind observer (fun o -> o.obs_block ~func ~label)) })
    f.Ir.Func.blocks;
  { f;
    blocks;
    entry;
    on_return =
      Option.map
        (point ~func ~label:None)
        (Option.bind observer (fun o -> o.obs_return ~func));
    counts = Profile.counts cfg }

let exec ?(fuel = default_fuel) ?cache_config ?observer (ix : Ir.Cfg.program) =
  let p = ix.Ir.Cfg.program in
  let memory = Memory.create p in
  let cache = Option.map (fun config -> Cache.create ~config p) cache_config in
  let touch base index =
    match cache with
    | Some c -> ignore (Cache.access c ~base ~index : bool)
    | None -> ()
  in
  let funcs = Hashtbl.create 8 in
  let profile =
    Profile.create
      (List.map2
         (fun (f : Ir.Func.t) index ->
           let cf = compile_func observer f index in
           Hashtbl.replace funcs f.Ir.Func.name cf;
           cf.counts)
         p.Ir.Program.funcs ix.Ir.Cfg.funcs)
  in
  let log = Option.map (fun o -> o.obs_log) observer in
  let fuel_left = ref fuel in
  let rec exec_func (cf : cfunc) (args : Value.t list) : Value.t option =
    let fname = cf.f.Ir.Func.name in
    let counts = cf.counts in
    counts.Profile.calls <- counts.Profile.calls + 1;
    let env : (string, Value.t) Hashtbl.t = Hashtbl.create 64 in
    (try
       List.iter2
         (fun (r : Ir.Instr.reg) v -> Hashtbl.replace env r.Ir.Instr.id v)
         cf.f.Ir.Func.params args
     with Invalid_argument _ ->
       raise (Runtime_error ("arity mismatch calling " ^ fname)));
    let eval (o : Ir.Instr.operand) =
      match o with
      | Ir.Instr.Reg r ->
        (match Hashtbl.find_opt env r.Ir.Instr.id with
         | Some v -> v
         | None ->
           raise
             (Runtime_error
                (Printf.sprintf "uninitialized register %%%s in %s"
                   r.Ir.Instr.id fname)))
      | Ir.Instr.Imm_int n -> Value.Vint n
      | Ir.Instr.Imm_float x -> Value.Vfloat x
      | Ir.Instr.Imm_bool b -> Value.Vbool b
    in
    let set (r : Ir.Instr.reg) v = Hashtbl.replace env r.Ir.Instr.id v in
    let mem_index (m : Ir.Instr.mem_ref) = Value.to_int (eval m.Ir.Instr.index) in
    let exec_instr log_id (i : Ir.Instr.t) =
      match i with
      | Ir.Instr.Assign (r, o) -> set r (eval o)
      | Ir.Instr.Unary (r, op, o) -> set r (eval_un op (eval o))
      | Ir.Instr.Binary (r, op, a, b) -> set r (eval_bin op (eval a) (eval b))
      | Ir.Instr.Compare (r, op, a, b) -> set r (eval_cmp op (eval a) (eval b))
      | Ir.Instr.Select (r, c, a, b) ->
        set r (if Value.to_bool (eval c) then eval a else eval b)
      | Ir.Instr.Load (r, m) ->
        let index = mem_index m in
        touch m.Ir.Instr.base index;
        set r (Memory.load memory ~base:m.Ir.Instr.base ~index)
      | Ir.Instr.Store (m, v) ->
        let index = mem_index m in
        touch m.Ir.Instr.base index;
        Memory.store memory ~base:m.Ir.Instr.base ~index (eval v);
        if log_id >= 0 then
          Option.iter (fun log -> Memory.Log.add log log_id index) log
      | Ir.Instr.Call (r, callee, call_args) ->
        let cf' =
          match Hashtbl.find_opt funcs callee with
          | Some cf' -> cf'
          | None -> raise (Runtime_error ("unknown function " ^ callee))
        in
        let vals = List.map eval call_args in
        let ret = exec_func cf' vals in
        (match r, ret with
         | Some r, Some v -> set r v
         | Some _, None ->
           raise (Runtime_error ("void result from " ^ callee))
         | None, (Some _ | None) -> ())
    in
    let take blk k =
      let s = blk.slots.(k) in
      if s >= 0 then
        let e = counts.Profile.edges.(blk.id) in
        e.(s) <- e.(s) + 1
    in
    let cur = ref (Hashtbl.find cf.blocks cf.entry) in
    let return_value = ref None in
    let running = ref true in
    while !running do
      let blk = !cur in
      let n_instrs = Array.length blk.instrs in
      let execs = counts.Profile.blocks in
      execs.(blk.id) <- execs.(blk.id) + 1;
      (match blk.watch with
       | Some w ->
         w.env := env;
         w.run ~regs:w.regs ~mem:memory
       | None -> ());
      Profile.add_cycles profile blk.static_cycles;
      Profile.add_instrs profile n_instrs;
      fuel_left := !fuel_left - n_instrs - 1;
      if !fuel_left < 0 then raise Out_of_fuel;
      Array.iteri (fun k i -> exec_instr blk.log_ids.(k) i) blk.instrs;
      (match blk.term with
       | Ir.Instr.Return o ->
         return_value := Option.map eval o;
         (match cf.on_return with
          | Some w ->
            w.env := env;
            w.run ~regs:w.regs ~value:!return_value ~mem:memory
          | None -> ());
         running := false
       | Ir.Instr.Jump l ->
         take blk 0;
         cur := Hashtbl.find cf.blocks l
       | Ir.Instr.Branch (c, t, f) ->
         let taken = Value.to_bool (eval c) in
         take blk (if taken then 0 else 1);
         cur := Hashtbl.find cf.blocks (if taken then t else f))
    done;
    !return_value
  in
  let main =
    match Hashtbl.find_opt funcs p.Ir.Program.main with
    | Some cf -> cf
    | None -> raise (Runtime_error ("missing main function " ^ p.Ir.Program.main))
  in
  if main.f.Ir.Func.params <> [] then
    raise (Runtime_error "main must take no parameters");
  let return_value =
    try exec_func main [] with
    | Value.Type_error m -> raise (Runtime_error ("type error: " ^ m))
    | Memory.Fault m -> raise (Runtime_error ("memory fault: " ^ m))
  in
  (* Publish the run's profile totals — the Eq. (1) inputs — through the
     shared metrics registry so they appear in `cayman stats`. *)
  Profile.publish_metrics profile;
  { return_value; memory; profile;
    cache_stats = Option.map Cache.stats cache }

let run ?fuel ?cache_config ?observer p =
  Obs.Trace.span ~cat:"sim" "sim.interp" (fun () ->
      exec ?fuel ?cache_config ?observer p)
