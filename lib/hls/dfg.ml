module Ir = Cayman_ir

type t = {
  block : Ir.Block.t;
  instrs : Ir.Instr.t array;
  preds : int list array;
  live_in_uses : (string, int list) Hashtbl.t;
  last_def : (string, int) Hashtbl.t;
  mem : int list;
  units : int array;
  n_defs : int;
  has_call : bool;
}

let unit_kinds = Array.of_list Ir.Op.all_unit_kinds

(* Multiset of datapath unit kinds used by the block's compute nodes:
   one count per kind, in [Ir.Op.all_unit_kinds] order. *)
let units_of instrs =
  let counts = Array.make (Array.length unit_kinds) 0 in
  Array.iter
    (fun instr ->
      match Ir.Instr.unit_kind instr with
      | Some k ->
        let j = ref 0 in
        while unit_kinds.(!j) <> k do incr j done;
        counts.(!j) <- counts.(!j) + 1
      | None -> ())
    instrs;
  counts

(* Build the data-flow graph of one block: data dependencies through
   registers plus conservative ordering between same-base memory accesses
   (store-load, load-store and store-store must keep program order;
   independent loads may reorder). *)
let of_block (b : Ir.Block.t) =
  let instrs = Array.of_list b.Ir.Block.instrs in
  let n = Array.length instrs in
  let preds = Array.make n [] in
  let live_in_uses = Hashtbl.create 8 in
  let last_def = Hashtbl.create 16 in
  let last_store : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let accesses_since_store : (string, int list) Hashtbl.t = Hashtbl.create 4 in
  let add_pred i p = if p <> i then preds.(i) <- p :: preds.(i) in
  let mem = ref [] in
  let n_defs = ref 0 in
  Array.iteri
    (fun i instr ->
      List.iter
        (fun (r : Ir.Instr.reg) ->
          match Hashtbl.find_opt last_def r.Ir.Instr.id with
          | Some d -> add_pred i d
          | None ->
            let prev =
              try Hashtbl.find live_in_uses r.Ir.Instr.id with Not_found -> []
            in
            Hashtbl.replace live_in_uses r.Ir.Instr.id (i :: prev))
        (Ir.Instr.uses instr);
      (match Ir.Instr.mem_ref_of instr with
       | Some m ->
         mem := i :: !mem;
         let base = m.Ir.Instr.base in
         (match instr with
          | Ir.Instr.Store _ ->
            (* A store waits for every same-base access since the previous
               store, and for the previous store itself. *)
            (match Hashtbl.find_opt last_store base with
             | Some s -> add_pred i s
             | None -> ());
            List.iter (add_pred i)
              (try Hashtbl.find accesses_since_store base with Not_found -> []);
            Hashtbl.replace last_store base i;
            Hashtbl.replace accesses_since_store base []
          | Ir.Instr.Load _ ->
            (match Hashtbl.find_opt last_store base with
             | Some s -> add_pred i s
             | None -> ());
            let prev =
              try Hashtbl.find accesses_since_store base with Not_found -> []
            in
            Hashtbl.replace accesses_since_store base (i :: prev)
          | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
          | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Call _ -> ())
       | None -> ());
      (match Ir.Instr.def instr with
       | Some r ->
         incr n_defs;
         Hashtbl.replace last_def r.Ir.Instr.id i
       | None -> ()))
    instrs;
  { block = b; instrs; preds; live_in_uses; last_def; mem = List.rev !mem;
    units = units_of instrs; n_defs = !n_defs;
    has_call = Array.exists Ir.Instr.is_call instrs }

let size t = Array.length t.instrs
let mem_nodes t = t.mem
let has_call t = t.has_call

let unit_list counts =
  let acc = ref [] in
  for j = Array.length unit_kinds - 1 downto 0 do
    if counts.(j) > 0 then acc := (unit_kinds.(j), counts.(j)) :: !acc
  done;
  !acc

let unit_counts t = unit_list t.units
let n_defs t = t.n_defs

(* Longest path (in summed per-node weights) from any node in [sources] to
   [sink], both inclusive; [None] if no path exists. *)
let longest_path t ~weight ~sources ~sink =
  let n = size t in
  if sink >= n then None
  else begin
    let src = Array.make n false in
    List.iter (fun s -> if s < n then src.(s) <- true) sources;
    let dist = Array.make n neg_infinity in
    for i = 0 to n - 1 do
      let best_pred =
        List.fold_left
          (fun acc p -> if dist.(p) > acc then dist.(p) else acc)
          neg_infinity t.preds.(i)
      in
      if src.(i) then
        dist.(i) <- Float.max (weight i) (best_pred +. weight i)
      else if best_pred > neg_infinity then dist.(i) <- best_pred +. weight i
    done;
    if dist.(sink) > neg_infinity then Some dist.(sink) else None
  end

(* Nodes that consume the live-in register [rid]. *)
let uses_of_live_in t rid =
  try Hashtbl.find t.live_in_uses rid with Not_found -> []

let def_of t rid = Hashtbl.find_opt t.last_def rid
