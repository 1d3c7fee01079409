module Ir = Cayman_ir
module An = Cayman_analysis

(* Bump on any change to cached-value semantics, key derivation, or the
   on-disk codec: old store entries become misses, never wrong hits. *)
let version = "cayman-memo-1"

(* --- key builder --- *)

(* Every field is self-delimiting (tag + decimal length or fixed-width
   payload), so distinct field sequences produce distinct byte strings
   and the only collision source left is MD5 itself. *)
type b = Buffer.t

let builder ~ns =
  let b = Buffer.create 256 in
  Buffer.add_string b version;
  Buffer.add_char b '/';
  Buffer.add_string b ns;
  Buffer.add_char b '\n';
  b

(* [string_of_int n] written straight into [b]. Digits are taken from
   the non-positive [-|n|], which, unlike [|n|], exists for [min_int]. *)
let add_decimal b n =
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char b '-';
    digits n
  end
  else digits (-n)

let str b s =
  Buffer.add_char b 's';
  add_decimal b (String.length s);
  Buffer.add_char b ':';
  Buffer.add_string b s

let int b n =
  Buffer.add_char b 'i';
  add_decimal b n;
  Buffer.add_char b ';'

let bool b v = Buffer.add_string b (if v then "b1" else "b0")

let float b x =
  Buffer.add_char b 'f';
  Buffer.add_string b (Printf.sprintf "%Lx" (Int64.bits_of_float x));
  Buffer.add_char b ';'

let int_opt b = function
  | None -> Buffer.add_string b "n;"
  | Some n -> int b n

let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

(* --- the IR emitter --- *)

(* One emitter renders IR into every key: regions under canonical or
   original names, and whole programs. It writes straight into the
   buffer. Float immediates print with [%h], exactly: the six digits of
   [Instr.pp_operand]'s [%g] would give two programs that differ only in
   a constant the same key.

   [reg] and [label] give the printed name of a register or a label.
   For a canonical listing they hand out a fresh number on first sight,
   so the order in which the emitter asks for names fixes the numbering.
   That order is spelled out below with one [let] per name, and it is
   the order every stored [points] key was derived under (the first
   renderer met names this way because it evaluated string
   concatenations right to left). Within an instruction: its operands
   last to first, then its destination; a store names its value, then
   its index; a call its destination, then its arguments left to right.
   A branch names its false target, then its true target, then its
   condition. Changing the order renumbers registers and exits, so it
   moves keys. *)

(* The printed name of an operand's register; [""] for an immediate. *)
let name ~reg = function
  | Ir.Instr.Reg r -> reg r.Ir.Instr.id
  | Ir.Instr.Imm_int _ | Ir.Instr.Imm_float _ | Ir.Instr.Imm_bool _ -> ""

let add_reg buf n (r : Ir.Instr.reg) =
  Buffer.add_char buf '%';
  Buffer.add_string buf n;
  Buffer.add_char buf ':';
  Buffer.add_string buf (Ir.Types.to_string r.Ir.Instr.ty)

(* [o] printed with [n], its register's name from [name]. *)
let add_operand buf n = function
  | Ir.Instr.Reg r -> add_reg buf n r
  | Ir.Instr.Imm_int k -> Buffer.add_string buf (string_of_int k)
  | Ir.Instr.Imm_float x -> Buffer.add_string buf (Printf.sprintf "%h" x)
  | Ir.Instr.Imm_bool v -> Buffer.add_string buf (string_of_bool v)

(* Array symbols are global names, never renamed. *)
let add_mem buf n (m : Ir.Instr.mem_ref) =
  Buffer.add_string buf m.Ir.Instr.base;
  Buffer.add_char buf '[';
  add_operand buf n m.Ir.Instr.index;
  Buffer.add_char buf ']'

let add_instr buf ~reg (i : Ir.Instr.t) =
  let add = Buffer.add_string buf in
  let dest (r : Ir.Instr.reg) = (reg r.Ir.Instr.id, r) in
  let add_dest (n, r) =
    add_reg buf n r;
    add " = "
  in
  (* [named] pairs each operand with its name; [fold_right] names the
     last operand first *)
  let named ops = List.fold_right (fun o acc -> (name ~reg o, o) :: acc) ops [] in
  let operands =
    List.iteri (fun k (n, o) ->
        if k > 0 then add ", ";
        add_operand buf n o)
  in
  (* [r = op o1, o2, ...]: operands named last to first, then [r] *)
  let def r op ops =
    let ops = named ops in
    add_dest (dest r);
    add op;
    if op <> "" then add " ";
    operands ops
  in
  match i with
  | Ir.Instr.Assign (r, a) -> def r "" [ a ]
  | Ir.Instr.Unary (r, op, a) -> def r (Ir.Op.un_to_string op) [ a ]
  | Ir.Instr.Binary (r, op, a, b) -> def r (Ir.Op.bin_to_string op) [ a; b ]
  | Ir.Instr.Compare (r, op, a, b) -> def r (Ir.Op.cmp_to_string op) [ a; b ]
  | Ir.Instr.Select (r, c, a, b) -> def r "select" [ c; a; b ]
  | Ir.Instr.Load (r, m) ->
    let ni = name ~reg m.Ir.Instr.index in
    add_dest (dest r);
    add "load ";
    add_mem buf ni m
  | Ir.Instr.Store (m, v) ->
    let nv = name ~reg v in
    let ni = name ~reg m.Ir.Instr.index in
    add "store ";
    add_mem buf ni m;
    add ", ";
    add_operand buf nv v
  | Ir.Instr.Call (r, f, args) ->
    let nr = Option.map dest r in
    let args = List.rev (named (List.rev args)) in
    Option.iter add_dest nr;
    add "call ";
    add f;
    add "(";
    operands args;
    add ")"

let add_term buf ~reg ~label = function
  | Ir.Instr.Jump l ->
    let nl = label l in
    Buffer.add_string buf "jump ";
    Buffer.add_string buf nl
  | Ir.Instr.Branch (c, t, f) ->
    let nf = label f in
    let nt = label t in
    let nc = name ~reg c in
    Buffer.add_string buf "branch ";
    add_operand buf nc c;
    Buffer.add_string buf ", ";
    Buffer.add_string buf nt;
    Buffer.add_string buf ", ";
    Buffer.add_string buf nf
  | Ir.Instr.Return None -> Buffer.add_string buf "return"
  | Ir.Instr.Return (Some v) ->
    let nv = name ~reg v in
    Buffer.add_string buf "return ";
    add_operand buf nv v

(* [l:] then one instruction a line, each indented by one space. *)
let add_block buf ~reg ~label l (blk : Ir.Block.t option) =
  Buffer.add_string buf (label l);
  Buffer.add_string buf ":\n";
  match blk with
  | None -> Buffer.add_string buf " <missing>\n"
  | Some blk ->
    List.iter
      (fun i ->
        Buffer.add_char buf ' ';
        add_instr buf ~reg i;
        Buffer.add_char buf '\n')
      blk.Ir.Block.instrs;
    Buffer.add_char buf ' ';
    add_term buf ~reg ~label blk.Ir.Block.term;
    Buffer.add_char buf '\n'

(* --- region listings --- *)

type listing = {
  code : string;
  block_order : string list;
  label_name : string -> string;
}

(* --- digest-collision guard --- *)

(* Fleet clustering treats equal canon digests as "structurally
   identical kernel" — an MD5 collision would silently merge different
   datapaths. The guard remembers, per digest, every distinct canonical
   code seen in this process and counts mismatches, making that failure
   mode observable (cayman cache stats) instead of silent. The count is
   schedule-independent: it equals the sum over digests of (distinct
   codes - 1), whatever order the codes arrive in. *)

let m_canon_collisions = Obs.Metrics.counter "memo.canon_collisions"

let guard_mutex = Mutex.create ()
let guard_tbl : (string, string list ref) Hashtbl.t = Hashtbl.create 1024

(* Bounds guard memory on pathological populations; past the cap new
   digests go unchecked (collisions among them would be uncounted, but
   recorded digests keep guarding). *)
let guard_cap = 1 lsl 16

let guard_digest ~digest ~code =
  Mutex.lock guard_mutex;
  (match Hashtbl.find_opt guard_tbl digest with
   | Some codes ->
     if not (List.mem code !codes) then begin
       codes := code :: !codes;
       Obs.Metrics.incr m_canon_collisions
     end
   | None ->
     if Hashtbl.length guard_tbl < guard_cap then
       Hashtbl.add guard_tbl digest (ref [ code ]));
  Mutex.unlock guard_mutex

let canon_digest (c : listing) =
  let code = c.code in
  let d = Digest.to_hex (Digest.string (version ^ "\n" ^ code)) in
  guard_digest ~digest:d ~code;
  d

let kind_string = function
  | An.Region.Whole_function -> "whole"
  | An.Region.Basic_block -> "bb"
  | An.Region.Loop_region -> "loop"
  | An.Region.Cond_region -> "cond"

(* The region's blocks in canonical order: BFS from the region entry in
   terminator successor order, which only follows the CFG shape and so
   is renaming-invariant; blocks it does not reach are appended in
   sorted label order. *)
let traverse (func : Ir.Func.t) (region : An.Region.t) =
  let in_region l = An.Region.String_set.mem l region.An.Region.blocks in
  let blocks = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.Block.t) ->
      if in_region b.Ir.Block.label && not (Hashtbl.mem blocks b.Ir.Block.label)
      then Hashtbl.add blocks b.Ir.Block.label b)
    func.Ir.Func.blocks;
  let seen = Hashtbl.create 16 in
  let queue = Queue.create () in
  let order = ref [] in
  let enqueue l =
    if in_region l && not (Hashtbl.mem seen l) then begin
      Hashtbl.add seen l ();
      Queue.add l queue
    end
  in
  enqueue region.An.Region.entry;
  while not (Queue.is_empty queue) do
    let l = Queue.pop queue in
    order := l :: !order;
    match Hashtbl.find_opt blocks l with
    | None -> ()
    | Some blk -> List.iter enqueue (Ir.Block.succs blk)
  done;
  let leftovers =
    List.filter
      (fun l -> not (Hashtbl.mem seen l))
      (An.Region.String_set.elements region.An.Region.blocks)
  in
  (List.rev !order @ leftovers, Hashtbl.find_opt blocks)

let canon_region (func : Ir.Func.t) (region : An.Region.t) =
  let block_order, block = traverse func region in
  let labels = Hashtbl.create 16 in
  let exits = Hashtbl.create 8 in
  let regs = Hashtbl.create 64 in
  let intern tbl prefix x =
    match Hashtbl.find_opt tbl x with
    | Some c -> c
    | None ->
      let c = prefix ^ string_of_int (Hashtbl.length tbl) in
      Hashtbl.add tbl x c;
      c
  in
  List.iter (fun l -> ignore (intern labels "B" l)) block_order;
  let label l =
    match Hashtbl.find_opt labels l with
    | Some c -> c
    | None -> intern exits "X" l
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "region ";
  Buffer.add_string buf (kind_string region.An.Region.kind);
  Buffer.add_string buf " blocks=";
  Buffer.add_string buf (string_of_int (List.length block_order));
  Buffer.add_char buf '\n';
  List.iter
    (fun l -> add_block buf ~reg:(intern regs "r") ~label l (block l))
    block_order;
  { code = Buffer.contents buf;
    block_order;
    label_name =
      (fun l ->
        match Hashtbl.find_opt labels l with
        | Some c -> c
        | None ->
          (match Hashtbl.find_opt exits l with
           | Some c -> c
           | None -> "?" ^ l)) }

let exact_region (func : Ir.Func.t) (region : An.Region.t) =
  let block_order, block = traverse func region in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "region %s %s/%d entry=%s blocks=%d\n"
    (kind_string region.An.Region.kind)
    func.Ir.Func.name region.An.Region.id region.An.Region.entry
    (List.length block_order);
  List.iter
    (fun l -> add_block buf ~reg:Fun.id ~label:Fun.id l (block l))
    block_order;
  { code = Buffer.contents buf; block_order; label_name = Fun.id }

(* --- whole programs --- *)

let program_code (p : Ir.Program.t) =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "program main=";
  add p.Ir.Program.main;
  add "\n";
  List.iter
    (fun (g : Ir.Program.global) ->
      add "global ";
      add (Ir.Types.to_string g.Ir.Program.elem);
      add " ";
      add g.Ir.Program.gname;
      List.iter
        (fun d ->
          add "[";
          add (string_of_int d);
          add "]")
        g.Ir.Program.dims;
      add "\n")
    p.Ir.Program.globals;
  List.iter
    (fun (f : Ir.Func.t) ->
      add "func ";
      add f.Ir.Func.name;
      add "(";
      List.iteri
        (fun k r ->
          if k > 0 then add ", ";
          add_reg buf r.Ir.Instr.id r)
        f.Ir.Func.params;
      add ")";
      Option.iter
        (fun ty ->
          add " : ";
          add (Ir.Types.to_string ty))
        f.Ir.Func.ret;
      add "\n";
      List.iter
        (fun (b : Ir.Block.t) ->
          add_block buf ~reg:Fun.id ~label:Fun.id b.Ir.Block.label (Some b))
        f.Ir.Func.blocks)
    p.Ir.Program.funcs;
  Buffer.contents buf

let program_digest p = Digest.to_hex (Digest.string (program_code p))
