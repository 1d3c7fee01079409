module Ir = Cayman_ir
module Bits = Ir.Cfg.Bits
module Md = Ir.Cfg.Must_defined

type t = {
  cfg : Ir.Cfg.t;
  md : Md.t;
  live_in : Bits.t array;  (* per block id *)
}

(* Per block: upward-exposed uses ([gen]) and the registers it does not
   define ([keep], the complement of its kill set). *)
let gen_keep md n (b : Ir.Block.t) =
  let gen = Bits.create n and keep = Bits.full n in
  let use (r : Ir.Instr.reg) =
    let k = Md.reg md r.Ir.Instr.id in
    if k >= 0 && Bits.mem keep k then Bits.add gen k
  in
  List.iter
    (fun i ->
      List.iter use (Ir.Instr.uses i);
      match Ir.Instr.def i with
      | Some r -> Bits.remove keep (Md.reg md r.Ir.Instr.id)
      | None -> ())
    b.Ir.Block.instrs;
  List.iter use (Ir.Instr.term_uses b.Ir.Block.term);
  gen, keep

let compute (cfg : Ir.Cfg.t) md =
  let n = Md.size md in
  let gk = Array.map (gen_keep md n) cfg.Ir.Cfg.blocks in
  let live_in = Array.map (fun _ -> Bits.create n) gk in
  let inn = Bits.create n in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Backward iteration converges faster on reversed block order. *)
    for v = cfg.Ir.Cfg.size - 1 downto 0 do
      let gen, keep = gk.(v) in
      Bits.clear inn;
      Array.iter
        (fun s -> Bits.union_into ~dst:inn live_in.(s))
        cfg.Ir.Cfg.succs.(v);
      Bits.inter_into ~dst:inn keep;
      Bits.union_into ~dst:inn gen;
      if not (Bits.equal inn live_in.(v)) then begin
        Bits.blit ~dst:live_in.(v) inn;
        changed := true
      end
    done
  done;
  { cfg; md; live_in }

let live_in t label =
  match Ir.Cfg.id_opt t.cfg label with
  | Some v ->
    let s = t.live_in.(v) in
    fun reg ->
      let k = Md.reg t.md reg in
      k >= 0 && Bits.mem s k
  | None -> fun _ -> false
