module Hls = Cayman_hls

(* Static checks over a structured netlist: name resolution (every
   identifier used in an expression is a declared port/wire/reg/param),
   single-driver discipline for wires, instance port/param shape against
   the primitive library, and FSM sanity (reachability, no dead-end
   states). The primitive port tables are parsed out of
   {!Hls.Netlist.primitives} itself, so the lint stays in sync with the
   stub library the Verilog elaborates against. *)

type finding = {
  f_rule : string;
  f_detail : string;
}

let finding f_rule f_detail = { f_rule; f_detail }

let to_string f = Printf.sprintf "[%s] %s" f.f_rule f.f_detail

(* ---- primitive library: module -> (port name * is_output) list,
   param names ---- *)

type prim = {
  p_ports : (string * bool) list;  (* name, is_output *)
  p_params : string list;
}

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

(* Tokenize Verilog-ish text into identifiers, skipping line/block
   comments, string literals and sized number literals (32'd5, 1'b1,
   32'h0010, -32'sd7). *)
let identifiers (s : string) =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '/' && !i + 1 < n && s.[!i + 1] = '/' then begin
      while !i < n && s.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && s.[!i + 1] = '*' then begin
      i := !i + 2;
      while !i + 1 < n && not (s.[!i] = '*' && s.[!i + 1] = '/') do
        incr i
      done;
      i := min n (!i + 2)
    end
    else if c = '"' then begin
      incr i;
      while !i < n && s.[!i] <> '"' do
        incr i
      done;
      incr i
    end
    else if c >= '0' && c <= '9' then begin
      (* number, possibly a sized literal: digits ['] [s] base alnum* *)
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done;
      if !i < n && s.[!i] = '\'' then begin
        incr i;
        while !i < n && is_ident_char s.[!i] do
          incr i
        done
      end
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      out := String.sub s start (!i - start) :: !out
    end
    else incr i
  done;
  List.rev !out

(* Parse the primitive library text into port tables. Declarations look
   like [module name #(parameter P = v, ...) (input wire [w:0] a, b,
   output reg [w:0] z);] — a comma-separated port list where each item
   either opens a new direction group or continues the previous one. *)
let parse_primitives () =
  let text = Hls.Netlist.primitives in
  let prims = Hashtbl.create 32 in
  let re_split sep s = String.split_on_char sep s in
  let lines = re_split '\n' text in
  (* glue continuation lines of a module header together *)
  let rec headers acc cur = function
    | [] -> List.rev acc
    | line :: rest ->
      let line =
        match String.index_opt line '/' with
        | Some j when j + 1 < String.length line && line.[j + 1] = '/' ->
          String.sub line 0 j
        | Some _ | None -> line
      in
      let cur' = cur ^ " " ^ line in
      if String.length (String.trim cur') = 0 then headers acc "" rest
      else if
        (* header complete at the first ';' *)
        String.contains cur' ';'
      then begin
        let upto = String.index cur' ';' in
        let h = String.sub cur' 0 upto in
        let acc' =
          if
            String.length (String.trim h) >= 6
            && String.sub (String.trim h) 0 6 = "module"
          then h :: acc
          else acc
        in
        headers acc' "" rest
      end
      else if
        String.length (String.trim cur') >= 6
        && String.sub (String.trim cur') 0 6 = "module"
      then headers acc cur' rest
      else headers acc "" rest
  in
  let hdrs = headers [] "" lines in
  List.iter
    (fun h ->
      (* h = "module name #( params ) ( ports )" *)
      let name =
        match identifiers h with
        | "module" :: n :: _ -> n
        | _ -> ""
      in
      if name <> "" then begin
        let params = ref [] in
        let ports = ref [] in
        (* split into parenthesized groups *)
        let depth = ref 0 in
        let buf = Buffer.create 64 in
        let groups = ref [] in
        String.iter
          (fun c ->
            if c = '(' then begin
              if !depth = 0 then Buffer.clear buf else Buffer.add_char buf c;
              incr depth
            end
            else if c = ')' then begin
              decr depth;
              if !depth = 0 then groups := Buffer.contents buf :: !groups
              else Buffer.add_char buf c
            end
            else if !depth > 0 then Buffer.add_char buf c)
          h;
        List.iter
          (fun g ->
            let items = re_split ',' g in
            if List.exists (fun it -> List.mem "parameter" (identifiers it)) items
            then
              (* parameter group: "parameter P = v" items *)
              List.iter
                (fun it ->
                  match identifiers it with
                  | "parameter" :: p :: _ -> params := p :: !params
                  | _ -> ())
                items
            else begin
              (* port group *)
              let dir = ref false in
              List.iter
                (fun it ->
                  match identifiers it with
                  | "input" :: rest ->
                    dir := false;
                    (match List.rev rest with
                     | p :: _ -> ports := (p, !dir) :: !ports
                     | [] -> ())
                  | "output" :: rest ->
                    dir := true;
                    (match List.rev rest with
                     | p :: _ -> ports := (p, !dir) :: !ports
                     | [] -> ())
                  | toks ->
                    (* continuation: last identifier is the port name
                       (skips width digits, which aren't identifiers) *)
                    (match List.rev toks with
                     | p :: _ -> ports := (p, !dir) :: !ports
                     | [] -> ()))
                items
            end)
          (List.rev !groups);
        Hashtbl.replace prims name
          { p_ports = List.rev !ports; p_params = List.rev !params }
      end)
    hdrs;
  prims

(* Parsed once, when the module is initialised: a [lazy] table forced
   by two pool domains at once raises [CamlinternalLazy.Undefined]. *)
let primitive_table = parse_primitives ()

let check (nl : Hls.Netlist.structure) =
  let open Hls.Netlist in
  let prims = primitive_table in
  let findings = ref [] in
  let report rule fmt =
    Printf.ksprintf (fun d -> findings := finding rule d :: !findings) fmt
  in
  (* declared name environment *)
  let declared = Hashtbl.create 64 in
  let declare kind name =
    if Hashtbl.mem declared name then
      report "redeclared" "%s %s declared more than once" kind name
    else Hashtbl.replace declared name kind
  in
  List.iter (fun (p, _, _) -> declare "port" p) nl.nl_ports;
  List.iter (fun (p, _) -> declare "localparam" p) nl.nl_params;
  List.iter (fun (r, _) -> declare "reg" r) nl.nl_regs;
  List.iter (fun (w, _) -> declare "wire" w) nl.nl_wires;
  let check_expr where e =
    List.iter
      (fun id ->
        if not (Hashtbl.mem declared id) then
          report "undeclared" "identifier %s used in %s is not declared" id
            where)
      (identifiers e)
  in
  (* assigns: declared lhs, resolvable rhs, single driver *)
  let drivers : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let drive w =
    Hashtbl.replace drivers w (1 + Option.value ~default:0 (Hashtbl.find_opt drivers w))
  in
  List.iter
    (fun (lhs, rhs) ->
      (match Hashtbl.find_opt declared lhs with
       | Some "wire" -> drive lhs
       | Some kind ->
         report "assign-target" "assign drives %s %s (not a wire)" kind lhs
       | None -> report "undeclared" "assign drives undeclared wire %s" lhs);
      check_expr (Printf.sprintf "assign %s" lhs) rhs)
    nl.nl_assigns;
  (* instances: known module, exact port shape, known params, outputs
     drive declared wires *)
  List.iter
    (fun (inst : instance) ->
      match Hashtbl.find_opt prims inst.i_module with
      | None ->
        report "unknown-module" "instance %s references undefined module %s"
          inst.i_name inst.i_module
      | Some prim ->
        let formal_dir f = List.assoc_opt f prim.p_ports in
        List.iter
          (fun (f, actual) ->
            (match formal_dir f with
             | None ->
               report "port-shape" "instance %s (%s) connects unknown port .%s"
                 inst.i_name inst.i_module f
             | Some is_output ->
               if is_output then begin
                 (* an output must drive a declared wire, and only once *)
                 match Hashtbl.find_opt declared actual with
                 | Some "wire" -> drive actual
                 | Some "reg" when inst.i_block = None -> ()
                 (* interface instances of datapath-free modules may sink
                    into module outputs *)
                 | Some "port" -> ()
                 | Some kind ->
                   report "port-shape"
                     "instance %s output .%s drives %s %s" inst.i_name f kind
                     actual
                 | None ->
                   report "undeclared"
                     "instance %s output .%s drives undeclared %s" inst.i_name
                     f actual
               end
               else
                 check_expr
                   (Printf.sprintf "instance %s port .%s" inst.i_name f)
                   actual);
            ())
          inst.i_ports;
        (* exact arity: every primitive port must be connected *)
        List.iter
          (fun (p, _) ->
            if not (List.mem_assoc p inst.i_ports) then
              report "port-shape" "instance %s (%s) leaves port .%s unconnected"
                inst.i_name inst.i_module p)
          prim.p_ports;
        if List.length inst.i_ports <> List.length prim.p_ports then
          report "port-shape"
            "instance %s (%s) connects %d ports, module declares %d"
            inst.i_name inst.i_module
            (List.length inst.i_ports)
            (List.length prim.p_ports);
        List.iter
          (fun (p, _) ->
            if not (List.mem p prim.p_params) then
              report "port-shape" "instance %s (%s) sets unknown parameter %s"
                inst.i_name inst.i_module p)
          inst.i_params)
    nl.nl_instances;
  Hashtbl.iter
    (fun w n ->
      if n > 1 then
        report "multiple-drivers" "wire %s has %d drivers" w n)
    drivers;
  (* commits: registers latched from declared wires *)
  List.iter
    (fun (state, pairs) ->
      List.iter
        (fun ((r : Cayman_ir.Instr.reg), wire) ->
          if Hashtbl.find_opt declared (Hls.Netlist.reg_name r.Cayman_ir.Instr.id) <> Some "reg"
          then
            report "commit" "state %s commits to undeclared register %%%s"
              state r.Cayman_ir.Instr.id;
          if Hashtbl.find_opt declared wire <> Some "wire" then
            report "commit" "state %s commits %%%s from undeclared wire %s"
              state r.Cayman_ir.Instr.id wire)
        pairs)
    nl.nl_commits;
  (* FSM sanity: transitions between declared states, everything
     reachable from S_IDLE, no dead-end states, guards resolvable *)
  let state_names = Hashtbl.create 16 in
  List.iter
    (fun (s : fsm_state) -> Hashtbl.replace state_names s.s_name ())
    nl.nl_states;
  List.iter
    (fun (t : transition) ->
      if not (Hashtbl.mem state_names t.t_from) then
        report "fsm" "transition from undefined state %s" t.t_from;
      if not (Hashtbl.mem state_names t.t_to) then
        report "fsm" "transition to undefined state %s" t.t_to;
      match t.t_guard with
      | Some g ->
        check_expr (Printf.sprintf "guard %s -> %s" t.t_from t.t_to) g
      | None -> ())
    nl.nl_transitions;
  let reachable = Hashtbl.create 16 in
  let rec reach s =
    if not (Hashtbl.mem reachable s) then begin
      Hashtbl.replace reachable s ();
      List.iter
        (fun (t : transition) ->
          if String.equal t.t_from s then reach t.t_to)
        nl.nl_transitions
    end
  in
  reach "S_IDLE";
  List.iter
    (fun (s : fsm_state) ->
      if not (Hashtbl.mem reachable s.s_name) then
        report "fsm" "state %s is unreachable from S_IDLE" s.s_name;
      if
        not
          (List.exists
             (fun (t : transition) -> String.equal t.t_from s.s_name)
             nl.nl_transitions)
      then report "fsm" "state %s has no outgoing transition" s.s_name)
    nl.nl_states;
  List.rev !findings
