module Ir = Cayman_ir
module String_set = Set.Make (String)

type loop = {
  header : string;
  latches : string list;
  blocks : String_set.t;
  exits : (string * string) list;
  preheader : string option;
  parent : string option;
}

type t = loop list

let of_cfg (cfg : Ir.Cfg.t) : t =
  let module B = Ir.Cfg.Bits in
  let n = cfg.Ir.Cfg.size and labels = cfg.Ir.Cfg.labels in
  let preds = cfg.Ir.Cfg.preds in
  (* Back edges [latch -> header], latches of each header listed last
     edge first. *)
  let latches = Array.make n [] in
  for b = 0 to n - 1 do
    Array.iter
      (fun s -> if Ir.Cfg.dominates cfg s b then latches.(s) <- b :: latches.(s))
      cfg.Ir.Cfg.succs.(b)
  done;
  (* Natural loop of a header: the header plus every block that reaches
     one of its latches without passing through the header. *)
  let body header =
    let body = B.create n in
    B.add body header;
    let rec pull v =
      if not (B.mem body v) then begin
        B.add body v;
        Array.iter pull preds.(v)
      end
    in
    List.iter pull latches.(header);
    body
  in
  (* Outer loops first: headers in RPO. *)
  let headers =
    List.filter (fun h -> latches.(h) <> []) (Array.to_list cfg.Ir.Cfg.rpo)
  in
  let found =
    List.map
      (fun header ->
        let bits = body header in
        let blocks = ref String_set.empty in
        B.iter (fun v -> blocks := String_set.add labels.(v) !blocks) bits;
        let exits =
          String_set.fold
            (fun label acc ->
              Array.fold_left
                (fun acc s ->
                  if B.mem bits s then acc else (label, labels.(s)) :: acc)
                acc
                cfg.Ir.Cfg.succs.(Ir.Cfg.id cfg label))
            !blocks []
        in
        let outside =
          List.filter (fun p -> not (B.mem bits p)) (Array.to_list preds.(header))
        in
        let preheader =
          match outside with
          | [ p ] -> Some labels.(p)
          | [] | _ :: _ :: _ -> None
        in
        ( bits,
          { header = labels.(header);
            latches = List.map (fun v -> labels.(v)) latches.(header);
            blocks = !blocks; exits; preheader; parent = None } ))
      headers
  in
  (* Parent links: the innermost distinct loop whose block set strictly
     contains this loop's. *)
  List.map
    (fun (bits, l) ->
      let parent =
        List.fold_left
          (fun best (bits', l') ->
            if String.equal l'.header l.header || not (B.subset bits bits')
            then best
            else
              match best with
              | Some (size, _) when size <= B.cardinal bits' -> best
              | Some _ | None -> Some (B.cardinal bits', l'.header))
          None found
      in
      { l with parent = Option.map snd parent })
    found

let loop_of t header = List.find_opt (fun l -> String.equal l.header header) t

(* Innermost-first list of loops containing [label]. *)
let enclosing t label =
  t
  |> List.filter (fun l -> String_set.mem label l.blocks)
  |> List.sort (fun a b ->
    compare (String_set.cardinal a.blocks) (String_set.cardinal b.blocks))

let is_innermost t l =
  not
    (List.exists
       (fun l' ->
         (not (String.equal l'.header l.header))
         && String_set.subset l'.blocks l.blocks)
       t)

let depth t l =
  let rec up acc = function
    | None -> acc
    | Some h ->
      (match loop_of t h with
       | Some p -> up (acc + 1) p.parent
       | None -> acc + 1)
  in
  up 1 l.parent
