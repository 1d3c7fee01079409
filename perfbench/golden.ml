(* Golden output digests committed with the benchmark: one
   "<key> <md5-hex>" line per op input, in [perfbench/golden/<workload>.txt].
   An op's output must hash to its key's digest; a missing key or a
   different digest fails the op. *)

type t = (string, string) Hashtbl.t

let digest s = Digest.to_hex (Digest.string s)

let path ~dir workload = Filename.concat dir (workload ^ ".txt")

let load ~dir workload : t =
  let t = Hashtbl.create 512 in
  let ic = open_in (path ~dir workload) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match String.split_on_char ' ' (input_line ic) with
          | [ key; d ] -> Hashtbl.replace t key d
          | _ -> failwith ("malformed golden line in " ^ path ~dir workload)
        done
      with End_of_file -> ());
  t

let check (t : t) ~key output =
  match Hashtbl.find_opt t key with
  | Some d -> String.equal d (digest output)
  | None -> false

let write ~dir workload (entries : (string * string) list) =
  let oc = open_out (path ~dir workload) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (key, output) -> Printf.fprintf oc "%s %s\n" key (digest output))
        entries)
