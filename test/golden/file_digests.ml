(* Prints `<md5 hex>  <name>` for every file of a directory, sorted by
   name, so a golden pins the bytes a command writes without committing
   the files themselves:

     file_digests.exe DIR *)

let () =
  let dir = Sys.argv.(1) in
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.iter (fun name ->
         Printf.printf "%s  %s\n"
           (Digest.to_hex (Digest.file (Filename.concat dir name)))
           name)
