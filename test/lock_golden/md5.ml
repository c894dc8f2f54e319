(* Print one "md5 HEX FILE" line per file argument: how the lock
   goldens pin the bytes of a written design and bitstream. *)
let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let f = Sys.argv.(i) in
    Printf.printf "md5 %s %s\n" (Digest.to_hex (Digest.file f)) f
  done
