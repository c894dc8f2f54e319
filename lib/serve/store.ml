(* Content-addressed blob store backing the pass-cache spill.

   Addressing: MD5(key), sharded as root/ab/cdef... (two-hex-digit
   fan-out) so a long-lived cache directory never collects thousands
   of entries in one directory. The blob is opaque — the pipeline
   marshals [(key, product)] and verifies the key on load, so a hash
   collision or a corrupt file degrades to a cache miss there. Writes
   are tmp + rename: a concurrent reader (or a crash mid-write) sees
   either the old blob or the new one, never a torn file. A write or
   rename that fails removes its tmp file before raising, so a failed
   save leaves nothing that [entries] or [gc] would count. *)

type t = { root : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~root =
  mkdir_p root;
  { root }

let root t = t.root

let path t key =
  let h = Digest.to_hex (Digest.string key) in
  Filename.concat (Filename.concat t.root (String.sub h 0 2))
    (String.sub h 2 (String.length h - 2))

let save t key blob =
  let p = path t key in
  mkdir_p (Filename.dirname p);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" p (Unix.getpid ())
      (Hashtbl.hash (key, String.length blob))
  in
  let write () =
    let oc = open_out_bin tmp in
    match
      output_string oc blob;
      close_out oc
    with
    | () -> ()
    | exception e ->
        close_out_noerr oc;
        raise e
  in
  match
    write ();
    Sys.rename tmp p
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let load t key =
  let p = path t key in
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = in_channel_length ic in
          Some (really_input_string ic n))

let entries t =
  if not (Sys.file_exists t.root) then 0
  else
    Array.fold_left
      (fun acc shard ->
        let dir = Filename.concat t.root shard in
        if Sys.is_directory dir then acc + Array.length (Sys.readdir dir)
        else acc)
      0 (Sys.readdir t.root)

(* ---------------- size-capped GC ---------------- *)

type gc_report = {
  scanned : int;
  scanned_bytes : int;
  deleted : int;
  reclaimed_bytes : int;
}

let blobs t =
  if not (Sys.file_exists t.root) then []
  else
    Array.fold_left
      (fun acc shard ->
        let dir = Filename.concat t.root shard in
        if Sys.is_directory dir then
          Array.fold_left
            (fun acc name ->
              let p = Filename.concat dir name in
              match Unix.lstat p with
              | { Unix.st_kind = Unix.S_REG; st_size; st_atime; _ } ->
                  (p, st_size, st_atime) :: acc
              | _ | (exception Unix.Unix_error _) -> acc)
            acc (Sys.readdir dir)
        else acc)
      [] (Sys.readdir t.root)

let gc t ~max_bytes =
  let blobs = blobs t in
  let scanned = List.length blobs in
  let scanned_bytes = List.fold_left (fun a (_, s, _) -> a + s) 0 blobs in
  let deleted = ref 0 and reclaimed = ref 0 in
  if scanned_bytes > max_bytes then begin
    (* least-recently-used first; path breaks atime ties so the
       deletion order (and hence the report) is deterministic *)
    let oldest_first =
      List.sort
        (fun (p1, _, a1) (p2, _, a2) ->
          match compare (a1 : float) a2 with 0 -> compare p1 p2 | c -> c)
        blobs
    in
    let rec evict remaining = function
      | [] -> ()
      | _ when remaining <= max_bytes -> ()
      | (p, size, _) :: tl ->
          (match Sys.remove p with
          | () ->
              incr deleted;
              reclaimed := !reclaimed + size
          | exception Sys_error _ -> ());
          evict (remaining - size) tl
    in
    evict scanned_bytes oldest_first
  end;
  { scanned; scanned_bytes; deleted = !deleted; reclaimed_bytes = !reclaimed }

let pp_gc_report ppf r =
  Format.fprintf ppf
    "gc: scanned %d blobs (%d bytes), deleted %d (%d bytes reclaimed)"
    r.scanned r.scanned_bytes r.deleted r.reclaimed_bytes

let pipeline_store t =
  {
    Shell_core.Pipeline.save = (fun key blob -> save t key blob);
    load = (fun key -> load t key);
  }

let attach t = Shell_core.Pipeline.set_store (Some (pipeline_store t))
let detach () = Shell_core.Pipeline.set_store None
