(* Host-speed reference: a fixed kernel of stdlib List/Array/Hashtbl work,
   run in a helper process so it shares no heap, GC or domains with the
   program under test.

   The kernel has to allocate the way the program does (short-lived lists
   and arrays, a table that grows and is reset): an allocation-free kernel
   tracks the CPU but not the memory system, and normalising the flow by
   one made its spread wider than the raw times. *)

let rounds = 115

let work () =
  let h = Hashtbl.create 16 in
  let acc = ref 0 in
  for r = 1 to rounds do
    let l = List.init 256 (fun i -> ((i * 40503) + (r * 977)) land 0xffff) in
    let m = List.rev_map (fun x -> (x lxor r, x)) l in
    let a = Array.of_list (List.filter (fun (k, _) -> k land 3 <> 0) m) in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) a;
    List.iter (fun (k, v) -> Hashtbl.replace h (k land 0x7ff) [ v; r ]) m;
    acc := !acc + fst a.(Array.length a / 2) + Hashtbl.length h;
    if r land 63 = 0 then Hashtbl.reset h
  done;
  !acc

let time_work () =
  let t0 = Shell_util.Clock.now () in
  ignore (Sys.opaque_identity (work ()));
  1000. *. (Shell_util.Clock.now () -. t0)

type t = { pid : int; req : Unix.file_descr; resp : in_channel }

(* The helper answers each request byte with one line: the kernel's wall
   time in ms. It exits when the request pipe closes. Must be started
   before the program spawns any domain (OCaml 5 forbids fork after). *)
let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close resp_r;
      let out = Unix.out_channel_of_descr resp_w in
      let b = Bytes.create 1 in
      let rec loop () =
        match Unix.read req_r b 0 1 with
        | 0 -> ()
        | _ ->
            Printf.fprintf out "%h\n%!" (time_work ());
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      in
      (try loop () with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      { pid; req = req_w; resp = Unix.in_channel_of_descr resp_r }

let measure t =
  ignore (Unix.write_substring t.req "k" 0 1);
  float_of_string (input_line t.resp)

let stop t =
  (try Unix.close t.req with Unix.Unix_error _ -> ());
  (try close_in t.resp with Sys_error _ -> ());
  ignore (Unix.waitpid [] t.pid)
