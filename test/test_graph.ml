(* Tests for shell_graph: digraph structure and centrality measures. *)

module D = Shell_graph.Digraph
module C = Shell_graph.Centrality

(* diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
let diamond () = D.make ~n:4 ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]

(* chain: 0 -> 1 -> 2 -> 3 -> 4 *)
let chain () = D.make ~n:5 ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4) ]

let test_degrees () =
  let g = diamond () in
  Alcotest.(check int) "out 0" 2 (D.out_degree g 0);
  Alcotest.(check int) "in 3" 2 (D.in_degree g 3);
  Alcotest.(check int) "in 0" 0 (D.in_degree g 0);
  Alcotest.(check int) "edges" 4 (D.num_edges g)

let test_duplicate_edges () =
  let g = D.make ~n:2 ~edges:[ (0, 1); (0, 1); (0, 1) ] in
  Alcotest.(check int) "deduplicated" 1 (D.num_edges g)

let test_bfs () =
  let g = chain () in
  let d = D.bfs_from g [ 0 ] in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] d;
  let back = D.bfs_from g ~reverse:true [ 4 ] in
  Alcotest.(check (array int)) "reverse distances" [| 4; 3; 2; 1; 0 |] back

let test_bfs_unreachable () =
  let g = D.make ~n:3 ~edges:[ (0, 1) ] in
  let d = D.bfs_from g [ 0 ] in
  Alcotest.(check int) "unreachable" max_int d.(2)

let test_coverage () =
  let g = chain () in
  Alcotest.(check (float 1e-9)) "middle covers all" 1.0 (D.coverage g [ 2 ]);
  let g2 = D.make ~n:4 ~edges:[ (0, 1) ] in
  Alcotest.(check (float 1e-9)) "half covered" 0.5 (D.coverage g2 [ 0 ])

let test_sccs () =
  let g = D.make ~n:5 ~edges:[ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ] in
  let sccs = D.sccs g in
  Alcotest.(check int) "three components" 3 (List.length sccs);
  let big = List.find (fun c -> List.length c = 3) sccs in
  Alcotest.(check (list int)) "cycle component" [ 0; 1; 2 ]
    (List.sort compare big)

let test_degree_centrality () =
  let g = diamond () in
  let ic = C.in_degree g in
  Alcotest.(check (float 1e-9)) "sink has max in-degree" 1.0 ic.(3);
  Alcotest.(check (float 1e-9)) "source has zero" 0.0 ic.(0)

let test_closeness () =
  let g = chain () in
  let cl = C.closeness g ~sources:[ 0 ] ~sinks:[ 4 ] in
  (* endpoints are closest to the I/O boundary, the middle farthest *)
  Alcotest.(check bool) "ends beat middle" true
    (cl.(0) > cl.(2) && cl.(4) > cl.(2))

let test_betweenness_chain () =
  let g = chain () in
  let b = C.betweenness g ~sources:[ 0 ] ~sinks:[ 4 ] in
  Alcotest.(check bool) "interior maximal" true
    (b.(2) > 0.0 && b.(0) = 0.0);
  Alcotest.(check bool) "all interior equal" true (b.(1) = b.(2) && b.(2) = b.(3))

let test_betweenness_bypass () =
  (* 0->1->3 and 0->2a->2b->3: node 1 carries the only shortest path *)
  let g = D.make ~n:5 ~edges:[ (0, 1); (1, 4); (0, 2); (2, 3); (3, 4) ] in
  let b = C.betweenness g ~sources:[ 0 ] ~sinks:[ 4 ] in
  Alcotest.(check bool) "short path node wins" true (b.(1) > b.(2))

(* The exact result bits of seeded random digraphs, as the code that
   ran one shared accumulator below four sources or at one job computed
   them (the first case has three sources). Folding the per-source
   passes in any other order than source order changes some of them. *)
let random_digraph seed ~n ~m =
  let rng = Shell_util.Rng.create seed in
  let edge _ = (Shell_util.Rng.int rng n, Shell_util.Rng.int rng n) in
  D.make ~n ~edges:(List.init m edge)

let pinned_betweenness =
  [
    ( (5, 12, 36, [ 0; 1; 2 ], [ 11; 10; 9; 8 ]),
      [| 0x0p+0; 0x0p+0; 0x0p+0; 0x0p+0; 0x1.5e50d79435e51p-1; 0x1p+0;
         0x1.286bca1af286cp-1; 0x1.ca1af286bca1ap-2; 0x1.9435e50d79436p-2;
         0x1.e50d79435e50ep-3; 0x1.286bca1af286cp-2; 0x0p+0 |] );
    ( (1, 16, 48, [ 0; 1; 2; 3; 4; 5 ], [ 15; 14; 13; 12 ]),
      [| 0x1.5555555555555p-2; 0x0p+0; 0x0p+0; 0x0p+0; 0x0p+0;
         0x1.d89d89d89d89ep-3; 0x0p+0; 0x1.3b13b13b13b14p-3;
         0x1.d89d89d89d89ep-2; 0x1.3b13b13b13b14p-4; 0x1.4834834834834p-1;
         0x1.13b13b13b13b1p-1; 0x1.a41a41a41a41ap-4; 0x0p+0; 0x1p+0;
         0x0p+0 |] );
    ( (2, 20, 70, [ 0; 1; 2; 3; 4; 5; 6; 7 ], [ 19; 18; 17; 16 ]),
      [| 0x1.a5294a5294a53p-2; 0x1.0842108421084p-4; 0x0p+0;
         0x1.0842108421084p-5; 0x1.46318c6318c63p-1; 0x1.294a5294a5294p-3;
         0x0p+0; 0x1.39ce739ce739ep-1; 0x1p+0; 0x0p+0; 0x1.8c6318c6318c6p-1;
         0x1.0842108421084p-3; 0x1.def7bdef7bdfp-3; 0x1p-2;
         0x1.8c6318c6318c7p-6; 0x1.0c6318c6318c6p-1; 0x0p+0;
         0x1.8c6318c6318c7p-4; 0x0p+0; 0x0p+0 |] );
  ]

let test_betweenness_pinned_bits () =
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun ((seed, n, m, sources, sinks), want) ->
      let g = random_digraph seed ~n ~m in
      List.iter
        (fun jobs ->
          Alcotest.(check (array int64))
            (Printf.sprintf "seed %d at jobs %d" seed jobs)
            (bits want)
            (bits (C.betweenness ~jobs g ~sources ~sinks)))
        [ 1; 2; 4 ])
    pinned_betweenness

let test_betweenness_no_sources () =
  let b = C.betweenness (diamond ()) ~sources:[] ~sinks:[ 3 ] in
  Alcotest.(check (array (float 0.0))) "all zero" [| 0.; 0.; 0.; 0. |] b

let test_eigenvector () =
  (* star: center connected to all leaves *)
  let g = D.make ~n:5 ~edges:[ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  let e = C.eigenvector g in
  Alcotest.(check (float 1e-6)) "center maximal" 1.0 e.(0);
  Alcotest.(check bool) "leaves below" true (e.(1) < 1.0)

(* The list-stack Tarjan the array one replaced, kept as its oracle:
   components in completion order, each in discovery order. *)
let sccs_oracle (succs : int array array) =
  let n = Array.length succs in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let visit root =
    let call = ref [ (root, ref 0) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !call <> [] do
      match !call with
      | [] -> ()
      | (u, pos) :: rest ->
          if !pos < Array.length succs.(u) then begin
            let v = succs.(u).(!pos) in
            incr pos;
            if index.(v) = -1 then begin
              index.(v) <- !next_index;
              lowlink.(v) <- !next_index;
              incr next_index;
              stack := v :: !stack;
              on_stack.(v) <- true;
              call := (v, ref 0) :: !call
            end
            else if on_stack.(v) then lowlink.(u) <- min lowlink.(u) index.(v)
          end
          else begin
            call := rest;
            (match rest with
            | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(u)
            | [] -> ());
            if lowlink.(u) = index.(u) then begin
              let rec pop acc =
                match !stack with
                | [] -> acc
                | v :: tl ->
                    stack := tl;
                    on_stack.(v) <- false;
                    if v = u then v :: acc else pop (v :: acc)
              in
              components := pop [] :: !components
            end
          end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  List.rev !components

(* random digraphs, sparse to dense, with self-loops and repeated
   edges: the array Tarjan gives the oracle's lists exactly, through
   [sccs] (on [make]'s deduplicated graph) and through
   [iter_csr_sccs] on the raw successor arrays *)
let test_sccs_oracle () =
  let module Rng = Shell_util.Rng in
  let rng = Rng.create 4099 in
  for case = 1 to 300 do
    let n = Rng.int rng 60 in
    let m = if n = 0 then 0 else Rng.int rng (1 + (n * (1 + (case mod 4)))) in
    let edges =
      List.init m (fun _ ->
          let u = Rng.int rng n in
          (* one edge in eight is a self-loop, one in eight is doubled *)
          match Rng.int rng 8 with 0 -> (u, u) | _ -> (u, Rng.int rng n))
      |> List.concat_map (fun e ->
             if Rng.int rng 8 = 0 then [ e; e ] else [ e ])
    in
    let what s = Printf.sprintf "case %d (n=%d, m=%d): %s" case n m s in
    let g = D.make ~n ~edges in
    Alcotest.(check (list (list int)))
      (what "sccs")
      (sccs_oracle (Array.init n (D.succs g)))
      (D.sccs g);
    let succs =
      Array.init n (fun u ->
          Array.of_list
            (List.filter_map
               (fun (a, b) -> if a = u then Some b else None)
               edges))
    in
    let off = Array.make (n + 1) 0 in
    Array.iteri (fun u vs -> off.(u + 1) <- off.(u) + Array.length vs) succs;
    let found = ref [] in
    D.iter_csr_sccs ~off ~adj:(Array.concat (Array.to_list succs))
      (fun stack lo hi ->
        found := Array.to_list (Array.sub stack lo (hi - lo)) :: !found);
    Alcotest.(check (list (list int)))
      (what "iter_csr_sccs") (sccs_oracle succs) (List.rev !found)
  done

let suite =
  [
    ("degrees", `Quick, test_degrees);
    ("duplicate edges", `Quick, test_duplicate_edges);
    ("bfs", `Quick, test_bfs);
    ("bfs unreachable", `Quick, test_bfs_unreachable);
    ("coverage", `Quick, test_coverage);
    ("sccs", `Quick, test_sccs);
    ("sccs match the list Tarjan", `Quick, test_sccs_oracle);
    ("degree centrality", `Quick, test_degree_centrality);
    ("closeness", `Quick, test_closeness);
    ("betweenness chain", `Quick, test_betweenness_chain);
    ("betweenness bypass", `Quick, test_betweenness_bypass);
    ("betweenness pinned bits", `Quick, test_betweenness_pinned_bits);
    ("betweenness no sources", `Quick, test_betweenness_no_sources);
    ("eigenvector", `Quick, test_eigenvector);
  ]
