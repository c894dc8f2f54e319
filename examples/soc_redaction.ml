(* SoC-level redaction (the paper's Fig. 3): hide the inter-IP AXI
   crossbar plus a slice of the core2/core4 bus wrappers behind the
   eFPGA, then show why the wrapper LGC defeats the removal attack.

   Run with: dune exec examples/soc_redaction.exe *)

module N = Shell_netlist
module F = Shell_fabric
module A = Shell_attacks
module C = Shell_core
module Circ = Shell_circuits

let () =
  let soc = Circ.Soc.netlist () in
  Printf.printf "SoC platform: %d cells, %d inputs, %d outputs\n"
    (N.Netlist.num_cells soc)
    (List.length (N.Netlist.inputs soc))
    (List.length (N.Netlist.outputs soc));

  (* Fig. 3(c): eFPGA hosts the Xbar (ROUTE) plus the bus-facing
     wrapper logic of core2 and core4 (LGC) *)
  let config =
    C.Flow.shell_config
      ~target:
        (C.Flow.Fixed
           {
             route = [ "/xbar" ];
             lgc = [ ":wrap_core2"; ":wrap_core4" ];
             label = "AXI Xbar + wrap(core2, core4)";
           })
      ()
  in
  let r = C.Flow.run config soc in
  Format.printf "%a@." C.Flow.pp_summary r;
  Printf.printf "verification: %s\n\n"
    (if C.Flow.verify r then "PASS" else "FAIL");

  (* Removal attack: the adversary replaces the whole fabric with a
     plain crossbar. Against ROUTE-only redaction that works; the
     entangled wrapper LGC changes the block's function and port
     footprint, so the guess is caught. *)
  let oracle = A.Attack.word_oracle r.C.Flow.cut.C.Extraction.sub in
  let sanity = A.Removal.attempt ~oracle r.C.Flow.cut.C.Extraction.sub in
  Printf.printf "removal attack with the true block (sanity): %s\n"
    (if sanity.A.Removal.matched then "match" else "MISMATCH?");
  let xbar_only_cfg =
    C.Flow.shell_config
      ~target:(C.Flow.Fixed { route = [ "/xbar" ]; lgc = []; label = "xbar" })
      ()
  in
  let xbar_only = (C.Flow.run xbar_only_cfg soc).C.Flow.cut.C.Extraction.sub in
  let same_shape =
    List.length (N.Netlist.inputs xbar_only)
    = List.length (N.Netlist.inputs r.C.Flow.cut.C.Extraction.sub)
    && List.length (N.Netlist.outputs xbar_only)
       = List.length (N.Netlist.outputs r.C.Flow.cut.C.Extraction.sub)
  in
  if same_shape then begin
    let v = A.Removal.attempt ~oracle xbar_only in
    Printf.printf "removal attack with a plain Xbar: %s\n"
      (if v.A.Removal.matched then "MATCH — attack succeeded"
       else "mismatch — attack defeated by the entangled LGC")
  end
  else
    Printf.printf
      "removal attack with a plain Xbar: port shapes differ (the wrapper \
       LGC is woven into the fabric) — attack defeated\n"
