(* The per-layer metrics of the result line, by name and unit, as
   BENCHMARK.json lists them. A --trace 1 run prints all of them whatever
   its workload; each is measured by the workload whose [traced] list holds
   it (see [Report.print] for what the others print). The end-to-end set is
   [Report.end_to_end]. *)

let per_layer =
  Lock_wl.traced @ Battery_wl.traced @ Serve_wl.traced @ Report.host_metrics
