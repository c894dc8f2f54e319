module Style = Shell_fabric.Style

type named_target = { route : string list; lgc : string list; label : string }

let fixed t = Flow.Fixed { route = t.route; lgc = t.lgc; label = t.label }

let case1 t =
  {
    Flow.style = Style.Openfpga;
    target = fixed t;
    shrink = false;
    seed = 0xca5e1;
  }

let case2 t = { (case1 t) with Flow.seed = 0xca5e2 }

let case3 t =
  {
    Flow.style = Style.Fabulous_std;
    target = fixed t;
    shrink = false;
    seed = 0xca5e3;
  }

let case4 t =
  {
    Flow.style = Style.Fabulous_muxchain;
    target = fixed t;
    shrink = true;
    seed = 0xca5e4;
  }

let all ~case1:t1 ~case2:t2 ~case3:t3 ~shell =
  [
    ("Case 1 (no-strategy, OpenFPGA)", case1 t1);
    ("Case 2 (filtering, OpenFPGA)", case2 t2);
    ("Case 3 (no-strategy, FABulous)", case3 t3);
    ("Case 4 (SheLL)", case4 shell);
  ]
