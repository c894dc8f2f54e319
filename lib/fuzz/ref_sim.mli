(** The scalar reference simulator: one [bool] per net, one vector per
    evaluation.

    Nothing in the flow or the attacks runs it; {!Shell_netlist.Simw}
    is the one simulator there. It is kept as the independent model
    the [simw_vs_sim] oracle and the tests check the word engine
    against, so it stays as plain as it can be: combinational
    evaluation walks the topological order once per vector, [Dff]
    state starts at zero, and [Config_latch] cells hold a value loaded
    once at creation (the bitstream) and never change. It counts
    nothing into {!Shell_util.Obs}. *)

type t

val create : ?config:bool array -> Shell_netlist.Netlist.t -> t
(** [config] gives the per-[Config_latch] values in cell order (the
    order latches appear in the netlist); defaults to all-false. *)

val reset : t -> unit
(** Zero all [Dff] state (config latches keep their loaded value). *)

val step : t -> ?keys:bool array -> bool array -> bool array
(** [step t ~keys ins] applies one clock cycle: evaluates the
    combinational logic from primary inputs [ins] (declaration order)
    and key inputs [keys], returns the primary outputs, then updates the
    flops. [keys] defaults to all-false and must match the key count. *)

val eval_comb : t -> ?keys:bool array -> bool array -> bool array
(** Same as {!step} but without the state update. *)

val net_values : t -> bool array
(** Values of all nets after the last evaluation. *)
