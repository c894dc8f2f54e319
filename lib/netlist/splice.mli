(** Region replacement: swap a set of cells for a drop-in netlist.

    Used by the redaction flow to put the configured-fabric view where
    the extracted sub-circuit used to be. The replacement's key inputs
    are lifted to key inputs of the result. *)

val replace_cells :
  Netlist.t ->
  remove:(int -> bool) ->
  replacement:Netlist.t ->
  input_binding:(string * int) list ->
  output_binding:(string * int) list ->
  Netlist.t
(** [replace_cells parent ~remove ~replacement ~input_binding
    ~output_binding]:
    - cells with [remove index] true are dropped;
    - each [(port, net)] in [input_binding] feeds parent net [net] into
      the replacement input [port];
    - each [(port, net)] in [output_binding] drives parent net [net]
      (which must have lost its driver) from replacement output [port].
    The result is the spliced netlist with every [Buf] swept, each
    reader reconnected to the buffer's source (as
    {!Rewrite.sweep_buffers} does), built in one pass. Raises
    [Invalid_argument] on an unknown, unbound or doubly bound port,
    and {!Shell_util.Diag.Error} (context ["Splice"]) with the first
    {!Netlist.validate} defect of the spliced netlist, such as a doubly
    driven net or an undriven read. *)
