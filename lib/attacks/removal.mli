(** Removal attack.

    Against pure-ROUTE redaction the adversary can bypass the fabric
    entirely: replace the redacted block with a guessed plain
    implementation (e.g. a standard AXI crossbar) and validate against
    the oracle. SheLL defeats this by entangling a minimal LGC slice
    with the ROUTE (Sec. IV) so that no off-the-shelf substitute
    matches. *)

type verdict = {
  matched : bool;  (** candidate agreed with the oracle on every vector *)
  vectors_tried : int;
  first_mismatch : bool array option;
}

val attempt :
  ?vectors:int ->
  oracle:(lanes:int -> int array -> int array) ->
  Shell_netlist.Netlist.t ->
  verdict
(** [attempt ~oracle candidate] — [candidate] is the attacker's guessed
    replacement (key-free, same port shape as the oracle's scan view);
    [oracle] is the activated chip in word form ({!Attack.word_oracle}).
    Candidate and oracle run word-parallel over the sample: exhaustive
    under 2^16 input space, otherwise [vectors] (default 512) random
    vectors. On a miscompare, [vectors_tried] counts up to and
    including the earliest differing vector, which is
    [first_mismatch]. *)

val attack : Attack.t
(** Battery form (["removal"]): tries the all-false and all-true
    constant-key specializations of the locked netlist as candidate
    replacements; a candidate matching the oracle on every sampled
    vector is then verified through {!Attack.checked_broken}. Cyclic
    specializations are skipped; [Inapplicable] when there is no key. *)
