(* The battery rows every run must reproduce: (subject label, MD5 of the
   row's stable JSON). A change that makes an attack give up earlier, or
   recover a different key, fails the benchmark instead of looking faster.
   Verdicts in registry order (sat appsat brute sensitize structural
   redundancy scope removal proximity portfolio): B broken, r resilient,
   - n/a. *)

let battery =
  [
    (* B B B B r r r r - B *)
    ("xbar4/xor:8@1", "a6cf189372c708c82abb4887f51f6908");
    (* B B B B r r r B B B *)
    ("xbar4/mux:8@1", "63468bcb50aa7277d3f89be8f391843b");
    (* B B B B r r r r - B *)
    ("xbar4/rlut:4@1", "f9feadb6ecca33fa44a9b33bc9c3c751");
    (* B B B B r r r r - B *)
    ("xbar4/hlut:4@1", "97f89307715f9db84681874777bc0592");
    (* B B - B r r r r r B *)
    ("xbar4/muxlut:8@1", "b0d51d00ae15414bc78587b996232dcb");
  ]
