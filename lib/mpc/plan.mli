(** Compiled GMW evaluation plans.

    Evaluating a circuit round by round means knowing, for each AND
    round, which gates form its batch and which local gates become ready
    after it. A plan performs that scheduling exactly once per circuit:
    gates are partitioned into the circuit's AND-levels
    ({!Dstress_circuit.Circuit.and_levels}) with operand and destination
    wire indices precomputed, and the GMW kernel ({!Gmw.eval_many}) just
    replays the levels.

    The AND batch of level [r] contains exactly the AND gates at level
    [r+1] of [and_levels], in wire order; the batch order fixes the PRG
    draws, OT counts and metered traffic of every evaluation.

    Plans are memoized per circuit (physical identity; a thread-safe LRU
    of 32 plans), so repeated evaluations of one circuit compile it once
    and concurrent evaluations share one plan. *)

type op =
  | Load_input of { dst : int; input : int }
      (** wire [dst] := input bit [input] (every party loads its share). *)
  | Load_const of { dst : int; value : bool }
      (** wire [dst] := [value] — party 0's share is [value], others 0. *)
  | Local_not of { dst : int; src : int }
      (** wire [dst] := ¬[src] — party 0 flips its share, others copy. *)
  | Local_xor of { dst : int; a : int; b : int }
      (** wire [dst] := [a] ⊕ [b], shares XOR locally. *)

type level = {
  and_dst : int array;
  and_a : int array;
  and_b : int array;
  post : op array;
}
(** One AND round: the batch of AND gates evaluated together (parallel
    arrays of destination/left/right wires) followed by the local gates
    that become computable once the batch lands. *)

type t

val of_circuit : Dstress_circuit.Circuit.t -> t
(** Memoized compilation (keyed on the circuit's physical identity). *)

val compile : Dstress_circuit.Circuit.t -> t
(** Uncached compilation; exposed for tests. *)

val circuit : t -> Dstress_circuit.Circuit.t
val num_wires : t -> int

val depth : t -> int
(** Number of AND rounds ( = [Circuit.and_depth]). *)

val and_count : t -> int
(** Total AND gates across all levels ( = [Circuit.and_count]). *)

val prologue : t -> op array
val levels : t -> level array

val digest : t -> string
(** Structural hash (hex SHA-256) of the plan's circuit — gate list,
    input count and output wires. Unlike physical identity, it survives
    Marshal round-trips, so preprocessed GMW material generated on one
    side of a process boundary still matches the plan on the other. Two
    structurally equal circuits share a digest. Only preprocessing reads
    it, so it is computed on first call and memoized in the plan; a plan
    marshalled before that call still marshals and computes the same
    value afterwards. *)

val compilations : unit -> int
(** Process-wide count of {!compile} runs (including those triggered by
    {!of_circuit} misses) — lets tests assert that memoization served a
    repeated circuit without recompiling. *)
