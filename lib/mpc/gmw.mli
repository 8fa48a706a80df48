(** GMW n-party secure computation over boolean circuits
    (Goldreich–Micali–Wigderson, STOC'87) — the MPC engine DStress uses for
    every vertex computation step, the aggregation step and the noising
    step.

    Wires carry XOR shares: each of the [k+1] parties holds one bit per
    wire and the cleartext value is the XOR of all of them.
    - XOR and NOT gates are evaluated locally (free);
    - AND gates use one 1-out-of-2 oblivious transfer per *ordered* party
      pair, batched per circuit AND-level and served by the IKNP extension
      ({!Dstress_crypto.Ot_ext}), so the number of communication rounds per
      circuit equals its AND depth.

    All parties are simulated in-process; every byte that would cross the
    wire is recorded in a {!Traffic} matrix, and the cumulative counters
    ({!rounds}, {!and_gates_evaluated}, {!ots_performed}) feed the cost
    model that reproduces the paper's scalability projections. *)

type session

val create_session :
  ?mode:Dstress_crypto.Ot_ext.mode ->
  Dstress_crypto.Group.t ->
  parties:int ->
  seed:string ->
  session
(** [create_session grp ~parties ~seed] prepares per-party randomness.
    OT-extension sessions between party pairs are established lazily on
    first use (and their base-OT traffic is charged at that point).
    Default mode is [Crypto]; [Simulation] swaps in the fast OT back end
    (see {!Dstress_crypto.Ot_ext}). Raises [Invalid_argument] if
    [parties < 2]. *)

val parties : session -> int

val share_input : session -> Dstress_util.Bitvec.t -> Dstress_util.Bitvec.t array
(** Split a cleartext input vector into per-party XOR shares using the
    session's dealer randomness (test/benchmark convenience — in DStress
    proper, inputs arrive already shared). *)

val eval :
  session ->
  Dstress_circuit.Circuit.t ->
  input_shares:Dstress_util.Bitvec.t array ->
  Dstress_util.Bitvec.t array
(** [eval s c ~input_shares] runs the protocol on one session: it is
    [(eval_many [| s |] c ~input_shares:[| input_shares |]).(0)], the
    one-lane case of the single GMW kernel. [input_shares] has one vector
    of length [c.num_inputs] per party; the result has one vector of
    length [Array.length c.outputs] per party, XOR-sharing the outputs
    (outputs are *not* revealed — DStress keeps them shared, §3.6).
    Raises [Invalid_argument] on shape mismatches. *)

val eval_many :
  session array ->
  Dstress_circuit.Circuit.t ->
  input_shares:Dstress_util.Bitvec.t array array ->
  Dstress_util.Bitvec.t array array
(** The GMW kernel: bitsliced evaluation of the same circuit across many
    independent sessions (protocol instances). It packs up to 64
    instances into each [int64] wire word, so local gates cost one word
    op and each AND level runs one word-level OT batch per ordered pair
    ({!Dstress_crypto.Ot_ext.extend_words}); instances beyond 64 are
    processed in successive chunks. Everything observable stays per
    session and independent of how sessions are grouped:
    [eval_many sessions c ~input_shares] gives each session the same
    output shares, traffic matrix, rounds/AND/OT counters and PRG states
    afterwards as
    [Array.mapi (fun i s -> eval s c ~input_shares:input_shares.(i)) sessions].
    All sessions must agree on party count and OT mode.
    Raises [Invalid_argument] on shape mismatches. *)

val generate_material :
  ?mode:Dstress_crypto.Ot_ext.mode ->
  Dstress_crypto.Group.t ->
  parties:int ->
  seed:string ->
  slice_width:int ->
  evals:int ->
  Plan.t ->
  Triple.material
(** Offline phase: pre-draw, on a throwaway session created exactly like
    [create_session ?mode grp ~parties ~seed], all the correlated
    randomness that [evals] evaluations of the plan's circuit will
    consume — the lazy per-pair OT-extension setup and every Beaver-style
    mask bit, in the online draw order — plus per-party PRG snapshots
    after each evaluation. The result is input-independent and can be
    cached ({!Triple.Cache}), shipped across processes, and attached to
    any number of fresh sessions. *)

val attach_material : session -> Triple.material -> unit
(** [attach_material s mat] installs offline material into a fresh
    session: deep-copies of the pre-set-up OT sessions, the base-OT setup
    traffic (charged here instead of lazily during the first evaluation —
    indistinguishable to any caller that reads traffic after an
    evaluation), and the mask store. Subsequent {!eval}/{!eval_many}
    calls on the matching circuit consume one pre-drawn entry each and
    skip every online PRG and OT invocation, remaining bit-identical —
    output shares, traffic, counters, PRG states — to inline generation;
    once the material is exhausted, evaluation falls back to inline draws
    and continuity of the PRG streams keeps the equivalence exact.
    Evaluating a {e different} circuit drops the material (the snapshots
    would no longer line up) and continues inline.

    The session must be fresh — same [parties], [seed]-compatible PRG
    states (unevaluated), same OT [mode], no established OT sessions.
    Raises [Invalid_argument] otherwise. *)

val material_remaining : session -> int
(** Pre-drawn evaluations not yet consumed (0 when none attached). *)

val reveal : session -> Dstress_util.Bitvec.t array -> Dstress_util.Bitvec.t
(** Open shared values by all-to-all broadcast of shares (metered). *)

val observe : session -> Dstress_obs.Obs.t -> unit
(** Fold the session's cumulative counters into a metrics registry:
    increments [mpc.sessions] by one and [mpc.rounds], [mpc.and_gates],
    [mpc.ots] by the session totals. The engine calls this once per
    session at the end of a run, in a fixed session order, so the registry
    is deterministic. *)

val traffic : session -> Traffic.t
(** Cumulative traffic matrix (live reference; use {!reset_traffic} to
    start a fresh measurement window). *)

val reset_traffic : session -> unit

val rounds : session -> int
(** Cumulative AND rounds across all [eval] calls. *)

val and_gates_evaluated : session -> int
val ots_performed : session -> int
