(** Correlated randomness for the GMW offline/online split.

    Every bit of randomness a GMW evaluation consumes — base-OT setup
    bytes and the Beaver-style mask bit each ordered party pair draws per
    AND gate — is a deterministic function of the session seed and the
    circuit's AND-level structure, and none of it depends on the inputs.
    The offline phase therefore replays those draws ahead of time
    ({!Gmw.generate_material}) and stores the results here; the online
    phase consumes them ({!Gmw.attach_material}) and skips every PRG and
    hash invocation on the critical path while remaining bit-identical —
    same output shares, same traffic matrices, same rounds/AND/OT
    counters, same per-party PRG states — to a session that generated
    inline.

    Material is cached in memory (process-wide, thread-safe) and
    optionally on disk, so daemon restarts and distributed workers reuse
    it across runs. *)

type eval = {
  masks : bytes array array;
      (** [masks.(level).(sender * parties + receiver)] holds one byte per
          AND gate of that level, drawn from the sender's party PRG in the
          online draw order; bit 0 of each byte is the mask bit. Diagonal
          entries are empty. *)
  post_prgs : Dstress_crypto.Prg.t array;
      (** Per-party PRG snapshots as they stand after this evaluation —
          restored on consumption so later inline draws continue the
          stream exactly. *)
}
(** Pre-drawn randomness for one full circuit evaluation. *)

type material = {
  digest : string;  (** {!Plan.digest} of the circuit it was drawn for. *)
  parties : int;
  seed : string;  (** Session seed the draws were replayed from. *)
  slice_width : int;
      (** Administrative record of the intended evaluation width (1 to
          64 lanes); every width consumes identical draw sequences, so it
          does not affect the bytes, only the cache key. *)
  ot_mode : Dstress_crypto.Ot_ext.mode;
  evals : eval array;
  ot : Dstress_crypto.Ot_ext.session option array array;
      (** Post-setup OT-extension sessions, [.(sender).(receiver)];
          deep-copied on attach so one cached value serves many
          sessions. *)
  setup_traffic : Traffic.t;
      (** Base-OT setup traffic, charged to the online session at attach
          time (inline it would be charged lazily during the first
          evaluation — indistinguishable to any observer that reads
          traffic after an evaluation). *)
}
(** The full offline product for one (circuit, parties, seed, mode) key.
    Plain data — safe to [Marshal] across process boundaries. *)

val evals_available : material -> int

val key :
  digest:string ->
  parties:int ->
  seed:string ->
  slice_width:int ->
  mode:Dstress_crypto.Ot_ext.mode ->
  string
(** Canonical cache-key string for a material request. *)

module Cache : sig
  type t

  val create : unit -> t

  val shared : t
  (** Process-wide instance used by the runtime engine. *)

  val find_or_generate :
    ?dir:string ->
    t ->
    digest:string ->
    parties:int ->
    seed:string ->
    slice_width:int ->
    mode:Dstress_crypto.Ot_ext.mode ->
    evals:int ->
    generate:(evals:int -> material) ->
    material
  (** Memory hit, else disk hit (when [dir] is given), else [generate] —
      in that order. The returned material has at least [evals]
      evaluations. The internal mutex is held across [generate], so
      concurrent requests for one key trigger exactly one generation.
      Freshly generated material is persisted to [dir] (created if
      missing); disk files failing the magic/CRC/field checks are
      silently regenerated. *)

  val generations : t -> int
  (** How many times [generate] ran (cache-miss count). *)

  val disk_loads : t -> int
  val hits : t -> int

  val clear : t -> unit
  (** Drop all entries and reset counters (tests). Does not touch disk. *)
end
