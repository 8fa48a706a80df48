(** SHA-256 (FIPS 180-4), implemented from scratch.

    The container has no crypto library, so we provide our own digest for
    the hash-based PRG, the random-oracle calls in the oblivious-transfer
    protocols, and commitment-style fingerprints in tests. Verified against
    the FIPS test vectors and a recorded golden in the test suite. *)

type scratch
(** Working state of one compression (chaining value, message schedule,
    padding block). The module keeps no global state: whoever hashes owns
    the scratch, so concurrent callers (domains or systhreads) never
    share one. *)

val scratch : unit -> scratch

val digest2_into : scratch -> bytes -> bytes -> bytes -> int -> unit
(** [digest2_into st a b dst off] writes the 32-byte digest of [a ‖ b]
    to [dst] at [off] without allocating: full blocks are read straight
    from [a] and [b], and only the last one or two (padded) blocks, or a
    block straddling the two parts, are assembled in [st]. Raises
    [Invalid_argument] if [dst] has fewer than 32 bytes at [off]. *)

val digest : bytes -> bytes
(** 32-byte digest. *)

val hex_digest : string -> string
(** Digest of a string, hex-encoded (64 characters). *)

val hmac : key:bytes -> bytes -> bytes
(** HMAC-SHA256 (RFC 2104). *)
