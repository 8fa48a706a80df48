(** A bounded, thread-safe memo table.

    At most [limit] entries, most recently used first; a miss beyond the
    limit drops the least recently used entry. Keys are compared with the
    caller's [equal], so a table can key on physical identity ([==]) where
    the key holds closures or is too large to hash.

    Lookups and inserts run under one mutex, shared by every domain and
    systhread. The value is built outside it, so a builder may itself use
    other memo tables, and callers missing on different keys do not wait
    for each other. Two callers that miss on the same key may both build;
    the first to insert wins and both return its value, so every caller
    shares one physical value per key. *)

type ('k, 'v) t

val create : limit:int -> equal:('k -> 'k -> bool) -> ('k, 'v) t
(** Raises [Invalid_argument] if [limit < 1]. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t key build] returns the value stored under [key],
    calling [build ()] only on a miss. An exception from [build] leaves
    the table unchanged. *)
