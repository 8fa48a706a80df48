(** Multi-process executor backend: blocks run as separate OS processes.

    A {!map} call is one {e dispatch batch} and one {!Pool}: the pool
    forks its workers when the batch starts and reaps them when it ends,
    so every worker inherits (copy-on-write) the coordinator's state at
    that moment. The task closure therefore needs no marshalling; only
    its index goes out, and only the {e results} (plain data by the
    {!Executor} task contract) come back, [Marshal]-encoded in
    {!Transport} frames.

    {b What this client adds to the pool.} Supervision — heartbeats,
    suspicion, epoch fencing, respawn and re-dispatch — is the pool's.
    A map adds two budgets of its own: the batch deadline
    ([batch_deadline]) and the respawns allowed across all slots of one
    batch ([max_respawns_total]). When either runs out, or every slot is
    abandoned, {!map} fails fast with the typed {!Degraded} report — it
    never hangs. Attempts have no deadline or budget of their own.

    {b Determinism.} The pool touches only wall-domain state: results
    are merged in index order by {!Phase.run_tasks} exactly as for the
    in-process backends, so tick-domain Obs exports are byte-identical
    to [Sequential]. The pool's counters live in {!metrics}, a registry
    that is never merged into a run collector.

    {b Wire faults.} A fault source installed with {!set_fault_source}
    is keyed on (batch, slot). [Disconnect_worker] and [Stall_worker]
    hit only the first task of a slot's first worker; a
    [Partition_worker] mutes every dispatch to the slot, respawns
    included, so the slot ends abandoned. *)

type opts = Pool.opts
(** The shared pool options; a map reads [batch_deadline] and
    [max_respawns_total] and ignores the daemon's fields. *)

val default_opts : opts
(** {!Pool.default_opts}. *)

type degradation = {
  batch : int;
  reason : string;
  completed : int;  (** tasks finished before the pool gave up *)
  count : int;  (** tasks in the batch *)
  respawns : int;
  abandoned : int;  (** slots written off *)
}

exception Degraded of degradation
(** The batch could not finish under the failure budget. Raised fast —
    every wait in the pool is deadline-bounded. *)

exception Task_failed of { index : int; message : string }
(** A task raised on its worker; the exception text made the round trip
    in an error frame. Raised for the lowest failing index after the
    batch drains, mirroring the in-process backends. *)

val pp_degradation : Format.formatter -> degradation -> unit

type ctx

val create : ?opts:opts -> ?log:Dstress_obs.Log.t -> unit -> ctx
(** Raises [Invalid_argument] on bad options ({!Pool.check_opts}).
    [log] (default {!Dstress_obs.Log.nop}) receives the pool's
    wall-domain lifecycle events, tagged with the batch, and
    degradations at [Error]; it never affects tick-domain exports. *)

val opts : ctx -> opts

val metrics : ctx -> Dstress_obs.Obs.Metrics.t
(** Wall-domain pool + transport counters for the current run (fresh
    after {!begin_run}); never part of tick-domain exports. *)

val begin_run : ctx -> unit
(** Reset the batch counter and start a fresh metrics registry: batches
    of a new run line up with a wire-fault plan's batch indices. *)

val set_fault_source : ctx -> (batch:int -> worker:int -> Dstress_faults.Fault.fault list) -> unit
(** Consulted at every dispatch with the batch and the slot id; only
    wire-level faults ({!Dstress_faults.Fault.is_wire}) are acted on.
    Typically [Fault.Injector.wire_faults], so firings are recorded in
    the same injector the engine reports from. *)

val clear_fault_source : ctx -> unit

val batches_dispatched : ctx -> int
(** Batches dispatched since {!begin_run} — the next batch index. *)

val map : ctx -> int -> (int -> 'a) -> 'a array
(** [map ctx count f] evaluates [f i] for [0 <= i < count] on forked
    worker processes and returns the results in index order. ['a] must
    be marshal-safe plain data (no closures — the {!Executor} task
    contract). Raises {!Degraded} or {!Task_failed} as above. *)
