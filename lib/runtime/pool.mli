(** The supervised worker pool: forked processes that run opaque
    [bytes -> bytes] tasks under heartbeat supervision.

    It has two clients. {!Distributed.map} creates one pool per batch,
    so each worker forks a fresh snapshot of the coordinator heap and a
    task can be a closure over it. {!Service} creates one pool per
    daemon and keeps its workers for the daemon's life; its tasks are
    encoded requests.

    {b Supervision.} Each worker heartbeats from a side thread, and the
    coordinator feeds every frame it reads into a per-slot
    {!Failure_detector}. A worker that disconnects, is suspected or
    overruns [request_deadline] is retired: its running task is
    re-queued and its slot respawns under a fresh epoch. A suspected or
    late worker is {e fenced}: its socket stays readable until shutdown,
    so a straggler's late reply is counted in [transport.fenced_frames]
    and dropped, never applied twice. A slot that exceeds
    [max_respawns_per_slot] is abandoned; a task that loses its worker
    [max_attempts_per_request] times fails with {!Exhausted}.

    {b Metrics} (wall-domain, in the registry given at {!create}):
    [pool.respawns], [pool.slots_abandoned], [pool.suspicions],
    [pool.worker_disconnects], [pool.integrity_failures],
    [pool.io_timeouts], [pool.request_timeouts], [pool.task_errors],
    [transport.fenced_frames] and the per-connection [transport.*]. *)

(** The one option record of both clients. The pool reads the first
    nine fields; the last four are client budgets. *)
type opts = {
  workers : int;  (** worker processes (>= 1) *)
  heartbeat_interval : float;  (** worker heartbeat period, seconds *)
  phi : float;  (** failure-detector suspicion threshold (> 1) *)
  io_deadline : float;  (** per-frame read/write deadline, seconds *)
  poll_interval : float;  (** select slice of the clients' loops, seconds *)
  max_respawns_per_slot : int;  (** respawns of one slot before it is abandoned *)
  socket_dir : string option;
      (** [None]: anonymous socketpairs; [Some dir]: named sockets under
          [dir], connected with bounded jittered backoff *)
  request_deadline : float;  (** wall bound on one dispatched attempt, seconds *)
  max_attempts_per_request : int;  (** dispatches of one task before {!Exhausted} *)
  batch_deadline : float;  (** {!Distributed.map}: whole-batch wall bound *)
  max_respawns_total : int;  (** {!Distributed.map}: respawns in one batch *)
  queue_depth : int;  (** {!Service}: bound on requests awaiting dispatch *)
  slow_request_s : float;
      (** {!Service}: latency above which a finished request logs at [Warn] *)
}

val default_opts : opts
(** 2 workers over socketpairs, 50 ms heartbeats, [phi] 8, 10 s frame
    deadlines, 20 ms poll, 2 respawns per slot, 120 s per attempt, 3
    attempts; 60 s batch deadline, 8 respawns per batch; queue depth 64,
    5 s slow-request threshold. *)

val check_opts : opts -> unit
(** Raises [Invalid_argument] on a non-positive worker count, interval
    or deadline, [phi <= 1], a negative respawn budget, or an attempt
    budget or queue depth below 1. *)

(** {1 Frame payloads}

    The payloads of [task], [result] and [error] frames: the bytes the
    pool reads from another process. The decoders return [None] on
    malformed input and never raise. *)

(** A task frame: the task's id, this dispatch's injected-fault
    directives, and the task body. *)
type task_frame = {
  reqid : int;
  stall : float;  (** seconds to stop writing before running the task *)
  mute : float;  (** seconds to stop writing instead of running it *)
  disconnect : bool;  (** sever the connection and exit on receipt *)
  body : bytes;
}

val encode_task : task_frame -> bytes

val decode_task : bytes -> task_frame option
(** [None] unless the payload is one header plus exactly the body length
    it declares. *)

val encode_reply : reqid:int -> bytes -> bytes
(** A [result] or [error] payload: [reqid], then the result bytes or the
    error text. *)

val decode_reply : bytes -> (int * bytes) option

val run_worker :
  ?log:Dstress_obs.Log.t -> Transport.t -> heartbeat_interval:float -> (bytes -> bytes) -> 'a
(** The loop of a forked worker; it leaves only through [Unix._exit].
    It sends [hello], heartbeats from a side thread and answers each
    task with a [result] frame, or an [error] frame holding the
    handler's exception text. A malformed task frame draws an [error]
    frame with reqid [-1]; either way the worker goes on serving. *)

(** {1 Coordinator side} *)

(** Why a task ended without a result. *)
type failure =
  | Raised of string  (** the handler raised on the worker; its text *)
  | Exhausted of { attempts : int; reason : string }
      (** lost its worker on every allowed attempt; [reason] is the last *)
  | No_workers  (** every slot was abandoned while the task was queued *)
  | Shut_down  (** {!shutdown} came first *)

(** What a task's callback hears, ending with exactly one [Finished]. *)
type event =
  | Dispatched of { slot : int; attempt : int }  (** [attempt] counts from 1 *)
  | Requeued of { attempt : int; reason : string }
      (** its worker was lost; the task is back at the end of the queue *)
  | Finished of (bytes, failure) result

type t

val create :
  ?opts:opts ->
  ?log:Dstress_obs.Log.t ->
  ?metrics:Dstress_obs.Obs.Metrics.t ->
  ?tags:(string * Dstress_obs.Log.field) list ->
  ?fork_fds:(unit -> Unix.file_descr list) ->
  handler:(bytes -> bytes) ->
  unit ->
  t
(** Check [opts] and fork [opts.workers] workers, which inherit
    [handler]. Must run before any [Domain.spawn] in this process. Sets
    SIGPIPE to ignore, so a write racing a worker death stays a typed
    [Closed] error. [metrics] defaults to a fresh registry. [log]
    (default {!Dstress_obs.Log.nop}, inherited by the workers) gets
    spawns at [Debug], lost workers at [Warn] and abandoned slots at
    [Error], each line carrying [tags]. [fork_fds] is consulted at every
    fork and names descriptors of the embedding process that a child
    must close. *)

val set_fault_source :
  t -> (dispatch:int -> slot:int -> fresh:bool -> Dstress_faults.Fault.fault list) -> unit
(** Consulted at every dispatch. [dispatch] counts dispatches from 0;
    [fresh] holds for the first task sent to a slot's first worker.
    Wire faults only: [Disconnect_worker] severs the socket on receipt,
    [Stall_worker] delays the reply past the suspicion window, and
    [Partition_worker] mutes the worker long enough to be fenced. *)

val submit : t -> ?trace:int64 -> bytes -> (event -> unit) -> unit
(** Queue a task body; its callback runs inside later {!step} or
    {!shutdown} calls. [trace] (default [0L]) is stamped on its frames
    and log lines. Raises [Invalid_argument] after {!shutdown}. *)

val step : t -> timeout:float -> unit
(** One supervision turn: dispatch queued tasks to idle slots, wait up
    to [timeout] for frames (0 polls), apply replies, run suspicion and
    the per-attempt deadline, respawn and re-dispatch, reap exited
    children. The only call that blocks. *)

val queued : t -> int
val idle : t -> bool  (** nothing queued, nothing running *)

val active : t -> int  (** slots not abandoned *)

val respawns : t -> int  (** respawns so far, abandoning ones included *)

val fds : t -> Unix.file_descr list
(** Live worker descriptors, for embedding in an outer select. *)

(** One slot, as {!slot_states} sees it. *)
type slot_state = {
  slot : int;  (** stable across respawns *)
  pid : int;
  epoch : int;
  respawns : int;
  abandoned : bool;
  running : int64 option;  (** trace of the running task *)
}

val slot_states : t -> slot_state list

val shutdown : ?drain_deadline:float -> t -> unit
(** Step until {!idle} or [drain_deadline] seconds (default 0) pass,
    fail the rest with {!Shut_down}, then send shutdown frames, SIGKILL
    whatever outlives a 2 s grace period and reap every child.
    Idempotent. *)
