module Fault = Dstress_faults.Fault
module Metrics = Dstress_obs.Obs.Metrics
module Log = Dstress_obs.Log

type opts = {
  workers : int;
  heartbeat_interval : float;
  phi : float;
  io_deadline : float;
  poll_interval : float;
  max_respawns_per_slot : int;
  socket_dir : string option;
  request_deadline : float;
  max_attempts_per_request : int;
  batch_deadline : float;
  max_respawns_total : int;
  queue_depth : int;
  slow_request_s : float;
}

let default_opts =
  {
    workers = 2;
    heartbeat_interval = 0.05;
    phi = 8.0;
    io_deadline = 10.0;
    poll_interval = 0.02;
    max_respawns_per_slot = 2;
    socket_dir = None;
    request_deadline = 120.0;
    max_attempts_per_request = 3;
    batch_deadline = 60.0;
    max_respawns_total = 8;
    queue_depth = 64;
    slow_request_s = 5.0;
  }

let check_opts o =
  let bad what = invalid_arg ("Pool.check_opts: " ^ what) in
  if o.workers < 1 then bad "workers < 1";
  if not (o.heartbeat_interval > 0.0) then bad "heartbeat_interval <= 0";
  if not (o.phi > 1.0) then bad "phi <= 1";
  if
    not
      (o.io_deadline > 0.0 && o.poll_interval > 0.0 && o.request_deadline > 0.0
     && o.batch_deadline > 0.0)
  then bad "non-positive deadline";
  if
    o.max_respawns_per_slot < 0 || o.max_respawns_total < 0
    || o.max_attempts_per_request < 1 || o.queue_depth < 1
  then bad "bad budget"

(* ------------------------------------------------------------------ *)
(* Task / reply frame payloads                                         *)
(* ------------------------------------------------------------------ *)

type task_frame = {
  reqid : int;
  stall : float;
  mute : float;
  disconnect : bool;
  body : bytes;
}

(* reqid, stall seconds, mute seconds, disconnect flag, body length *)
let task_header_bytes = 29

let encode_task t =
  let blen = Bytes.length t.body in
  let b = Bytes.create (task_header_bytes + blen) in
  Bytes.set_int64_le b 0 (Int64.of_int t.reqid);
  Bytes.set_int64_le b 8 (Int64.bits_of_float t.stall);
  Bytes.set_int64_le b 16 (Int64.bits_of_float t.mute);
  Bytes.set_uint8 b 24 (if t.disconnect then 1 else 0);
  Bytes.set_int32_le b 25 (Int32.of_int blen);
  Bytes.blit t.body 0 b task_header_bytes blen;
  b

let decode_task p =
  let n = Bytes.length p in
  if n < task_header_bytes then None
  else
    let blen = Int32.to_int (Bytes.get_int32_le p 25) in
    let flag = Bytes.get_uint8 p 24 in
    if blen <> n - task_header_bytes || flag > 1 then None
    else
      Some
        {
          reqid = Int64.to_int (Bytes.get_int64_le p 0);
          stall = Int64.float_of_bits (Bytes.get_int64_le p 8);
          mute = Int64.float_of_bits (Bytes.get_int64_le p 16);
          disconnect = flag = 1;
          body = Bytes.sub p task_header_bytes blen;
        }

let encode_reply ~reqid body =
  let blen = Bytes.length body in
  let b = Bytes.create (8 + blen) in
  Bytes.set_int64_le b 0 (Int64.of_int reqid);
  Bytes.blit body 0 b 8 blen;
  b

let decode_reply p =
  if Bytes.length p < 8 then None
  else Some (Int64.to_int (Bytes.get_int64_le p 0), Bytes.sub p 8 (Bytes.length p - 8))

(* ------------------------------------------------------------------ *)
(* Worker side (forked child — exits only through Unix._exit, so the   *)
(* parent's at_exit handlers never run in a child)                     *)
(* ------------------------------------------------------------------ *)

let run_worker ?(log = Log.nop) conn ~heartbeat_interval handler =
  (* Writes are shared between the task loop and the heartbeat thread;
     [mu] serializes them. An injected stall or mute holds [mu] for its
     whole duration, so the worker genuinely stops writing — heartbeats
     included — which is what trips the coordinator's suspicion. *)
  let mu = Mutex.create () in
  let send ~kind ~epoch ?trace payload =
    Mutex.lock mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mu)
      (fun () -> ignore (Transport.send conn ~kind ~epoch ?trace payload))
  in
  let hold seconds =
    Mutex.lock mu;
    Thread.delay seconds;
    Mutex.unlock mu
  in
  (try send ~kind:Transport.Kind.hello ~epoch:0 Bytes.empty with _ -> Unix._exit 1);
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        try
          while true do
            Thread.delay heartbeat_interval;
            send ~kind:Transport.Kind.heartbeat ~epoch:0 Bytes.empty
          done
        with _ -> ())
      ()
  in
  (try
     while true do
       match Transport.recv conn ~timeout:1.0 with
       | None -> ()
       | Some fr when fr.Transport.kind = Transport.Kind.shutdown -> Unix._exit 0
       | Some fr when fr.Transport.kind = Transport.Kind.task -> (
           let epoch = fr.Transport.epoch and trace = fr.Transport.trace in
           match decode_task fr.Transport.payload with
           | None ->
               send ~kind:Transport.Kind.error ~epoch
                 (encode_reply ~reqid:(-1) (Bytes.of_string "malformed task frame"))
           | Some t -> (
               let reqid = t.reqid in
               Log.debug log ~trace "worker task received" [ ("reqid", Log.Int reqid) ];
               (* Injected partition: swallow the task and go silent long
                  enough to be fenced; the coordinator re-dispatches. *)
               if t.mute > 0.0 then hold t.mute
               else begin
                 if t.stall > 0.0 then hold t.stall;
                 if t.disconnect then begin
                   Transport.close conn;
                   Unix._exit 0
                 end;
                 match handler t.body with
                 | r ->
                     Log.debug log ~trace "worker task completed" [ ("reqid", Log.Int reqid) ];
                     send ~kind:Transport.Kind.result ~epoch ~trace (encode_reply ~reqid r)
                 | exception e ->
                     (* A failed task must not take the worker down:
                        report and stay warm for the next one. *)
                     let msg = Printexc.to_string e in
                     Log.warn log ~trace "worker task failed"
                       [ ("reqid", Log.Int reqid); ("error", Log.Str msg) ];
                     send ~kind:Transport.Kind.error ~epoch ~trace
                       (encode_reply ~reqid (Bytes.of_string msg))
               end))
       | Some _ -> ()
     done
   with _ -> Unix._exit 1);
  Unix._exit 0

(* ------------------------------------------------------------------ *)
(* Coordinator side                                                    *)
(* ------------------------------------------------------------------ *)

type failure =
  | Raised of string
  | Exhausted of { attempts : int; reason : string }
  | No_workers
  | Shut_down

type event =
  | Dispatched of { slot : int; attempt : int }
  | Requeued of { attempt : int; reason : string }
  | Finished of (bytes, failure) result

type task = {
  id : int;  (* the wire reqid *)
  body : bytes;
  trace : int64;
  notify : event -> unit;
  mutable attempts : int;
}

(* One worker incarnation; a respawn puts a new record in the slot. *)
type slot = {
  sid : int;  (* stable slot id — the fault plans' "worker" *)
  pid : int;
  conn : Transport.t;
  epoch : int;
  det : Failure_detector.t;
  respawns : int;
  abandoned : bool;
  mutable running : task option;
  mutable dispatched_at : float;
  mutable alive : bool;
  mutable fresh : bool;  (* the slot's first worker has not been sent a task *)
}

type t = {
  o : opts;
  handler : bytes -> bytes;
  m : Metrics.t;
  log : Log.t;
  tags : (string * Log.field) list;
  fork_fds : unit -> Unix.file_descr list;
  queue : task Queue.t;
  mutable slots : slot array;
  mutable next_id : int;
  mutable next_epoch : int;
  mutable dispatched : int;
  mutable total_respawns : int;
  mutable fenced : slot list;  (* retired slots, still drained *)
  mutable pids : int list;  (* every child not yet reaped *)
  mutable fault_source :
    (dispatch:int -> slot:int -> fresh:bool -> Fault.fault list) option;
  mutable closed : bool;
}

let now () = Unix.gettimeofday ()
let close_quietly fdesc = try Unix.close fdesc with Unix.Unix_error _ -> ()

let set_fault_source p src = p.fault_source <- Some src
let queued p = Queue.length p.queue
let respawns p = p.total_respawns
let active p = Array.fold_left (fun n s -> if s.abandoned then n else n + 1) 0 p.slots

let idle p = Queue.is_empty p.queue && Array.for_all (fun s -> s.running = None) p.slots

let fds p =
  Array.to_list p.slots
  |> List.filter_map (fun s -> if s.alive then Some (Transport.fd s.conn) else None)

let open_fds p = fds p @ List.map (fun s -> Transport.fd s.conn) p.fenced

(* Fork one worker for slot [sid] under a fresh epoch. The child closes
   every coordinator-side descriptor it inherits — sibling and fenced
   worker sockets plus whatever [fork_fds] names (a daemon's listener
   and client connections) — since a leaked fd would mask an EOF
   elsewhere. *)
let spawn p ~sid ~respawns =
  let o = p.o in
  let epoch = p.next_epoch in
  p.next_epoch <- epoch + 1;
  let extra_close = open_fds p @ p.fork_fds () in
  let rd = o.io_deadline and wd = o.io_deadline in
  let in_child ~close connect =
    List.iter close_quietly (close :: extra_close);
    run_worker ~log:p.log (connect ()) ~heartbeat_interval:o.heartbeat_interval p.handler
  in
  flush stdout;
  flush stderr;
  let pid, conn =
    match o.socket_dir with
    | None -> (
        let cfd, wfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.fork () with
        | 0 ->
            in_child ~close:cfd (fun () ->
                Transport.of_fd ~log:p.log ~read_deadline:rd ~write_deadline:wd wfd)
        | pid ->
            Unix.close wfd;
            (pid, Transport.of_fd ~metrics:p.m ~log:p.log ~read_deadline:rd ~write_deadline:wd cfd))
    | Some dir -> (
        let path =
          Filename.concat dir
            (Printf.sprintf "dstress-%d-w%d-e%d.sock" (Unix.getpid ()) sid epoch)
        in
        let lfd = Transport.listen ~path in
        let unlisten () =
          close_quietly lfd;
          try Unix.unlink path with Unix.Unix_error _ -> ()
        in
        match Unix.fork () with
        | 0 ->
            in_child ~close:lfd (fun () ->
                try
                  Transport.connect ~log:p.log ~read_deadline:rd ~write_deadline:wd ~attempts:10
                    ~backoff:0.005
                    ~jitter_seed:(sid + (31 * epoch))
                    ~path ()
                with _ -> Unix._exit 1)
        | pid -> (
            match
              Transport.accept ~metrics:p.m ~log:p.log ~read_deadline:rd ~write_deadline:wd
                ~deadline:10.0 lfd
            with
            | conn ->
                unlisten ();
                (pid, conn)
            | exception e ->
                unlisten ();
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
                raise e))
  in
  p.pids <- pid :: p.pids;
  Log.debug p.log "worker spawned"
    ([ ("worker", Log.Int sid); ("pid", Log.Int pid); ("epoch", Log.Int epoch) ] @ p.tags);
  let det = Failure_detector.create ~phi:o.phi ~expected_interval:o.heartbeat_interval () in
  Failure_detector.start det ~now:(now ());
  {
    sid;
    pid;
    conn;
    epoch;
    det;
    respawns;
    abandoned = false;
    running = None;
    dispatched_at = 0.0;
    alive = true;
    fresh = respawns = 0;
  }

let create ?(opts = default_opts) ?(log = Log.nop) ?(metrics = Metrics.create ()) ?(tags = [])
    ?(fork_fds = fun () -> []) ~handler () =
  check_opts opts;
  (* Writes to a worker that died race its EOF; without this the EPIPE
     becomes a fatal SIGPIPE instead of a typed [Closed] error. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let p =
    {
      o = opts;
      handler;
      m = metrics;
      log;
      tags;
      fork_fds;
      queue = Queue.create ();
      slots = [||];
      next_id = 0;
      next_epoch = 0;
      dispatched = 0;
      total_respawns = 0;
      fenced = [];
      pids = [];
      fault_source = None;
      closed = false;
    }
  in
  (* One at a time, so each child can close its siblings' sockets. *)
  for sid = 0 to opts.workers - 1 do
    p.slots <- Array.append p.slots [| spawn p ~sid ~respawns:0 |]
  done;
  p

let submit p ?(trace = 0L) body notify =
  if p.closed then invalid_arg "Pool.submit: pool is shut down";
  Queue.add { id = p.next_id; body; trace; notify; attempts = 0 } p.queue;
  p.next_id <- p.next_id + 1

let fail_queued p failure =
  let queued = List.of_seq (Queue.to_seq p.queue) in
  Queue.clear p.queue;
  List.iter (fun t -> t.notify (Finished (Error failure))) queued

(* A lost task burns one attempt; past the budget it fails with a typed
   outcome instead of cycling through respawns forever. *)
let requeue p t reason =
  if t.attempts >= p.o.max_attempts_per_request then
    t.notify (Finished (Error (Exhausted { attempts = t.attempts; reason })))
  else begin
    t.notify (Requeued { attempt = t.attempts; reason });
    Queue.add t p.queue
  end

let respawn p s =
  let respawns = s.respawns + 1 in
  p.total_respawns <- p.total_respawns + 1;
  Metrics.incr p.m "pool.respawns";
  if respawns <= p.o.max_respawns_per_slot then p.slots.(s.sid) <- spawn p ~sid:s.sid ~respawns
  else begin
    p.slots.(s.sid) <- { s with respawns; abandoned = true };
    Metrics.incr p.m "pool.slots_abandoned";
    Log.error p.log "worker slot abandoned: respawn budget exhausted"
      ([ ("worker", Log.Int s.sid); ("respawns", Log.Int respawns) ] @ p.tags);
    if active p = 0 then fail_queued p No_workers
  end

(* Fenced retirement keeps the dead slot's socket readable so a
   straggler's late reply is observed (and dropped by [apply]) instead of
   lingering in a kernel buffer; the task is re-queued under a fresh
   attempt, and the slot respawns under a fresh epoch. *)
let on_dead ?(fence = false) p s metric reason =
  Metrics.incr p.m metric;
  Log.warn p.log
    ?trace:(Option.map (fun t -> t.trace) s.running)
    "worker lost"
    ([
       ("worker", Log.Int s.sid);
       ("pid", Log.Int s.pid);
       ("epoch", Log.Int s.epoch);
       ("reason", Log.Str reason);
       ("fenced", Log.Bool fence);
     ]
    @ p.tags);
  if fence then p.fenced <- s :: p.fenced else Transport.close s.conn;
  s.alive <- false;
  (match s.running with
  | Some t ->
      s.running <- None;
      requeue p t reason
  | None -> ());
  respawn p s

let dispatch_ready p =
  Array.iter
    (fun s ->
      if s.alive && s.running = None && not (Queue.is_empty p.queue) then begin
        let t = Queue.pop p.queue in
        let dispatch = p.dispatched in
        p.dispatched <- dispatch + 1;
        t.attempts <- t.attempts + 1;
        let faults =
          match p.fault_source with
          | None -> []
          | Some src ->
              List.filter
                (fun fl -> Fault.is_wire (Fault.kind_of fl))
                (src ~dispatch ~slot:s.sid ~fresh:s.fresh)
        in
        s.fresh <- false;
        let stall =
          List.find_map (function Fault.Stall_worker { seconds; _ } -> Some seconds | _ -> None) faults
        in
        (* Long enough that the heartbeat detector fences the mute
           worker whatever the per-attempt deadline. *)
        let mute =
          if List.exists (function Fault.Partition_worker _ -> true | _ -> false) faults then
            (3.0 *. p.o.phi *. p.o.heartbeat_interval) +. 0.5
          else 0.0
        in
        let frame =
          {
            reqid = t.id;
            stall = Option.value stall ~default:0.0;
            mute;
            disconnect = List.exists (function Fault.Disconnect_worker _ -> true | _ -> false) faults;
            body = t.body;
          }
        in
        s.running <- Some t;
        s.dispatched_at <- now ();
        match
          Transport.send s.conn ~kind:Transport.Kind.task ~epoch:s.epoch ~trace:t.trace
            (encode_task frame)
        with
        | _ -> t.notify (Dispatched { slot = s.sid; attempt = t.attempts })
        | exception Transport.Error _ ->
            on_dead p s "pool.worker_disconnects" "worker connection died at dispatch"
      end)
    p.slots

(* A reply counts only if it names the task its slot is running, under
   the slot's epoch. A retired slot runs nothing, so whatever a fenced
   straggler sends is dropped here. *)
let apply p s fr =
  let k = fr.Transport.kind in
  if k = Transport.Kind.result || k = Transport.Kind.error then
    match (decode_reply fr.Transport.payload, s.running) with
    | Some (reqid, body), Some t when t.id = reqid && fr.Transport.epoch = s.epoch ->
        s.running <- None;
        if k = Transport.Kind.error then begin
          Metrics.incr p.m "pool.task_errors";
          t.notify (Finished (Error (Raised (Bytes.to_string body))))
        end
        else t.notify (Finished (Ok body))
    | _ -> Metrics.incr p.m "transport.fenced_frames"

(* Apply every frame already buffered on [s]; [false] once its connection
   has failed. Poll, never wait: the caller's select already proved
   readability, and a blocking drain would tax every reply with a full
   timeout spent discovering the stream is empty. *)
let drain p s =
  let rec loop () =
    match Transport.recv s.conn ~timeout:0.0 with
    | None -> true
    | Some fr ->
        Failure_detector.observe s.det ~now:(now ());
        apply p s fr;
        loop ()
  in
  match loop () with
  | keep -> keep
  | exception Transport.Error err ->
      (if not s.alive then Transport.close s.conn
       else
         let metric, reason =
           match err with
           | Transport.Closed _ -> ("pool.worker_disconnects", "worker connection closed")
           | Transport.Integrity _ -> ("pool.integrity_failures", "worker stream integrity failure")
           | Transport.Timeout _ -> ("pool.io_timeouts", "worker io timeout")
         in
         on_dead p s metric reason);
      false

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

let step p ~timeout =
  if p.closed then invalid_arg "Pool.step: pool is shut down";
  dispatch_ready p;
  let fds = open_fds p in
  let readable =
    if fds = [] then []
    else
      match Unix.select fds [] [] timeout with
      | r, _, _ -> r
      | exception Unix.Unix_error (EINTR, _, _) -> []
  in
  if readable <> [] then begin
    let ready s = List.mem (Transport.fd s.conn) readable in
    Array.iter (fun s -> if s.alive && ready s then ignore (drain p s)) p.slots;
    p.fenced <- List.filter (fun s -> (not (ready s)) || drain p s) p.fenced
  end;
  (* Heartbeat suspicion and the per-attempt deadline both retire the
     slot's epoch — a wedged or muted worker can never hang a task. *)
  Array.iter
    (fun s ->
      if s.alive then
        if Failure_detector.suspected s.det ~now:(now ()) then
          on_dead ~fence:true p s "pool.suspicions" "worker suspected by heartbeat detector"
        else if s.running <> None && now () -. s.dispatched_at > p.o.request_deadline then
          on_dead ~fence:true p s "pool.request_timeouts" "request deadline expired")
    p.slots;
  (* Re-queued work should not wait for the caller's next turn. *)
  dispatch_ready p;
  p.pids <- List.filter (fun pid -> not (exited pid)) p.pids

let shutdown ?(drain_deadline = 0.0) p =
  if not p.closed then begin
    let deadline = now () +. drain_deadline in
    (try
       while (not (idle p)) && now () < deadline do
         step p ~timeout:(min p.o.poll_interval (max 0.0 (deadline -. now ())))
       done
     with _ -> ());
    (* Anything still unfinished gets a typed outcome, never silence. *)
    Array.iter
      (fun s ->
        match s.running with
        | Some t ->
            s.running <- None;
            t.notify (Finished (Error Shut_down))
        | None -> ())
      p.slots;
    fail_queued p Shut_down;
    p.closed <- true;
    Array.iter
      (fun s ->
        if s.alive then begin
          (try
             ignore
               (Transport.send s.conn ~kind:Transport.Kind.shutdown ~epoch:s.epoch Bytes.empty)
           with _ -> ());
          Transport.close s.conn
        end)
      p.slots;
    List.iter (fun s -> Transport.close s.conn) p.fenced;
    p.fenced <- [];
    (* Reap with a grace period, then SIGKILL stragglers. *)
    let grace = now () +. 2.0 in
    while p.pids <> [] && now () < grace do
      p.pids <- List.filter (fun pid -> not (exited pid)) p.pids;
      if p.pids <> [] then Unix.sleepf 0.01
    done;
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      p.pids;
    p.pids <- []
  end

type slot_state = {
  slot : int;
  pid : int;
  epoch : int;
  respawns : int;
  abandoned : bool;
  running : int64 option;
}

let slot_states p =
  Array.to_list p.slots
  |> List.map (fun (s : slot) ->
         {
           slot = s.sid;
           pid = s.pid;
           epoch = s.epoch;
           respawns = s.respawns;
           abandoned = s.abandoned;
           running = Option.map (fun t -> t.trace) s.running;
         })
