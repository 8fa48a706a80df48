module Fault = Dstress_faults.Fault
module Metrics = Dstress_obs.Obs.Metrics
module Log = Dstress_obs.Log

type opts = Pool.opts

let default_opts = Pool.default_opts

type degradation = {
  batch : int;
  reason : string;
  completed : int;
  count : int;
  respawns : int;
  abandoned : int;
}

exception Degraded of degradation
exception Task_failed of { index : int; message : string }

let pp_degradation ppf d =
  Format.fprintf ppf
    "@[<v>distributed batch %d degraded beyond recovery: %s@,\
     %d/%d task(s) completed, %d respawn(s), %d slot(s) abandoned@]"
    d.batch d.reason d.completed d.count d.respawns d.abandoned

let () =
  Printexc.register_printer (function
    | Degraded d -> Some (Format.asprintf "Distributed.Degraded (%a)" pp_degradation d)
    | Task_failed { index; message } ->
        Some (Printf.sprintf "Distributed.Task_failed (task %d: %s)" index message)
    | _ -> None)

type ctx = {
  o : opts;
  log : Log.t;
  mutable m : Metrics.t;
  mutable fault_source : (batch:int -> worker:int -> Fault.fault list) option;
  mutable next_batch : int;
}

let create ?(opts = default_opts) ?(log = Log.nop) () =
  Pool.check_opts opts;
  { o = opts; log; m = Metrics.create (); fault_source = None; next_batch = 0 }

let opts c = c.o
let metrics c = c.m

let begin_run c =
  c.m <- Metrics.create ();
  c.next_batch <- 0

let set_fault_source c src = c.fault_source <- Some src
let clear_fault_source c = c.fault_source <- None
let batches_dispatched c = c.next_batch

let index_body i =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  b

let run_batch ctx ~batch count f =
  let o = ctx.o and m = ctx.m in
  Metrics.incr m "pool.batches";
  let workers = min o.Pool.workers count in
  (* The batch deadline and respawn budget bound a map, so attempts
     need neither a deadline nor a budget of their own. *)
  let pool =
    Pool.create
      ~opts:
        { o with workers; request_deadline = infinity; max_attempts_per_request = max_int }
      ~log:ctx.log ~metrics:m
      ~tags:[ ("batch", Log.Int batch) ]
      ~handler:(fun body -> Marshal.to_bytes (f (Int64.to_int (Bytes.get_int64_le body 0))) [])
      ()
  in
  (* Disconnect and stall hit the first task of a slot's first worker; a
     partition covers every dispatch to the slot, respawns included, so
     the slot ends abandoned. *)
  Option.iter
    (fun src ->
      Pool.set_fault_source pool (fun ~dispatch:_ ~slot ~fresh ->
          List.filter
            (function Fault.Partition_worker _ -> true | _ -> fresh)
            (src ~batch ~worker:slot)))
    ctx.fault_source;
  let results = Array.make count None and errors = Array.make count None in
  let completed = ref 0 in
  for i = 0 to count - 1 do
    Pool.submit pool (index_body i) (function
      | Pool.Dispatched _ -> Metrics.incr m "pool.tasks_dispatched"
      | Pool.Finished (Ok r) ->
          results.(i) <- Some (Marshal.from_bytes r 0);
          incr completed
      | Pool.Finished (Error (Pool.Raised msg)) ->
          errors.(i) <- Some msg;
          incr completed
      | Pool.Requeued _ | Pool.Finished (Error _) -> ())
  done;
  let degrade reason =
    Log.error ctx.log "distributed batch degraded"
      [
        ("batch", Log.Int batch);
        ("reason", Log.Str reason);
        ("completed", Log.Int !completed);
        ("count", Log.Int count);
        ("respawns", Log.Int (Pool.respawns pool));
      ];
    raise
      (Degraded
         {
           batch;
           reason;
           completed = !completed;
           count;
           respawns = Pool.respawns pool;
           abandoned = workers - Pool.active pool;
         })
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let deadline = Unix.gettimeofday () +. o.batch_deadline in
      while !completed < count do
        if Pool.respawns pool > o.max_respawns_total then degrade "respawn budget exhausted";
        if Unix.gettimeofday () > deadline then degrade "batch deadline expired";
        if Pool.active pool = 0 then degrade "no live workers remain";
        Pool.step pool ~timeout:o.poll_interval
      done);
  (match
     Array.to_seq errors
     |> Seq.mapi (fun i e -> (i, e))
     |> Seq.find_map (fun (i, e) -> Option.map (fun msg -> (i, msg)) e)
   with
  | Some (index, message) -> raise (Task_failed { index; message })
  | None -> ());
  Array.map (function Some v -> v | None -> assert false) results

let map ctx count f =
  if count < 0 then invalid_arg "Distributed.map: negative count";
  let batch = ctx.next_batch in
  ctx.next_batch <- batch + 1;
  if count = 0 then [||] else run_batch ctx ~batch count f
