(* The daemon workload: the [dstress serve] executable with two persistent
   workers on a private Unix socket, driven as a closed loop by two client
   threads of this process, each sending its next request only after the
   reply to its last. Requests are small EN/EGJ stress tests; a third of
   them repeat one of a few preprocessed configs, so the workers' triple
   cache can hit, and the rest use fresh seeds. *)

open Nets
module Service = Dstress_runtime.Service
module Transport = Dstress_runtime.Transport
module Json = Dstress_obs.Json

let executable = "_build/default/bin/dstress.exe"
let workers = 2
let clients = 2

(* Every wait on the daemon is bounded, so a wedged daemon costs failed
   queries, never a hung benchmark. *)
let ready_timeout_s = 20.0
let call_timeout_s = 30.0
let drain_timeout_s = 30.0

(* --- the daemon process ------------------------------------------------ *)

type daemon = { pid : int; socket : string; mutable reaped : bool }

let start ~dir ~name =
  let socket = Filename.concat dir (name ^ ".sock") in
  let log =
    Unix.openfile (Filename.concat dir (name ^ ".log")) [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o600
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    [|
      executable; "serve"; "--socket"; socket; "--service-workers"; string_of_int workers;
      "--log-level"; "warn";
    |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log;
        Unix.close null)
      (fun () -> Unix.create_process executable argv null null log)
  in
  { pid; socket; reaped = false }

let exited d =
  d.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _ ->
      d.reaped <- true;
      true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      d.reaped <- true;
      true

let connect d = Transport.connect ~attempts:1 ~path:d.socket ()

(* Ready means a connection is accepted and a stats request answered. *)
let wait_ready d =
  let deadline = Unix.gettimeofday () +. ready_timeout_s in
  let rec attempt () =
    if exited d then Error "daemon exited before it was ready"
    else
      match connect d with
      | conn -> (
          match Service.fetch_stats ~timeout:5.0 conn with
          | _ -> Ok conn
          | exception Transport.Error e ->
              Transport.close conn;
              retry (Transport.error_message e))
      | exception Transport.Error e -> retry (Transport.error_message e)
      | exception Unix.Unix_error (e, _, _) -> retry (Unix.error_message e)
  and retry why =
    if Unix.gettimeofday () > deadline then Error ("daemon not ready: " ^ why)
    else begin
      Unix.sleepf 0.01;
      attempt ()
    end
  in
  attempt ()

(* SIGTERM starts the daemon's graceful drain; a clean drain exits 0. A
   daemon still alive at the deadline is killed, with its workers. *)
let stop ?(worker_pids = []) d =
  if exited d then Error "daemon had already exited"
  else begin
    Unix.kill d.pid Sys.sigterm;
    let deadline = Unix.gettimeofday () +. drain_timeout_s in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) worker_pids;
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid);
          d.reaped <- true;
          Error "daemon did not drain in time"
      | _, Unix.WEXITED 0 ->
          d.reaped <- true;
          Ok ()
      | _, _ ->
          d.reaped <- true;
          Error "daemon exited uncleanly on SIGTERM"
    in
    wait ()
  end

(* Last resort when the run itself fails: kill and reap a daemon that is
   still running. *)
let kill d =
  if not (exited d) then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid);
    d.reaped <- true
  end

(* --- the request sequence ---------------------------------------------- *)

let model_of (r : Service.request) = match r.Service.workload with Service.En -> En | Egj -> Egj

let input_of (r : Service.request) =
  build (model_of r) ~seed:r.Service.seed ~core:r.Service.core ~periphery:r.Service.periphery
    ~iterations:r.Service.iterations ()

(* Requests cycle through eight shapes: EN or EGJ, 2 or 3 peripheral
   banks, 1 or 2 rounds, on 2 core banks. Each shape's networks are drawn
   with that shape's most common link count and degree, so the seed picks
   the banks' balances and links but not the amount of work, and every
   seed sends the same mix. *)
let shapes =
  Array.of_list
    (List.concat_map
       (fun iterations ->
         List.concat_map
           (fun periphery ->
             List.map (fun w -> (w, periphery, iterations)) [ Service.En; Service.Egj ])
           [ 2; 3 ])
       [ 1; 2 ])

let shape_links periphery = if periphery = 2 then 4 else 6
let shape_degree periphery = if periphery = 2 then 3 else 4

let request (workload, periphery, iterations) ~seed ~preprocess =
  {
    Service.workload;
    core = 2;
    periphery;
    iterations;
    k = 2;
    seed;
    slice_width = 64;
    ot_mode = Ot_ext.Simulation;
    preprocess;
    executor = "";
  }

let rec draw_request prng ((_, periphery, _) as shape) ~preprocess =
  let seed = Prng.int prng 1_000_000_000 in
  let _, topo = topology ~seed ~core:2 ~periphery in
  let fits =
    List.length topo.Topology.links = shape_links periphery
    && Topology.max_degree topo = shape_degree periphery
  in
  let r = request shape ~seed ~preprocess in
  match if fits then Some (input_of r) else None with
  | Some _ -> r
  | None | (exception Invalid_argument _) -> draw_request prng shape ~preprocess

let sequence_length = 1024

(* Every third pass over the shapes repeats one preprocessed config per
   shape, so a worker's triple cache can hit; the other passes draw fresh
   seeds. *)
let sequence ~seed =
  let prng = Prng.of_int seed in
  let repeated = Array.map (fun shape -> draw_request prng shape ~preprocess:true) shapes in
  Array.init sequence_length (fun i ->
      let shape = i mod Array.length shapes in
      if i / Array.length shapes mod 3 = 0 then repeated.(shape)
      else draw_request prng shapes.(shape) ~preprocess:false)

let warmup_request = draw_request (Prng.of_int 0) shapes.(0) ~preprocess:false

let request_key (r : Service.request) =
  Printf.sprintf "%s core %d periphery %d rounds %d seed %d"
    (match r.Service.workload with Service.En -> "EN" | Egj -> "EGJ")
    r.Service.core r.Service.periphery r.Service.iterations r.Service.seed

(* --- the closed loop ---------------------------------------------------- *)

type call = {
  req : Service.request;
  wall : float;
  response : (Service.response, string) result;
}

let call ?spans conn req =
  let t0 = Unix.gettimeofday () in
  let response =
    match
      Spans.with_span spans "service.call" (fun () ->
          Service.call ~timeout:call_timeout_s conn req)
    with
    | r -> Ok r
    | exception Transport.Error e -> Error (Transport.error_message e)
    | exception Unix.Unix_error (e, fn, _) -> Error (fn ^ ": " ^ Unix.error_message e)
  in
  { req; wall = Unix.gettimeofday () -. t0; response }

(* One client: its own connection, reopened after a transport error. *)
let client d ~next ~deadline ~spans () =
  let calls = ref [] in
  let conn = ref None in
  while Unix.gettimeofday () < deadline do
    let i, req = next () in
    Option.iter (fun t -> Spans.set_query t i) spans;
    let c =
      match !conn with
      | Some c -> Ok c
      | None -> (
          match connect d with
          | c ->
              conn := Some c;
              Ok c
          | exception Transport.Error e -> Error (Transport.error_message e)
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
    in
    let result =
      match c with
      | Ok c -> call ?spans c req
      | Error m ->
          Unix.sleepf 0.05;
          { req; wall = 0.0; response = Error ("connect: " ^ m) }
    in
    (match (result.response, !conn) with
    | Error _, Some c ->
        Transport.close c;
        conn := None
    | _ -> ());
    calls := result :: !calls
  done;
  Option.iter Transport.close !conn;
  List.rev !calls

let closed_loop d ~sequence ~first ~seconds ~recorders =
  let lock = Mutex.create () in
  let cursor = ref first in
  let next () =
    Mutex.protect lock (fun () ->
        let i = !cursor in
        incr cursor;
        (i, sequence.(i mod Array.length sequence)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let results = Array.make clients [] in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            results.(c) <- client d ~next ~deadline ~spans:(List.nth_opt recorders c) ())
          ())
  in
  List.iter Thread.join threads;
  (List.concat (Array.to_list results), !cursor)

(* --- checks ------------------------------------------------------------- *)

let metric_number json name =
  match Json.member name json with
  | Some (Json.Num v) -> Some v
  | Some (Json.Int v) -> Some (float_of_int v)
  | _ -> None

(* A completed response must carry well-formed trace and metrics exports. *)
let decode (s : Service.summary) =
  match (Json.parse s.Service.metrics, Json.parse s.Service.trace) with
  | Ok metrics, Ok _ -> (
      match metric_number metrics "traffic.mean_node_bytes" with
      | Some b -> Ok b
      | None -> Error "metrics lack traffic.mean_node_bytes")
  | Error e, _ -> Error ("metrics do not parse: " ^ e)
  | _, Error e -> Error ("trace does not parse: " ^ e)

type checker = {
  grp : Group.t;
  plains : (string, input * int) Hashtbl.t;
  seen : (string, fingerprint) Hashtbl.t;
  refs : (string, fingerprint) Hashtbl.t;  (** counts per network shape *)
}

let checker () =
  {
    grp = Group.by_name "toy";
    plains = Hashtbl.create 64;
    seen = Hashtbl.create 64;
    refs = Hashtbl.create 16;
  }

let input_and_plain chk req =
  let key = request_key req in
  match Hashtbl.find_opt chk.plains key with
  | Some v -> v
  | None ->
      let input = input_of req in
      let v = (input, plaintext input) in
      Hashtbl.replace chk.plains key v;
      v

let engine_cfg chk (req : Service.request) (input : input) ~obs_level =
  config chk.grp ~k:req.Service.k ~degree:input.degree ~seed:(string_of_int req.Service.seed)
    ~executor:Executor.sequential ~obs_level ~preprocess:req.Service.preprocess

(* Protocol counts depend only on the network's shape. The first request
   of each shape is also run in this process, and every response of that
   shape must report the same counts. *)
let shape_key (req : Service.request) (input : input) =
  Printf.sprintf "%s periphery %d rounds %d D %d"
    (match req.Service.workload with Service.En -> "EN" | Egj -> "EGJ")
    req.Service.periphery req.Service.iterations input.degree

let reference chk req input =
  let key = shape_key req input in
  match Hashtbl.find_opt chk.refs key with
  | Some f -> f
  | None ->
      let s = run_query (engine_cfg chk req input ~obs_level:Obs.Off) input in
      let f = fingerprint s in
      Hashtbl.replace chk.refs key f;
      (* Same seeded config, so the daemon must match its output too. *)
      Hashtbl.replace chk.seen (request_key req) f;
      f

let check_summary chk req (s : Service.summary) =
  let fp =
    {
      f_output = s.Service.output;
      f_rounds = s.Service.mpc_rounds;
      f_ands = s.Service.mpc_and_gates;
      f_ots = s.Service.mpc_ots;
    }
  in
  let input, plain = input_and_plain chk req in
  let r = reference chk req input in
  if (r.f_rounds, r.f_ands, r.f_ots) <> (fp.f_rounds, fp.f_ands, fp.f_ots) then
    Rules.Check_failed
      (Printf.sprintf "%s: daemon counts %s differ from in-process %s" (request_key req)
         (pp_fingerprint fp) (pp_fingerprint r))
  else check ~program:input.program ~plain ~seen:chk.seen (request_key req) fp

(* Check one call; returns its bytes per node when it counts as completed. *)
let check_call chk tally c =
  let outcome, bytes =
    match c.response with
    | Error m -> (Rules.Raised m, None)
    | Ok (Service.Rejected m) -> (Rules.Rejected m, None)
    | Ok (Service.Degraded m) -> (Rules.Degraded m, None)
    | Ok (Service.Completed s) -> (
        match decode s with
        | Error m -> (Rules.Check_failed (request_key c.req ^ ": " ^ m), None)
        | Ok b -> (
            match check_summary chk c.req s with
            | Rules.Ok -> (Rules.Ok, Some (b, s))
            | o -> (o, None)))
  in
  Rules.record tally outcome;
  bytes

(* --- the run ------------------------------------------------------------ *)

type stats_view = {
  stats : Service.stats;
  worker_pids : int list;
  worker_rss_mb : float;
}

let scrape conn =
  let stats = Service.fetch_stats ~timeout:10.0 conn in
  let worker_pids =
    List.filter_map
      (fun w -> if w.Service.w_state = "abandoned" then None else Some w.Service.w_pid)
      stats.Service.workers
  in
  let worker_rss_mb =
    List.fold_left (fun acc p -> Float.max acc (Proc.peak_rss_mb p)) 0.0 worker_pids
  in
  { stats; worker_pids; worker_rss_mb }

let daemon_cpu_s d pids = List.fold_left (fun acc p -> acc +. Proc.cpu_s p) (Proc.cpu_s d.pid) pids

let latency st name =
  match List.assoc_opt name st.Service.latencies with
  | Some l -> l.Service.l_p50
  | None -> 0.0

let stat_counter st name =
  float_of_int (Option.value (List.assoc_opt name st.Service.counters) ~default:0)

(* In-process replay of the first requests of the sequence at [Obs.Full]:
   the engine phases, triple-cache use and GC that the daemon's workers do
   not report, checked bit for bit against the daemon's answers, plus the
   layer probes on the first request's circuits. Four passes over the
   shapes include two of the preprocessed configs, so the cache is looked
   up cold once and warm once per shape. *)
let replay_count = 4 * Array.length shapes

let replay chk tally ?spans requests =
  (* The reference runs of the checks filled this process's triple cache;
     start the replay cold, as a fresh worker would. *)
  Dstress_mpc.Triple.Cache.clear Dstress_mpc.Triple.Cache.shared;
  let samples =
    Array.to_list requests
    |> List.mapi (fun i req ->
           let input, plain = input_and_plain chk req in
           Option.iter (fun t -> Spans.set_query t i) spans;
           match
             Spans.with_span spans "query" (fun () ->
                 run_query ?spans (engine_cfg chk req input ~obs_level:Obs.Full) input)
           with
           | s ->
               Rules.record tally
                 (check ~program:input.program ~plain ~seen:chk.seen (request_key req)
                    (fingerprint s));
               Some (req, input, s)
           | exception e ->
               Rules.record tally (Rules.Raised ("replay: " ^ Printexc.to_string e));
               None)
    |> List.filter_map Fun.id
  in
  Option.iter (fun t -> Spans.set_query t (-1)) spans;
  let all = Array.of_list (List.map (fun (_, _, s) -> s) samples) in
  let req0, input0 = (requests.(0), fst (input_and_plain chk requests.(0))) in
  let n0 = Graph.n input0.graph in
  let c0 = Unix.gettimeofday () in
  let aggregate =
    Spans.with_span spans "setup.circuits" (fun () ->
        ignore (Vertex_program.update_circuit input0.program ~degree:input0.degree);
        Vertex_program.aggregate_circuit input0.program ~count:n0)
  in
  let circuit_build_s = Unix.gettimeofday () -. c0 in
  let probes = Probes.run ?spans chk.grp ~k:req0.Service.k ~instances:n0 input0 ~aggregate in
  let same_shape =
    Array.of_list
      (List.filter_map
         (fun (r, i, s) -> if shape_key r i = shape_key req0 input0 then Some s else None)
         samples)
  in
  let attempts = mean_of (fun s -> float_of_int s.transfer_attempts) all in
  let offline name = Array.fold_left (fun acc s -> acc + counter s.offline name) 0 all in
  let hits = offline "preprocess.cache.hits" in
  let looked_up =
    hits + offline "preprocess.cache.generations" + offline "preprocess.cache.disk_loads"
  in
  engine_layers all
  @ (("transfer.attempts", attempts)
    :: Probes.layers probes input0 ~n:n0 ~samples:same_shape
         ~attempts:(mean_of (fun s -> float_of_int s.transfer_attempts) same_shape))
  @ [
      ( "triple.hit_ratio",
        if looked_up = 0 then 0.0 else float_of_int hits /. float_of_int looked_up );
      ("triple.offline_s", mean_of (fun s -> sum s.offline "preprocess.wall_s") all);
      ("circuit.build_s", circuit_build_s);
    ]

let setup_reps = 3

type live = { d : daemon; conn : Transport.t }

(* One set-up: start the daemon, wait until it answers, and send the
   warm-up query. *)
let setup_once ~dir ~rep ~spans ~chk ~tally =
  let t0 = Unix.gettimeofday () in
  let failed m =
    Rules.record tally (Rules.Raised m);
    (Unix.gettimeofday () -. t0, None)
  in
  match
    Spans.with_span spans "setup.daemon_start" (fun () ->
        start ~dir ~name:(Printf.sprintf "d%d" rep))
  with
  | exception Unix.Unix_error (e, fn, _) -> failed (fn ^ ": " ^ Unix.error_message e)
  | d -> (
      match Spans.with_span spans "setup.daemon_ready" (fun () -> wait_ready d) with
      | Error m ->
          kill d;
          failed m
      | Ok conn ->
          let warm =
            Spans.with_span spans "setup.warmup" (fun () -> call ?spans conn warmup_request)
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          ignore (check_call chk tally warm);
          (elapsed, Some { d; conn }))

let shutdown tally ?(worker_pids = []) live =
  Transport.close live.conn;
  match stop ~worker_pids live.d with
  | Ok () -> ()
  | Error m -> Rules.record tally (Rules.Raised m)

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let run ~out_dir ~seed ~seconds ~trace =
  let tally = Rules.tally () in
  let chk = checker () in
  let main_spans = if trace then Some (Spans.create ()) else None in
  let dir = Filename.concat out_dir (Printf.sprintf "daemon-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o700;
  let sequence = sequence ~seed in
  let reps = if trace then 1 else setup_reps in
  let setups =
    List.init reps (fun rep ->
        let s = setup_once ~dir ~rep ~spans:main_spans ~chk ~tally in
        (match s with _, Some live when rep < reps - 1 -> shutdown tally live | _ -> ());
        s)
  in
  let setup_s = Rules.median (Array.of_list (List.map fst setups)) in
  match snd (List.nth setups (reps - 1)) with
  | None ->
      (* No daemon, no queries: every metric reads 0 and the run fails. *)
      let zeros = List.map (fun (n, _) -> (n, 0.0)) in
      remove_dir dir;
      {
        Batch.end_to_end = zeros Rules.end_to_end;
        layers = zeros Rules.per_layer;
        notes = [ "daemon failed to start" ];
        tally;
        recorders = [];
      }
  | Some live ->
      (* Whatever happens below, no daemon outlives the run. *)
      Fun.protect ~finally:(fun () -> kill live.d) @@ fun () ->
      let before = scrape live.conn in
      let cpu0 = daemon_cpu_s live.d before.worker_pids +. Proc.self_and_reaped_cpu_s () in
      let t0 = Unix.gettimeofday () in
      let untraced_s = if trace then seconds /. 2.0 else seconds in
      let calls, next = closed_loop live.d ~sequence ~first:0 ~seconds:untraced_s ~recorders:[] in
      let elapsed = Unix.gettimeofday () -. t0 in
      let cpu1 = daemon_cpu_s live.d before.worker_pids +. Proc.self_and_reaped_cpu_s () in
      let client_recorders =
        if trace then List.init clients (fun c -> Spans.create ~recorder:(c + 1) ()) else []
      in
      let traced_calls, _ =
        if trace then
          closed_loop live.d ~sequence ~first:next ~seconds:(seconds /. 2.0)
            ~recorders:client_recorders
        else ([], next)
      in
      let after =
        match scrape live.conn with
        | v -> Some v
        | exception Transport.Error e ->
            Rules.record tally (Rules.Raised ("stats: " ^ Transport.error_message e));
            None
      in
      let worker_pids = match after with Some a -> a.worker_pids | None -> before.worker_pids in
      shutdown tally ~worker_pids live;
      (* Checks run after the daemon is gone, outside the timed window. *)
      let checked calls =
        List.filter_map (fun c -> Option.map (fun b -> (c, b)) (check_call chk tally c)) calls
      in
      let ok = checked calls in
      let ok_traced = checked traced_calls in
      let walls l = Array.of_list (List.map (fun (c, _) -> c.wall) l) in
      let w =
        {
          Rules.walls = walls ok;
          elapsed_s = elapsed;
          cpu_s = cpu1 -. cpu0;
          bytes_per_node = Rules.mean (Array.of_list (List.map (fun (_, (b, _)) -> b) ok));
          rounds_per_query =
            Rules.mean
              (Array.of_list (List.map (fun (_, (_, s)) -> float_of_int s.Service.mpc_rounds) ok));
        }
      in
      let peak = match after with Some a -> a.worker_rss_mb | None -> before.worker_rss_mb in
      let end_to_end, note = Rules.end_to_end_metrics w ~setup_s ~peak_rss_mb:peak ~tally in
      let notes =
        [
          Printf.sprintf "requests: %d in the timed window, %d daemon workers, %d clients"
            (List.length calls) workers clients;
          Printf.sprintf "setup: %s s"
            (String.concat ", " (List.map (fun (s, _) -> Printf.sprintf "%.3f" s) setups));
          note;
        ]
      in
      if not trace then begin
        remove_dir dir;
        { Batch.end_to_end; layers = []; notes; tally; recorders = [] }
      end
      else begin
        let st = match after with Some a -> a.stats | None -> before.stats in
        let completed = float_of_int (max 1 (List.length ok + List.length ok_traced)) in
        let client_p50 = List.assoc "run_s_p50" end_to_end in
        let traced_p50 = if ok_traced = [] then 0.0 else Rules.median (walls ok_traced) in
        let response_bytes =
          Rules.mean
            (Array.of_list
               (List.map
                  (fun (_, (_, s)) ->
                    float_of_int (String.length s.Service.trace + String.length s.Service.metrics))
                  (ok @ ok_traced)))
        in
        let layers =
          replay chk tally ?spans:main_spans
            (Array.sub sequence 0 (min replay_count (Array.length sequence)))
        in
        let service =
          [
            ("pool.batches", stat_counter st "pool.batches" /. completed);
            ("pool.tasks_dispatched", stat_counter st "service.requests_dispatched" /. completed);
            ("transport.frames_sent", stat_counter st "transport.frames_sent" /. completed);
            ("transport.bytes_sent", stat_counter st "transport.bytes_sent" /. completed);
            ("pool.respawns", stat_counter st "pool.respawns");
            ("pool.suspicions", stat_counter st "pool.suspicions");
            ("transport.retransmits", stat_counter st "transport.retransmits");
            ("transport.reconnects", stat_counter st "transport.reconnects");
            ("executor.speedup_vs_sequential", 0.0);
            ("service.queue_wait_s_p50", latency st "service.queue_wait_s");
            ("service.dispatch_s_p50", latency st "service.dispatch_s");
            ("service.request_s_p50", latency st "service.request_s");
            ("service.queue_high_water", float_of_int st.Service.queue_high_water);
            ("service.client_overhead_s", client_p50 -. latency st "service.request_s");
            ("service.response_bytes", response_bytes);
            ("service.requests_degraded", stat_counter st "service.requests_degraded");
            ("service.requests_rejected", stat_counter st "service.requests_rejected");
            ("service.redispatches", stat_counter st "service.redispatches");
            ( "bench.trace_overhead_frac",
              if client_p50 > 0.0 then (traced_p50 /. client_p50) -. 1.0 else 0.0 );
          ]
        in
        remove_dir dir;
        {
          Batch.end_to_end;
          layers = layers @ service;
          notes;
          tally;
          recorders = Option.to_list main_spans @ client_recorders;
        }
      end
