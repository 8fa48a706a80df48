(* The benchmark's reporting rules, kept free of any protocol code so the
   test suite can pin them: metric names and units, the tail-percentile
   rule, failure accounting and the result line the benchmark prints. *)

(* End-to-end metrics, printed by every untraced run, in this order. *)
let end_to_end =
  [
    ("run_s_p50", "s");
    ("run_s_tail", "s");
    ("throughput_qps", "1/s");
    ("cpu_s_per_query", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("bytes_per_node", "bytes");
    ("mpc_rounds_per_query", "count");
    ("completed_frac", "frac");
  ]

(* Per-layer metrics, printed by every traced run. A metric that does not
   apply to a workload (no daemon, no preprocessing, no worker pool)
   reads 0 there; perfbench/README.md lists which apply where. *)
let per_layer =
  [
    ("engine.query_wall_s", "s");
    ("engine.setup_s", "s");
    ("engine.initialization_s", "s");
    ("engine.computation_s", "s");
    ("engine.communication_s", "s");
    ("engine.aggregation_s", "s");
    ("engine.other_s", "s");
    ("engine.computation_bytes", "bytes");
    ("engine.communication_bytes", "bytes");
    ("engine.aggregation_bytes", "bytes");
    ("mpc.and_gates", "count");
    ("mpc.ots", "count");
    ("mpc.rounds", "count");
    ("gmw.sliced_ns_per_and", "ns");
    ("gmw.sliced_words_per_and", "words");
    ("gmw.computation_share", "frac");
    ("gmw.scalar_ns_per_and", "ns");
    ("gmw.scalar_words_per_and", "words");
    ("gmw.aggregation_share", "frac");
    ("ot_ext.ns_per_ot", "ns");
    ("group.pow_us", "us");
    ("transfer.edge_s", "s");
    ("transfer.communication_share", "frac");
    ("transfer.attempts", "count");
    ("transfer.retries", "count");
    ("transfer.failures", "count");
    ("pool.batches", "count");
    ("pool.tasks_dispatched", "count");
    ("transport.frames_sent", "count");
    ("transport.bytes_sent", "bytes");
    ("pool.respawns", "count");
    ("pool.suspicions", "count");
    ("transport.retransmits", "count");
    ("transport.reconnects", "count");
    ("executor.speedup_vs_sequential", "ratio");
    ("service.queue_wait_s_p50", "s");
    ("service.dispatch_s_p50", "s");
    ("service.request_s_p50", "s");
    ("service.queue_high_water", "count");
    ("service.client_overhead_s", "s");
    ("service.response_bytes", "bytes");
    ("service.requests_degraded", "count");
    ("service.requests_rejected", "count");
    ("service.redispatches", "count");
    ("triple.hit_ratio", "frac");
    ("triple.offline_s", "s");
    ("gc.minor_words_per_query", "words");
    ("gc.promoted_words_per_query", "words");
    ("gc.major_collections_per_query", "count");
    ("circuit.build_s", "s");
    ("bench.trace_overhead_frac", "frac");
  ]

let is_name_char c =
  match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Rules.median: no samples";
  let s = Array.copy xs in
  Array.sort compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

type tail = { value : float; percentile : float; samples : int }

(* The highest percentile that still has at least ten samples beyond it:
   the 11th largest sample, which exactly ten samples exceed. Fewer than
   eleven samples support no tail at all. *)
let tail xs =
  let n = Array.length xs in
  if n < 11 then None
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    Some
      {
        value = s.(n - 11);
        percentile = 100.0 *. float_of_int (n - 10) /. float_of_int n;
        samples = n;
      }
  end

(* How one query ended. Anything but [Ok] counts as failed. *)
type outcome =
  | Ok
  | Raised of string  (** the call raised (engine error, transport timeout) *)
  | Rejected of string  (** the daemon refused the request *)
  | Degraded of string  (** the daemon accepted it but could not finish it *)
  | Check_failed of string  (** it returned, but the output check failed *)

let outcome_label = function
  | Ok -> "ok"
  | Raised _ -> "raised"
  | Rejected _ -> "rejected"
  | Degraded _ -> "degraded"
  | Check_failed _ -> "check_failed"

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;  (** newest first, at most 8 *)
}

let tally () = { attempted = 0; failed = 0; first_failures = [] }

let record t o =
  t.attempted <- t.attempted + 1;
  match o with
  | Ok -> ()
  | Raised m | Rejected m | Degraded m | Check_failed m ->
      t.failed <- t.failed + 1;
      if List.length t.first_failures < 8 then
        t.first_failures <- (outcome_label o ^ ": " ^ m) :: t.first_failures

let failed_frac t =
  if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted

let completed_frac t = 1.0 -. failed_frac t

(* A run is correct only if it attempted something and nothing failed. *)
let correct t = t.attempted > 0 && t.failed = 0

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line. [metrics] must name exactly the metrics of [spec]; a
   missing, extra or non-finite metric is a bug in the benchmark and
   raises rather than print a result the driver would misread. *)
let result_line ~spec ~tally metrics =
  let names = List.map fst metrics in
  List.iter
    (fun (n, _) ->
      if not (List.mem n names) then invalid_arg ("Rules.result_line: missing metric " ^ n))
    spec;
  List.iter
    (fun (n, v) ->
      if not (List.mem_assoc n spec) then invalid_arg ("Rules.result_line: unknown metric " ^ n);
      if not (Float.is_finite v) then invalid_arg ("Rules.result_line: non-finite " ^ n))
    metrics;
  let fields =
    List.map
      (fun (n, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
          (json_number (List.assoc n metrics))
          unit)
      spec
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct tally) tally.attempted tally.failed (String.concat ", " fields)

(* What one timed window measured, from which the end-to-end metrics
   follow. [walls] holds the wall time of each completed query. *)
type window = {
  walls : float array;
  elapsed_s : float;  (** first call to last reply *)
  cpu_s : float;  (** user+sys CPU of every process involved, over the window *)
  bytes_per_node : float;  (** mean over completed queries *)
  rounds_per_query : float;  (** mean over completed queries *)
}

(* The end-to-end metrics and one human line on the tail sample. With
   fewer than eleven completed queries there is no tail; the slowest
   query stands in for it and the line says so. *)
let end_to_end_metrics w ~setup_s ~peak_rss_mb ~tally =
  let completed = Array.length w.walls in
  let per_completed v = if completed = 0 then 0.0 else v /. float_of_int completed in
  let p50, tail_value, note =
    if completed = 0 then (0.0, 0.0, "run_s_tail: no completed query")
    else
      match tail w.walls with
      | Some t ->
          ( median w.walls,
            t.value,
            Printf.sprintf "run_s_tail: p%.1f of %d samples (10 beyond it)" t.percentile
              t.samples )
      | None ->
          ( median w.walls,
            Array.fold_left Float.max 0.0 w.walls,
            Printf.sprintf "run_s_tail: only %d samples, so the maximum" completed )
  in
  ( [
      ("run_s_p50", p50);
      ("run_s_tail", tail_value);
      ("throughput_qps", if w.elapsed_s > 0.0 then float_of_int completed /. w.elapsed_s else 0.0);
      ("cpu_s_per_query", per_completed w.cpu_s);
      ("setup_s", setup_s);
      ("peak_rss_mb", peak_rss_mb);
      ("bytes_per_node", w.bytes_per_node);
      ("mpc_rounds_per_query", w.rounds_per_query);
      ("completed_frac", completed_frac tally);
    ],
    note )
