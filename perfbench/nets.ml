(* Seeded clearing networks and one timed, checked engine query over them.

   The fixed-point encodings and program parameters are the ones the
   [dstress] CLI and daemon use (l = 12 at scale 0.25 for EN; l = 16,
   frac 6 at scale 4 for EGJ; epsilon 1, sensitivity 20, a cascade shock),
   so an in-process query rebuilds exactly the computation a daemon
   request names. *)

module Prng = Dstress_util.Prng
module Bitvec = Dstress_util.Bitvec
module Group = Dstress_crypto.Group
module Ot_ext = Dstress_crypto.Ot_ext
module Graph = Dstress_runtime.Graph
module Engine = Dstress_runtime.Engine
module Executor = Dstress_runtime.Executor
module Vertex_program = Dstress_runtime.Vertex_program
module Topology = Dstress_graphgen.Topology
module Banking = Dstress_graphgen.Banking
module En_program = Dstress_risk.En_program
module Egj_program = Dstress_risk.Egj_program
module Obs = Dstress_obs.Obs
module Metrics = Dstress_obs.Obs.Metrics
module Traffic = Dstress_mpc.Traffic

type model = En | Egj

type input = {
  program : Vertex_program.t;
  graph : Graph.t;
  states : Bitvec.t array;
  degree : int;  (** the public degree bound D *)
}

let topology ~seed ~core ~periphery =
  let prng = Prng.of_int seed in
  (prng, Topology.core_periphery prng ~core ~periphery ())

(* [degree] defaults to the network's own maximum degree, as the daemon
   chooses it. *)
let build model ~seed ~core ~periphery ~iterations ?degree () =
  let prng, topo = topology ~seed ~core ~periphery in
  match model with
  | En ->
      let inst = Banking.en_of_topology prng topo () in
      let inst = Banking.shock_en prng inst topo Banking.Cascade in
      let graph = En_program.graph_of_instance inst in
      let degree = Option.value degree ~default:(Graph.max_degree graph) in
      let program = En_program.make ~epsilon:1.0 ~sensitivity:20 ~l:12 ~degree ~iterations () in
      let states = En_program.encode_instance inst ~graph ~l:12 ~degree ~scale:0.25 in
      { program; graph; states; degree }
  | Egj ->
      let inst = Banking.egj_of_topology prng topo () in
      let inst = Banking.shock_egj prng inst topo Banking.Cascade in
      let graph = Egj_program.graph_of_instance inst in
      let degree = Option.value degree ~default:(Graph.max_degree graph) in
      let program =
        Egj_program.make ~epsilon:1.0 ~sensitivity:20 ~l:16 ~frac:6 ~degree ~iterations ()
      in
      let states = Egj_program.encode_instance inst ~graph ~l:16 ~frac:6 ~degree ~scale:4.0 in
      { program; graph; states; degree }

let config grp ~k ~degree ~seed ~executor ~obs_level ~preprocess =
  {
    (Engine.default_config grp ~k ~degree_bound:degree ~seed) with
    Engine.executor;
    ot_mode = Ot_ext.Simulation;
    slice_width = 64;
    preprocess;
    triple_cache = None;
    obs_level;
  }

let plaintext input =
  Engine.run_plaintext input.program ~degree_bound:input.degree ~graph:input.graph
    ~initial_states:input.states

(* What the benchmark keeps of one query's report. *)
type sample = {
  wall : float;
  output : int;
  rounds : int;
  ands : int;
  ots : int;
  phase_s : (Engine.phase * float) list;
  phase_bytes : (Engine.phase * int) list;
  mean_node_bytes : float;
  transfer_attempts : int;  (** from the Obs registry; 0 when obs is off *)
  transfer_retries : int;
  transfer_failures : int;
  transport : Metrics.t option;
  offline : Metrics.t option;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let counter m name = match m with None -> 0 | Some m -> Metrics.counter m name

let sum m name = match m with None -> 0.0 | Some m -> Metrics.sum m name

(* Run one engine query and time it from the call to the noised output
   in hand. At [Obs.Full] the engine's own spans are grafted under the
   benchmark's [engine.run] span. *)
let run_query ?spans cfg input =
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let report =
    Spans.with_span spans "engine.run" (fun () ->
        let r = Engine.run cfg input.program ~graph:input.graph ~initial_states:input.states in
        Option.iter (fun t -> Spans.graft t (Obs.spans r.Engine.obs)) spans;
        r)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  {
    wall;
    output = report.Engine.output;
    rounds = report.Engine.mpc_rounds;
    ands = report.Engine.mpc_and_gates;
    ots = report.Engine.mpc_ots;
    phase_s = report.Engine.phase_seconds;
    phase_bytes = report.Engine.phase_bytes;
    mean_node_bytes = Traffic.mean_per_node report.Engine.traffic;
    transfer_attempts = Metrics.counter (Obs.metrics report.Engine.obs) "transfer.attempts";
    transfer_retries = report.Engine.transfer_retries;
    transfer_failures = report.Engine.transfer_failures;
    transport = report.Engine.transport_metrics;
    offline = report.Engine.offline_metrics;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* The counts a repeat of the same seeded config must reproduce exactly. *)
type fingerprint = { f_output : int; f_rounds : int; f_ands : int; f_ots : int }

let fingerprint s = { f_output = s.output; f_rounds = s.rounds; f_ands = s.ands; f_ots = s.ots }

let pp_fingerprint f =
  Printf.sprintf "output %d, %d rounds, %d ANDs, %d OTs" f.f_output f.f_rounds f.f_ands f.f_ots

(* The correctness gate: the noised output lies within the program's
   noise truncation bound of the cleartext result, and a config seen
   before reproduces its output and protocol counts bit for bit. *)
let check ~(program : Vertex_program.t) ~plain ~seen key fp =
  let dev = abs (fp.f_output - plain) in
  if dev > program.Vertex_program.noise_max_magnitude then
    Rules.Check_failed
      (Printf.sprintf "%s: output %d is %d from cleartext %d (bound %d)" key fp.f_output dev
         plain program.Vertex_program.noise_max_magnitude)
  else
    match Hashtbl.find_opt seen key with
    | None ->
        Hashtbl.replace seen key fp;
        Rules.Ok
    | Some first when first = fp -> Rules.Ok
    | Some first ->
        Rules.Check_failed
          (Printf.sprintf "%s: repeat gave %s, first run gave %s" key (pp_fingerprint fp)
             (pp_fingerprint first))

let phase s p = Option.value (List.assoc_opt p s.phase_s) ~default:0.0
let phase_bytes s p = float_of_int (Option.value (List.assoc_opt p s.phase_bytes) ~default:0)

let mean_of f samples = Rules.mean (Array.map f samples)

(* Engine-level per-layer metrics averaged over [samples]. Means, not
   medians, so the phases and [engine.other_s] add up to the query wall. *)
let engine_layers samples =
  let phases = Engine.[ Setup; Initialization; Computation; Communication; Aggregation ] in
  let wall = mean_of (fun s -> s.wall) samples in
  let phase_mean p = mean_of (fun s -> phase s p) samples in
  let sum_phases = List.fold_left (fun acc p -> acc +. phase_mean p) 0.0 phases in
  let per_query name f = (name, mean_of f samples) in
  [
    ("engine.query_wall_s", wall);
    ("engine.setup_s", phase_mean Engine.Setup);
    ("engine.initialization_s", phase_mean Engine.Initialization);
    ("engine.computation_s", phase_mean Engine.Computation);
    ("engine.communication_s", phase_mean Engine.Communication);
    ("engine.aggregation_s", phase_mean Engine.Aggregation);
    ("engine.other_s", wall -. sum_phases);
    per_query "engine.computation_bytes" (fun s -> phase_bytes s Engine.Computation);
    per_query "engine.communication_bytes" (fun s -> phase_bytes s Engine.Communication);
    per_query "engine.aggregation_bytes" (fun s -> phase_bytes s Engine.Aggregation);
    per_query "mpc.and_gates" (fun s -> float_of_int s.ands);
    per_query "mpc.ots" (fun s -> float_of_int s.ots);
    per_query "mpc.rounds" (fun s -> float_of_int s.rounds);
    per_query "transfer.retries" (fun s -> float_of_int s.transfer_retries);
    per_query "transfer.failures" (fun s -> float_of_int s.transfer_failures);
    per_query "gc.minor_words_per_query" (fun s -> s.minor_words);
    per_query "gc.promoted_words_per_query" (fun s -> s.promoted_words);
    per_query "gc.major_collections_per_query" (fun s -> float_of_int s.major_collections);
  ]
