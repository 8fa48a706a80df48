(* The single-process workloads: one closed-loop caller runs private
   stress tests back to back with [Engine.run], cycling over a few seeded
   networks. *)

open Nets

type exec = Sequential | Distributed of int

type spec = {
  model : model;
  core : int;
  periphery : int;
  iterations : int;
  k : int;
  links : int;
      (** links in every network: seeds vary who is linked to whom and
          the balances, not the amount of transfer work *)
  degree : int;
      (** public degree bound D, the same for every network, so each
          network of a workload runs the same circuits *)
  group : string;
  exec : exec;
  networks : int;
}

(* EN on 20 banks, 5 rounds, 64-bit group, sequential: the sliced GMW
   kernel and per-round engine glue, with no 256-bit work, no worker pool
   and no daemon. *)
let en_rounds =
  {
    model = En;
    core = 5;
    periphery = 15;
    iterations = 5;
    k = 2;
    links = 31;
    degree = 10;
    group = "toy";
    exec = Sequential;
    networks = 4;
  }

(* EGJ on 10 banks, 3 rounds, 256-bit group, two forked workers: the §3.5
   ElGamal transfer and setup certificates over 256-bit [Nat], plus the
   fork-per-batch pool and transport framing. *)
let egj_transfer =
  {
    model = Egj;
    core = 3;
    periphery = 7;
    iterations = 3;
    k = 2;
    links = 13;
    degree = 6;
    group = "standard";
    exec = Distributed 2;
    networks = 3;
  }

type net = { seed : int; input : input }

(* Draw network seeds from the workload seed, keeping core-periphery
   networks (the generator's defaults, as [dstress stress] uses them) with
   the workload's link count, whose degree fits the public bound D and
   whose balances fit the fixed-point width. *)
let networks spec ~seed =
  let prng = Prng.of_int seed in
  let rec draw acc =
    if List.length acc = spec.networks then Array.of_list (List.rev acc)
    else
      let seed = Prng.int prng 1_000_000_000 in
      let _, topo = topology ~seed ~core:spec.core ~periphery:spec.periphery in
      if List.length topo.Topology.links <> spec.links || Topology.max_degree topo > spec.degree
      then draw acc
      else
        match
          build spec.model ~seed ~core:spec.core ~periphery:spec.periphery
            ~iterations:spec.iterations ~degree:spec.degree ()
        with
        | input -> draw ({ seed; input } :: acc)
        | exception Invalid_argument _ -> draw acc
  in
  draw []

type ctx = {
  spec : spec;
  grp : Group.t;
  nets : net array;
  executor : Executor.t;
  aggregate : Dstress_circuit.Circuit.t;
  circuit_build_s : float;
}

let cfg ctx ?(executor = ctx.executor) ~obs_level net =
  config ctx.grp ~k:ctx.spec.k ~degree:ctx.spec.degree ~seed:(string_of_int net.seed) ~executor
    ~obs_level ~preprocess:false

(* One complete set-up: group precomputation, network generation, circuit
   build, the executor, and a warm-up query on the first network. *)
let setup_once spec ~seed ~spans =
  let span name f = Spans.with_span spans name f in
  let t0 = Unix.gettimeofday () in
  let grp =
    span "setup.group" (fun () ->
        let named = Group.by_name spec.group in
        Group.make ~p:(Group.p named) ~q:(Group.q named) ~g:(Group.g named))
  in
  let nets = span "setup.networks" (fun () -> networks spec ~seed) in
  let n = Graph.n nets.(0).input.graph in
  let c0 = Unix.gettimeofday () in
  let aggregate =
    span "setup.circuits" (fun () ->
        let program = nets.(0).input.program in
        ignore (Vertex_program.update_circuit program ~degree:spec.degree);
        Vertex_program.aggregate_circuit program ~count:n)
  in
  let circuit_build_s = Unix.gettimeofday () -. c0 in
  let executor =
    match spec.exec with
    | Sequential -> Executor.sequential
    | Distributed workers -> Executor.distributed ~workers ()
  in
  let ctx = { spec; grp; nets; executor; aggregate; circuit_build_s } in
  let warm =
    span "setup.warmup" (fun () ->
        match run_query ?spans (cfg ctx ~obs_level:Obs.Off nets.(0)) nets.(0).input with
        | s -> Result.Ok s
        | exception e -> Result.Error (Printexc.to_string e))
  in
  (Unix.gettimeofday () -. t0, ctx, warm)

type checker = { plains : int array; seen : (string, fingerprint) Hashtbl.t; tally : Rules.tally }

let check_sample chk ctx j s =
  Rules.record chk.tally
    (check ~program:ctx.nets.(j).input.program ~plain:chk.plains.(j) ~seen:chk.seen
       (Printf.sprintf "network %d" ctx.nets.(j).seed)
       (fingerprint s))

let query chk ctx ?spans ?executor ~obs_level j =
  match run_query ?spans (cfg ctx ?executor ~obs_level ctx.nets.(j)) ctx.nets.(j).input with
  | s ->
      check_sample chk ctx j s;
      Some s
  | exception e ->
      Rules.record chk.tally (Rules.Raised (Printexc.to_string e));
      None

(* A closed loop for [seconds]: query the networks in turn, each call
   issued when the previous one returned. *)
let window chk ctx ~spans ~obs_level ~seconds ~first =
  let t0 = Unix.gettimeofday () in
  let cpu0 = Proc.self_and_reaped_cpu_s () in
  let deadline = t0 +. seconds in
  let samples = ref [] and i = ref first in
  while Unix.gettimeofday () < deadline do
    let j = !i mod Array.length ctx.nets in
    Option.iter (fun t -> Spans.set_query t !i) spans;
    (match Spans.with_span spans "query" (fun () -> query chk ctx ?spans ~obs_level j) with
    | Some s -> samples := s :: !samples
    | None -> ());
    incr i
  done;
  let samples = Array.of_list (List.rev !samples) in
  let w =
    {
      Rules.walls = Array.map (fun s -> s.wall) samples;
      elapsed_s = Unix.gettimeofday () -. t0;
      cpu_s = Proc.self_and_reaped_cpu_s () -. cpu0;
      bytes_per_node = mean_of (fun s -> s.mean_node_bytes) samples;
      rounds_per_query = mean_of (fun s -> float_of_int s.rounds) samples;
    }
  in
  (w, samples, !i)

let setup_reps = 3

type result = {
  end_to_end : (string * float) list;
  layers : (string * float) list;
  notes : string list;
  tally : Rules.tally;
  recorders : Spans.t list;
}

let transport_layers samples =
  let per_query name = (name, mean_of (fun s -> float_of_int (counter s.transport name)) samples) in
  let total name =
    ( name,
      Array.fold_left (fun acc s -> acc +. float_of_int (counter s.transport name)) 0.0 samples )
  in
  [
    per_query "pool.batches";
    per_query "pool.tasks_dispatched";
    per_query "transport.frames_sent";
    per_query "transport.bytes_sent";
    total "pool.respawns";
    total "pool.suspicions";
    total "transport.retransmits";
    total "transport.reconnects";
  ]

(* Metrics of layers this workload does not reach. *)
let absent =
  List.map
    (fun n -> (n, 0.0))
    [
      "service.queue_wait_s_p50";
      "service.dispatch_s_p50";
      "service.request_s_p50";
      "service.queue_high_water";
      "service.client_overhead_s";
      "service.response_bytes";
      "service.requests_degraded";
      "service.requests_rejected";
      "service.redispatches";
      "triple.hit_ratio";
      "triple.offline_s";
    ]

let run spec ~seed ~seconds ~trace =
  let tally = Rules.tally () in
  let spans = if trace then Some (Spans.create ()) else None in
  let reps = if trace then 1 else setup_reps in
  let setups = List.init reps (fun _ -> setup_once spec ~seed ~spans) in
  let setup_s = Rules.median (Array.of_list (List.map (fun (s, _, _) -> s) setups)) in
  let _, ctx, _ = List.nth setups (reps - 1) in
  (* Cleartext references, once per network and outside any timed span. *)
  let chk =
    { plains = Array.map (fun n -> plaintext n.input) ctx.nets; seen = Hashtbl.create 8; tally }
  in
  List.iter
    (fun (_, c, w) ->
      match w with
      | Result.Ok s -> check_sample chk c 0 s
      | Result.Error m -> Rules.record tally (Rules.Raised ("warm-up: " ^ m)))
    setups;
  let n = Graph.n ctx.nets.(0).input.graph in
  let untraced_s = if trace then seconds /. 2.0 else seconds in
  let w, samples, next =
    window chk ctx ~spans:None ~obs_level:Obs.Off ~seconds:untraced_s ~first:1
  in
  let end_to_end, note =
    Rules.end_to_end_metrics w ~setup_s ~peak_rss_mb:(Proc.self_peak_rss_mb ()) ~tally
  in
  let notes =
    [
      Printf.sprintf "networks: %s (%d banks, D = %d)"
        (String.concat ", " (Array.to_list (Array.map (fun n -> string_of_int n.seed) ctx.nets)))
        n spec.degree;
      note;
    ]
  in
  if not trace then { end_to_end; layers = []; notes; tally; recorders = [] }
  else begin
    let tw, traced, _ =
      window chk ctx ~spans ~obs_level:Obs.Full ~seconds:(seconds /. 2.0) ~first:next
    in
    Option.iter (fun t -> Spans.set_query t (-1)) spans;
    let probes =
      Probes.run ?spans ctx.grp ~k:spec.k ~instances:(min n 64) ctx.nets.(0).input
        ~aggregate:ctx.aggregate
    in
    (* The executor's gain: the same networks once each on the calling
       process, checked against the pooled runs bit for bit. *)
    let speedup =
      match spec.exec with
      | Sequential -> 0.0
      | Distributed _ ->
          let seq =
            Spans.with_span spans "executor.sequential" (fun () ->
                Array.to_list
                  (Array.mapi
                     (fun j _ ->
                       query chk ctx ?spans ~executor:Executor.sequential ~obs_level:Obs.Off j)
                     ctx.nets))
            |> List.filter_map Fun.id
          in
          let pooled = mean_of (fun s -> s.wall) samples in
          if pooled > 0.0 then Rules.mean (Array.of_list (List.map (fun s -> s.wall) seq)) /. pooled
          else 0.0
    in
    (* Only the traced queries count transfer attempts (an Obs counter). *)
    let attempts = mean_of (fun s -> float_of_int s.transfer_attempts) traced in
    let traced_p50 = if tw.Rules.walls = [||] then 0.0 else Rules.median tw.Rules.walls in
    let untraced_p50 = List.assoc "run_s_p50" end_to_end in
    let layers =
      engine_layers samples
      @ (("transfer.attempts", attempts)
        :: Probes.layers probes ctx.nets.(0).input ~n ~samples ~attempts)
      @ transport_layers samples
      @ absent
      @ [
          ("executor.speedup_vs_sequential", speedup);
          ("circuit.build_s", ctx.circuit_build_s);
          ( "bench.trace_overhead_frac",
            if untraced_p50 > 0.0 then (traced_p50 /. untraced_p50) -. 1.0 else 0.0 );
        ]
    in
    { end_to_end; layers; notes; tally; recorders = Option.to_list spans }
  end
