(* Layer probes: a fixed-size timed loop per layer on the workload's own
   circuits, group and collusion bound k, with [Gc.minor_words] deltas.
   Each probe runs once untimed first so lazy set-up (OT base sessions,
   plan compilation, group tables) is not counted. *)

open Nets
module Circuit = Dstress_circuit.Circuit
module Gmw = Dstress_mpc.Gmw
module Sharing = Dstress_mpc.Sharing
module Prg = Dstress_crypto.Prg
module Xfer = Dstress_crypto.Xfer
module Exp_elgamal = Dstress_crypto.Exp_elgamal
module Setup = Dstress_transfer.Setup
module Protocol = Dstress_transfer.Protocol

type timing = { seconds : float; minor_words : float }

let timed reps f =
  f ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  { seconds = Unix.gettimeofday () -. t0; minor_words = Gc.minor_words () -. w0 }

let random_shares prg ~parties width =
  Sharing.share prg ~parties (Prg.bits prg width)

type result = {
  sliced_ns_per_and : float;
  sliced_words_per_and : float;
  scalar_ns_per_and : float;
  scalar_words_per_and : float;
  scalar_call_s : float;  (** one scalar evaluation of the aggregation circuit *)
  ns_per_ot : float;
  pow_us : float;
  edge_s : float;
}

(* Sliced GMW: one [eval_many] over [instances] sessions of the update
   circuit, the shape of one computation-step batch. *)
let sliced grp ~k ~instances circuit =
  let parties = k + 1 in
  let prg = Prg.of_string "perfbench:sliced" in
  let sessions =
    Array.init instances (fun i ->
        Gmw.create_session ~mode:Ot_ext.Simulation grp ~parties
          ~seed:(Printf.sprintf "perfbench:sliced:%d" i))
  in
  let input_shares =
    Array.init instances (fun _ -> random_shares prg ~parties circuit.Circuit.num_inputs)
  in
  let reps = 3 in
  let t = timed reps (fun () -> ignore (Gmw.eval_many sessions circuit ~input_shares)) in
  let ands = float_of_int (reps * instances * (Circuit.stats circuit).Circuit.ands) in
  (t.seconds *. 1e9 /. ands, t.minor_words /. ands)

(* Scalar GMW: [Gmw.eval] on the aggregation circuit, as the engine's
   aggregation phase runs it. *)
let scalar grp ~k circuit =
  let parties = k + 1 in
  let prg = Prg.of_string "perfbench:scalar" in
  let session =
    Gmw.create_session ~mode:Ot_ext.Simulation grp ~parties ~seed:"perfbench:scalar"
  in
  let input_shares = random_shares prg ~parties circuit.Circuit.num_inputs in
  let reps = 2 in
  let t = timed reps (fun () -> ignore (Gmw.eval session circuit ~input_shares)) in
  let ands = float_of_int (reps * (Circuit.stats circuit).Circuit.ands) in
  (t.seconds *. 1e9 /. ands, t.minor_words /. ands, t.seconds /. float_of_int reps)

(* Simulation-mode OT extension on full 64-lane words. *)
let ot_ext grp =
  let xfer = Xfer.create () in
  let session =
    Ot_ext.setup ~mode:Ot_ext.Simulation grp xfer
      ~sender_prg:(Prg.of_string "perfbench:ot:s") ~receiver_prg:(Prg.of_string "perfbench:ot:r")
  in
  let prng = Prng.of_int 17 in
  let batch = 1024 in
  let words () = Array.init batch (fun _ -> Prng.next_int64 prng) in
  let pairs = Array.map2 (fun a b -> (a, b)) (words ()) (words ()) in
  let choices = words () in
  let reps = 100 in
  let t =
    timed reps (fun () ->
        ignore (Ot_ext.extend_words session xfer ~width:64 ~pairs ~choices))
  in
  t.seconds *. 1e9 /. float_of_int (reps * batch * 64)

(* One modular exponentiation with a full-size random exponent. *)
let group_pow grp =
  let prg = Prg.of_string "perfbench:pow" in
  let base = Group.pow_g grp (Group.random_exponent prg grp) in
  let exps = Array.init 64 (fun _ -> Group.random_exponent prg grp) in
  let reps = 4 in
  let t = timed reps (fun () -> Array.iter (fun e -> ignore (Group.pow grp base e)) exps) in
  t.seconds *. 1e6 /. float_of_int (reps * Array.length exps)

(* One §3.5 edge transfer (final variant) of a [bits]-wide message
   between two blocks of k+1 members, with the engine's table radius. *)
let transfer grp ~k ~bits =
  let n = k + 3 in
  let setup = Setup.run (Prg.of_string "perfbench:setup") grp ~n ~k ~degree_bound:2 ~bits in
  let radius = (Engine.default_config grp ~k ~degree_bound:2).Engine.table_radius in
  let table = Exp_elgamal.Table.make grp ~lo:(-radius) ~hi:(k + 1 + radius) in
  let params = { Protocol.alpha = 0.5; table } in
  let message = Prg.bits (Prg.of_string "perfbench:msg") bits in
  let shares = Sharing.share (Prg.of_string "perfbench:share") ~parties:(k + 1) message in
  let run = ref 0 in
  let reps = 3 in
  let t =
    timed reps (fun () ->
        incr run;
        let traffic = Traffic.create n in
        let outcome =
          Protocol.transfer params
            ~prg:(Prg.of_string (Printf.sprintf "perfbench:xfer:%d" !run))
            ~noise:(Prng.of_int !run) ~traffic ~variant:Protocol.Final ~setup ~sender:0
            ~receiver:1 ~neighbor_slot:0 ~shares
        in
        if not (Bitvec.equal message (Sharing.reconstruct outcome.Protocol.shares)) then
          failwith "perfbench: probe transfer did not preserve its message")
  in
  t.seconds /. float_of_int reps

let run ?spans grp ~k ~instances (input : input) ~aggregate =
  let span name f = Spans.with_span spans name f in
  let update = Vertex_program.update_circuit input.program ~degree:input.degree in
  let sliced_ns_per_and, sliced_words_per_and =
    span "probe.gmw_sliced" (fun () -> sliced grp ~k ~instances update)
  in
  let scalar_ns_per_and, scalar_words_per_and, scalar_call_s =
    span "probe.gmw_scalar" (fun () -> scalar grp ~k aggregate)
  in
  let ns_per_ot = span "probe.ot_ext" (fun () -> ot_ext grp) in
  let pow_us = span "probe.group_pow" (fun () -> group_pow grp) in
  let edge_s =
    span "probe.transfer" (fun () ->
        transfer grp ~k ~bits:input.program.Vertex_program.message_bits)
  in
  {
    sliced_ns_per_and;
    sliced_words_per_and;
    scalar_ns_per_and;
    scalar_words_per_and;
    scalar_call_s;
    ns_per_ot;
    pow_us;
    edge_s;
  }

(* Probe metrics, plus how much of each engine phase the probes account
   for: the sliced kernel over the computation step's AND gates, one
   scalar aggregation-circuit evaluation, and one edge transfer per
   transfer attempt. What is left of each phase is per-instance
   bookkeeping and glue the probes do not cover. *)
let layers r (input : input) ~n ~samples ~attempts =
  let update = Vertex_program.update_circuit input.program ~degree:input.degree in
  let computation_ands =
    float_of_int
      ((Circuit.stats update).Circuit.ands * n * (input.program.Vertex_program.iterations + 1))
  in
  let mean f = mean_of f samples in
  let share part whole = if whole > 0.0 then part /. whole else 0.0 in
  [
    ("gmw.sliced_ns_per_and", r.sliced_ns_per_and);
    ("gmw.sliced_words_per_and", r.sliced_words_per_and);
    ( "gmw.computation_share",
      share (r.sliced_ns_per_and *. 1e-9 *. computation_ands)
        (mean (fun s -> phase s Engine.Computation)) );
    ("gmw.scalar_ns_per_and", r.scalar_ns_per_and);
    ("gmw.scalar_words_per_and", r.scalar_words_per_and);
    ("gmw.aggregation_share", share r.scalar_call_s (mean (fun s -> phase s Engine.Aggregation)));
    ("ot_ext.ns_per_ot", r.ns_per_ot);
    ("group.pow_us", r.pow_us);
    ("transfer.edge_s", r.edge_s);
    ( "transfer.communication_share",
      share
        (r.edge_s *. attempts)
        (mean (fun s -> phase s Engine.Communication)) );
  ]
