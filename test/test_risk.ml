module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Group = Dstress_crypto.Group
module Graph = Dstress_runtime.Graph
module Engine = Dstress_runtime.Engine
module Vertex_program = Dstress_runtime.Vertex_program
module Plan = Dstress_mpc.Plan
open Dstress_risk

let grp = Group.by_name "toy"

(* Small hand-built EN economy: bank 1 owes both neighbors; a cash shock
   at bank 0 propagates. *)
let en_triangle ~shocked =
  {
    Reference.en_n = 3;
    cash = [| (if shocked then 0.0 else 50.0); 10.0; 30.0 |];
    debts = [ (0, 1, 20.0); (1, 2, 25.0); (2, 0, 5.0) ];
  }

(* ------------------------------------------------------------------ *)
(* Eisenberg–Noe reference                                             *)
(* ------------------------------------------------------------------ *)

let test_en_solvent_network_no_shortfall () =
  let r = Reference.eisenberg_noe (en_triangle ~shocked:false) in
  Alcotest.(check (float 1e-6)) "no shortfall" 0.0 r.Reference.en_tds;
  Array.iter
    (fun p -> Alcotest.(check (float 1e-9)) "full payment" 1.0 p)
    r.Reference.prorate

let test_en_shock_creates_shortfall () =
  let r = Reference.eisenberg_noe (en_triangle ~shocked:true) in
  Alcotest.(check bool) "positive TDS" true (r.Reference.en_tds > 0.0);
  Alcotest.(check bool) "bank 0 prorated" true (r.Reference.prorate.(0) < 1.0)

let test_en_prorate_in_unit_interval () =
  let t = Prng.of_int 0xEE in
  for _ = 1 to 20 do
    let topo = Dstress_graphgen.Topology.erdos_renyi t ~n:12 ~avg_degree:3.0 ~max_degree:6 in
    let inst = Dstress_graphgen.Banking.en_of_topology t topo () in
    let shocked = { inst with Reference.cash = Array.map (fun c -> c *. Prng.float t) inst.Reference.cash } in
    let r = Reference.eisenberg_noe shocked in
    Array.iter
      (fun p -> Alcotest.(check bool) "in [0,1]" true (p >= 0.0 && p <= 1.0))
      r.Reference.prorate
  done

let test_en_tds_monotone_in_shock () =
  (* Draining more cash can only increase the shortfall. *)
  let base = en_triangle ~shocked:false in
  let tds cash0 =
    let inst = { base with Reference.cash = [| cash0; 10.0; 30.0 |] } in
    (Reference.eisenberg_noe inst).Reference.en_tds
  in
  let prev = ref (tds 50.0) in
  List.iter
    (fun c ->
      let v = tds c in
      Alcotest.(check bool) "monotone" true (v >= !prev -. 1e-9);
      prev := v)
    [ 40.0; 30.0; 20.0; 10.0; 0.0 ]

let test_en_converges_within_n () =
  let t = Prng.of_int 0xE3 in
  let topo = Dstress_graphgen.Topology.core_periphery t ~core:6 ~periphery:14 () in
  let inst = Dstress_graphgen.Banking.en_of_topology t topo () in
  let shocked = Dstress_graphgen.Banking.shock_en t inst topo Dstress_graphgen.Banking.Cascade in
  let r = Reference.eisenberg_noe shocked in
  Alcotest.(check bool) "converged within n" true
    (r.Reference.en_rounds_to_converge <= 20)

let test_en_validation () =
  let bad inst = Alcotest.(check bool) "rejected" true
    (try Reference.en_validate inst; false with Invalid_argument _ -> true)
  in
  bad { Reference.en_n = 2; cash = [| 1.0 |]; debts = [] };
  bad { Reference.en_n = 2; cash = [| 1.0; 1.0 |]; debts = [ (0, 0, 1.0) ] };
  bad { Reference.en_n = 2; cash = [| 1.0; 1.0 |]; debts = [ (0, 1, -1.0) ] };
  bad { Reference.en_n = 2; cash = [| 1.0; 1.0 |]; debts = [ (0, 1, 1.0); (0, 1, 2.0) ] }

(* ------------------------------------------------------------------ *)
(* Elliott–Golub–Jackson reference                                     *)
(* ------------------------------------------------------------------ *)

let egj_pair ~shock =
  (* Two banks holding 30% of each other; orig_val solves the *healthy*
     fixpoint v = base + 0.3 v_other (v = 70 / 0.7 = 100 each). The shock
     then wipes most of bank 0's primitive assets without touching the
     original valuations or thresholds. *)
  let v0 = 100.0 and v1 = 100.0 in
  {
    Reference.egj_n = 2;
    base_assets = [| (if shock then 20.0 else 70.0); 70.0 |];
    orig_val = [| v0; v1 |];
    threshold = [| 0.8 *. v0; 0.8 *. v1 |];
    penalty = [| 10.0; 10.0 |];
    holdings = [ (0, 1, 0.3); (1, 0, 0.3) ];
  }

let test_egj_healthy_no_failures () =
  (* Unshocked: valuations sit at orig_val, above the 80% thresholds. *)
  let inst = egj_pair ~shock:false in
  let r = Reference.elliott_golub_jackson inst in
  Alcotest.(check (float 1e-3)) "no TDS" 0.0 r.Reference.egj_tds;
  Alcotest.(check bool) "nobody fails" true (Array.for_all not r.Reference.failed)

let test_egj_shock_propagates () =
  let r = Reference.elliott_golub_jackson (egj_pair ~shock:true) in
  Alcotest.(check bool) "TDS positive" true (r.Reference.egj_tds > 0.0);
  Alcotest.(check bool) "bank 0 failed" true r.Reference.failed.(0)

let test_egj_monotone_convergence () =
  (* Hemenway–Khanna: valuations converge monotonically from above. *)
  let t = Prng.of_int 0xE6 in
  for _ = 1 to 10 do
    let topo = Dstress_graphgen.Topology.core_periphery t ~core:5 ~periphery:10 () in
    let inst = Dstress_graphgen.Banking.egj_of_topology t topo () in
    let shocked =
      Dstress_graphgen.Banking.shock_egj t inst topo Dstress_graphgen.Banking.Cascade
    in
    let r = Reference.elliott_golub_jackson shocked in
    Alcotest.(check bool) "monotone" true r.Reference.monotone
  done

let test_egj_penalty_discontinuity () =
  (* Just below threshold, the penalty makes TDS jump discontinuously. *)
  let tds base0 =
    let inst = egj_pair ~shock:false in
    let inst = { inst with Reference.base_assets = [| base0; 70.0 |] } in
    (Reference.elliott_golub_jackson inst).Reference.egj_tds
  in
  let healthy = tds 70.0 in
  let slightly_hit = tds 40.0 in
  Alcotest.(check (float 1e-6)) "healthy" 0.0 healthy;
  (* The penalty (10.0) makes the shortfall strictly exceed the direct
     asset loss effect near the threshold. *)
  Alcotest.(check bool) "jump includes penalty" true (slightly_hit > 5.0)

(* ------------------------------------------------------------------ *)
(* EN vertex program vs reference                                      *)
(* ------------------------------------------------------------------ *)

let l = 12

(* 1/8-dollar units: quantization error stays well below the model-level
   tolerances while everything still fits in 12-bit words. *)
let scale = 0.125

let en_program_tds ?(iterations = 8) inst =
  let graph = En_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let p = En_program.make ~l ~degree:d ~iterations () in
  let states = En_program.encode_instance inst ~graph ~l ~degree:d ~scale in
  let units = Engine.run_plaintext p ~degree_bound:d ~graph ~initial_states:states in
  En_program.decode_output ~scale units

let test_en_circuit_matches_reference () =
  List.iter
    (fun shocked ->
      let inst = en_triangle ~shocked in
      let expected = (Reference.eisenberg_noe ~iterations:9 inst).Reference.en_tds in
      let got = en_program_tds inst in
      Alcotest.(check bool)
        (Printf.sprintf "TDS close (shock=%b): ref %.2f vs circuit %.2f" shocked expected got)
        true
        (abs_float (got -. expected) <= 3.0))
    [ false; true ]

let test_en_circuit_matches_reference_random () =
  let t = Prng.of_int 0x1234 in
  for trial = 1 to 5 do
    let topo = Dstress_graphgen.Topology.core_periphery t ~core:4 ~periphery:6 () in
    let inst = Dstress_graphgen.Banking.en_of_topology t topo () in
    let inst = Dstress_graphgen.Banking.shock_en t inst topo Dstress_graphgen.Banking.Cascade in
    let expected = (Reference.eisenberg_noe ~iterations:9 inst).Reference.en_tds in
    let got = en_program_tds inst in
    (* Fixed-point truncation loses at most ~1 unit per bank per round. *)
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: ref %.1f vs circuit %.1f" trial expected got)
      true
      (abs_float (got -. expected) <= 0.05 *. Float.max expected 20.0 +. 10.0)
  done

(* ------------------------------------------------------------------ *)
(* EGJ vertex program vs reference                                     *)
(* ------------------------------------------------------------------ *)

let egj_program_tds ?(iterations = 8) ~frac inst =
  let graph = Egj_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let p = Egj_program.make ~l:16 ~frac ~degree:d ~iterations () in
  let states = Egj_program.encode_instance inst ~graph ~l:16 ~frac ~degree:d ~scale:1.0 in
  let units = Engine.run_plaintext p ~degree_bound:d ~graph ~initial_states:states in
  Egj_program.decode_output ~scale:1.0 ~frac units

let test_egj_circuit_matches_reference () =
  List.iter
    (fun shock ->
      let inst = egj_pair ~shock in
      let expected = (Reference.elliott_golub_jackson ~iterations:9 inst).Reference.egj_tds in
      let got = egj_program_tds ~frac:8 inst in
      Alcotest.(check bool)
        (Printf.sprintf "TDS close (shock=%b): ref %.2f vs circuit %.2f" shock expected got)
        true
        (abs_float (got -. expected) <= 8.0))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Full MPC engine on EN (small instance)                              *)
(* ------------------------------------------------------------------ *)

let test_en_full_engine () =
  let inst = en_triangle ~shocked:true in
  let graph = En_program.graph_of_instance inst in
  let d = Graph.max_degree graph in
  (* Huge epsilon: noise is essentially zero, so the MPC output must
     equal the plaintext circuit output exactly. *)
  let p = En_program.make ~epsilon:60.0 ~sensitivity:1 ~noise_max:2 ~l ~degree:d ~iterations:4 () in
  let states = En_program.encode_instance inst ~graph ~l ~degree:d ~scale in
  let expected = Engine.run_plaintext p ~degree_bound:d ~graph ~initial_states:states in
  let cfg = Engine.default_config grp ~k:2 ~degree_bound:d in
  let report = Engine.run cfg p ~graph ~initial_states:states in
  Alcotest.(check int) "MPC = plaintext" expected report.Engine.output;
  Alcotest.(check int) "no failures" 0 report.Engine.transfer_failures

(* ------------------------------------------------------------------ *)
(* Sensitivity                                                         *)
(* ------------------------------------------------------------------ *)

let test_sensitivity_bounds () =
  Alcotest.(check (float 1e-9)) "EN 1/r" 10.0 (Sensitivity.eisenberg_noe ~leverage:0.1);
  Alcotest.(check (float 1e-9)) "EGJ 2/r" 20.0
    (Sensitivity.elliott_golub_jackson ~leverage:0.1);
  Alcotest.(check bool) "bad leverage" true
    (try ignore (Sensitivity.eisenberg_noe ~leverage:0.0); false
     with Invalid_argument _ -> true)

let test_sensitivity_units () =
  (* T = $1B granularity, aggregate in $1B units, s = 20 -> 20 units. *)
  Alcotest.(check int) "units" 20
    (Sensitivity.units ~sensitivity:20.0 ~scale_dollars:1e9 ~granularity_dollars:1e9)

let test_paper_budget () =
  let eps_max, eps_q, runs = Sensitivity.paper_epsilon_budget () in
  Alcotest.(check (float 1e-9)) "ln 2" (log 2.0) eps_max;
  Alcotest.(check bool) "three runs fit" true (float_of_int runs *. eps_q <= eps_max)

(* ------------------------------------------------------------------ *)
(* Circuit digests                                                     *)
(* ------------------------------------------------------------------ *)

(* Golden structural digests ({!Plan.digest}) of the update, aggregate,
   partial and combine circuits over a grid of EN and EGJ parameters: a
   base point per model and one row per single-argument change of it.
   They were recorded before the circuit memo was introduced, so a cached
   circuit is pinned to the gate list a fresh build produced. To
   regenerate after an intentional circuit change, run (from the repo
   root):

     DSTRESS_REGEN_GOLDEN=$PWD/test/golden/circuit_digests.txt \
       dune exec test/test_risk.exe -- test circuit-digests

   and commit the updated file. *)
let circuit_golden_path = "golden/circuit_digests.txt"

type grid_point = {
  label : string;
  make : unit -> Vertex_program.t;
  degree : int;
  count : int;
}

let en_point ?(l = 12) ?(degree = 3) ?(count = 4) ?(epsilon = 1.0) ?(sensitivity = 20)
    ?(noise_max = 600) ?(iterations = 1) () =
  {
    label =
      Printf.sprintf "en l=%d degree=%d count=%d eps=%g s=%d nmax=%d it=%d" l degree count
        epsilon sensitivity noise_max iterations;
    make = (fun () -> En_program.make ~epsilon ~sensitivity ~noise_max ~l ~degree ~iterations ());
    degree;
    count;
  }

let egj_point ?(l = 16) ?(frac = 6) ?(degree = 3) ?(count = 4) ?(epsilon = 1.0)
    ?(sensitivity = 20) ?(noise_max = 600) ?(iterations = 1) () =
  {
    label =
      Printf.sprintf "egj l=%d frac=%d degree=%d count=%d eps=%g s=%d nmax=%d it=%d" l frac
        degree count epsilon sensitivity noise_max iterations;
    make =
      (fun () ->
        Egj_program.make ~epsilon ~sensitivity ~noise_max ~l ~frac ~degree ~iterations ());
    degree;
    count;
  }

let circuit_grid =
  [
    en_point ();
    en_point ~l:8 ();
    en_point ~degree:2 ();
    en_point ~count:5 ();
    en_point ~epsilon:0.23 ();
    en_point ~sensitivity:10 ();
    en_point ~noise_max:100 ();
    egj_point ();
    egj_point ~l:12 ();
    egj_point ~frac:4 ();
    egj_point ~degree:4 ();
    egj_point ~count:3 ();
    egj_point ~epsilon:0.23 ();
    egj_point ~sensitivity:10 ();
    egj_point ~noise_max:100 ();
  ]

(* Every circuit kind of a grid point, named as in the golden file. *)
let point_circuits pt =
  let p = pt.make () in
  [
    ("update", fun () -> Vertex_program.update_circuit p ~degree:pt.degree);
    ("aggregate", fun () -> Vertex_program.aggregate_circuit p ~count:pt.count);
    ("partial", fun () -> Vertex_program.partial_aggregate_circuit p ~count:pt.count);
    ("combine-noised", fun () -> Vertex_program.combine_circuit p ~count:pt.count ~noised:true);
    ("combine-plain", fun () -> Vertex_program.combine_circuit p ~count:pt.count ~noised:false);
  ]

(* Digests of the memoized circuits: each is fetched a second time, which
   must return the first build itself. *)
let circuit_transcript () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun pt ->
      List.iter
        (fun (kind, build) ->
          let first = build () in
          let cached = build () in
          if cached != first then Alcotest.failf "%s %s: second call rebuilt" pt.label kind;
          Printf.bprintf buf "%s %s %s\n" pt.label kind (Plan.digest (Plan.compile cached)))
        (point_circuits pt))
    circuit_grid;
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_circuit_digest_golden () =
  let current = circuit_transcript () in
  match Sys.getenv_opt "DSTRESS_REGEN_GOLDEN" with
  | Some path ->
      let oc = open_out_bin path in
      output_string oc current;
      close_out oc;
      Printf.printf "regenerated %s\n" path
  | None -> Alcotest.(check string) "circuit digests" (read_file circuit_golden_path) current

(* The memo's key is complete: equal [make] arguments share one program
   and its circuits, and a change to any single argument — or to the
   circuit's own degree, count or noising — yields a physically distinct
   circuit. *)
let test_circuit_memo_key () =
  let base_en () = en_point () and base_egj () = egj_point () in
  let circuits pt = List.map (fun (kind, build) -> (kind, build ())) (point_circuits pt) in
  let check_shared label pt =
    let p1 = pt.make () and p2 = pt.make () in
    Alcotest.(check bool) (label ^ ": equal arguments share one program") true (p1 == p2);
    List.iter2
      (fun (kind, a) (_, b) ->
        Alcotest.(check bool) (Printf.sprintf "%s %s: one circuit" label kind) true (a == b))
      (circuits pt) (circuits pt)
  in
  check_shared "en base" (base_en ());
  check_shared "egj base" (base_egj ());
  (* [count] is a circuit argument, not a [make] one: the program and its
     update circuit stay shared. *)
  let check_distinct base variant =
    let count_only = variant.count <> base.count in
    Alcotest.(check bool) (variant.label ^ ": program shared iff count-only") count_only
      (base.make () == variant.make ());
    List.iter2
      (fun (kind, a) (_, b) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: circuit shared iff count-only update" variant.label kind)
          (count_only && kind = "update") (a == b))
      (circuits base) (circuits variant)
  in
  List.iter
    (fun pt ->
      let base = if String.starts_with ~prefix:"egj" pt.label then base_egj () else base_en () in
      if pt.label <> base.label then check_distinct base pt)
    (en_point ~iterations:2 () :: egj_point ~iterations:2 () :: circuit_grid);
  let p = (base_en ()).make () in
  Alcotest.(check bool) "noised and plain combine differ" true
    (Vertex_program.combine_circuit p ~count:4 ~noised:true
    != Vertex_program.combine_circuit p ~count:4 ~noised:false)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_en_tds_nonnegative =
  QCheck2.Test.make ~name:"EN TDS nonnegative" ~count:30
    QCheck2.Gen.(int_bound 10000)
    (fun seed ->
      let t = Prng.of_int seed in
      let topo = Dstress_graphgen.Topology.erdos_renyi t ~n:8 ~avg_degree:2.5 ~max_degree:5 in
      let inst = Dstress_graphgen.Banking.en_of_topology t topo () in
      let r = Reference.eisenberg_noe inst in
      r.Reference.en_tds >= 0.0)

let prop_egj_values_bounded =
  QCheck2.Test.make ~name:"EGJ values within [0, orig]" ~count:30
    QCheck2.Gen.(int_bound 10000)
    (fun seed ->
      let t = Prng.of_int seed in
      let topo = Dstress_graphgen.Topology.erdos_renyi t ~n:8 ~avg_degree:2.5 ~max_degree:5 in
      let inst = Dstress_graphgen.Banking.egj_of_topology t topo () in
      let shocked =
        { inst with
          Reference.base_assets =
            Array.map (fun b -> b *. Prng.float t) inst.Reference.base_assets }
      in
      let r = Reference.elliott_golub_jackson shocked in
      Array.for_all (fun v -> v >= 0.0) r.Reference.value
      && Array.for_all2 (fun v o -> v <= o +. 1e-6) r.Reference.value
           inst.Reference.orig_val)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_en_tds_nonnegative; prop_egj_values_bounded ]
  in
  Alcotest.run "risk"
    [
      ( "en-reference",
        [
          Alcotest.test_case "solvent no shortfall" `Quick test_en_solvent_network_no_shortfall;
          Alcotest.test_case "shock creates shortfall" `Quick test_en_shock_creates_shortfall;
          Alcotest.test_case "prorate in [0,1]" `Quick test_en_prorate_in_unit_interval;
          Alcotest.test_case "TDS monotone in shock" `Quick test_en_tds_monotone_in_shock;
          Alcotest.test_case "converges within n" `Quick test_en_converges_within_n;
          Alcotest.test_case "validation" `Quick test_en_validation;
        ] );
      ( "egj-reference",
        [
          Alcotest.test_case "healthy no failures" `Quick test_egj_healthy_no_failures;
          Alcotest.test_case "shock propagates" `Quick test_egj_shock_propagates;
          Alcotest.test_case "monotone convergence" `Quick test_egj_monotone_convergence;
          Alcotest.test_case "penalty discontinuity" `Quick test_egj_penalty_discontinuity;
        ] );
      ( "circuits",
        [
          Alcotest.test_case "EN circuit vs reference" `Quick test_en_circuit_matches_reference;
          Alcotest.test_case "EN circuit random instances" `Quick
            test_en_circuit_matches_reference_random;
          Alcotest.test_case "EGJ circuit vs reference" `Quick test_egj_circuit_matches_reference;
        ] );
      ( "engine",
        [ Alcotest.test_case "EN under full MPC" `Slow test_en_full_engine ] );
      ( "sensitivity",
        [
          Alcotest.test_case "bounds" `Quick test_sensitivity_bounds;
          Alcotest.test_case "units" `Quick test_sensitivity_units;
          Alcotest.test_case "paper budget" `Quick test_paper_budget;
        ] );
      ( "circuit-digests",
        [
          Alcotest.test_case "golden digests" `Quick test_circuit_digest_golden;
          Alcotest.test_case "memo key" `Quick test_circuit_memo_key;
        ] );
      ("properties", qsuite);
    ]
