(* Sliced-vs-scalar GMW equivalence.

   Gmw.eval_many packs up to 64 protocol instances into int64 wire words;
   its contract is that every per-instance observable — output shares,
   traffic matrix, rounds/AND/OT counters, PRG state — is bit-identical to
   running Gmw.eval per instance. These tests pin that contract on random
   circuits, the paper's EN and EGJ update circuits, the aggregation
   circuit, both OT backends, and through the engine (slice_width 1 vs
   grouped) under both executors; a golden ties the kernel to what the
   retired scalar evaluator produced. *)

open Dstress_mpc
module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Prg = Dstress_crypto.Prg
module Group = Dstress_crypto.Group
module Ot_ext = Dstress_crypto.Ot_ext
module Circuit = Dstress_circuit.Circuit
module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word
module Fault = Dstress_faults.Fault
module En_program = Dstress_risk.En_program
module Egj_program = Dstress_risk.Egj_program
open Dstress_runtime

let grp = Group.by_name "toy"

(* ------------------------------------------------------------------ *)
(* Gmw.eval_many vs per-instance Gmw.eval                              *)
(* ------------------------------------------------------------------ *)

(* Two session arrays built from the same seeds are clones: running the
   scalar path on one and the sliced path on the other compares the two
   evaluators on identical protocol states. *)
let make_sessions ?(mode = Ot_ext.Simulation) ~parties ~count tag =
  Array.init count (fun i ->
      Gmw.create_session ~mode grp ~parties ~seed:(Printf.sprintf "slice:%s:%d" tag i))

let make_inputs ~parties ~count tag (circuit : Circuit.t) =
  let dealer = Prg.of_string ("slice-inputs:" ^ tag) in
  Array.init count (fun _ ->
      Sharing.share dealer ~parties (Prg.bits dealer circuit.Circuit.num_inputs))

let check_equiv ?mode ~parties ~count circuit tag =
  let a = make_sessions ?mode ~parties ~count tag in
  let b = make_sessions ?mode ~parties ~count tag in
  let inputs = make_inputs ~parties ~count tag circuit in
  let scalar = Array.mapi (fun i s -> Gmw.eval s circuit ~input_shares:inputs.(i)) a in
  let sliced = Gmw.eval_many b circuit ~input_shares:inputs in
  Alcotest.(check int) (tag ^ ": result count") count (Array.length sliced);
  for i = 0 to count - 1 do
    for p = 0 to parties - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "%s: instance %d party %d output" tag i p)
        true
        (Bitvec.equal scalar.(i).(p) sliced.(i).(p))
    done;
    Alcotest.(check bool)
      (Printf.sprintf "%s: instance %d traffic" tag i)
      true
      (Traffic.equal (Gmw.traffic a.(i)) (Gmw.traffic b.(i)));
    Alcotest.(check int)
      (Printf.sprintf "%s: instance %d rounds" tag i)
      (Gmw.rounds a.(i)) (Gmw.rounds b.(i));
    Alcotest.(check int)
      (Printf.sprintf "%s: instance %d AND gates" tag i)
      (Gmw.and_gates_evaluated a.(i))
      (Gmw.and_gates_evaluated b.(i));
    Alcotest.(check int)
      (Printf.sprintf "%s: instance %d OTs" tag i)
      (Gmw.ots_performed a.(i)) (Gmw.ots_performed b.(i));
    (* And both must be *correct*: reconstruction matches plaintext. *)
    let cleartext = Sharing.reconstruct inputs.(i) in
    let expected =
      Circuit.eval circuit (Array.of_list (Bitvec.to_bool_list cleartext))
      |> Array.to_list |> Bitvec.of_bool_list
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: instance %d matches plaintext" tag i)
      true
      (Bitvec.equal expected (Sharing.reconstruct sliced.(i)))
  done

let random_circuit prng ~num_inputs ~gates =
  let rev = ref [] in
  let wires = ref 0 in
  let push g =
    rev := g :: !rev;
    incr wires
  in
  for k = 0 to num_inputs - 1 do
    push (Circuit.Input k)
  done;
  for _ = 1 to gates do
    let w () = Prng.int prng !wires in
    match Prng.int prng 10 with
    | 0 -> push (Circuit.Const (Prng.bool prng))
    | 1 | 2 -> push (Circuit.Not (w ()))
    | 3 | 4 | 5 -> push (Circuit.Xor (w (), w ()))
    | _ -> push (Circuit.And (w (), w ()))
  done;
  let n = !wires in
  let outputs = Array.init (min 16 n) (fun i -> n - 1 - i) in
  Circuit.make ~gates:(Array.of_list (List.rev !rev)) ~num_inputs ~outputs

let test_random_circuits () =
  let prng = Prng.of_int 424242 in
  for case = 0 to 4 do
    let c = random_circuit prng ~num_inputs:(4 + Prng.int prng 8) ~gates:(30 + Prng.int prng 40) in
    let count = Prng.pick prng [| 1; 2; 5; 11 |] in
    let parties = 2 + Prng.int prng 3 in
    check_equiv ~parties ~count c (Printf.sprintf "random-%d" case)
  done

let adder_circuit bits =
  let b = Builder.create () in
  let x = Word.inputs b ~bits in
  let y = Word.inputs b ~bits in
  Builder.finish b ~outputs:(Word.add b x y)

let test_full_and_overfull_slices () =
  (* 64 instances fill a word exactly; 70 forces a second chunk. *)
  let c = adder_circuit 4 in
  check_equiv ~parties:2 ~count:64 c "full-word";
  check_equiv ~parties:2 ~count:70 c "chunked"

let test_en_step () =
  let l = 8 and degree = 2 in
  let p = En_program.make ~l ~degree ~iterations:1 () in
  let c = Vertex_program.update_circuit p ~degree in
  check_equiv ~parties:3 ~count:5 c "en-step"

let test_egj_step () =
  let l = 8 and frac = 3 and degree = 2 in
  let p = Egj_program.make ~l ~frac ~degree ~iterations:1 () in
  let c = Vertex_program.update_circuit p ~degree in
  check_equiv ~parties:3 ~count:4 c "egj-step"

let test_aggregation_circuit () =
  let p = En_program.make ~l:8 ~degree:2 ~iterations:1 () in
  let c = Vertex_program.aggregate_circuit p ~count:3 in
  check_equiv ~parties:4 ~count:3 c "aggregation"

let test_crypto_mode () =
  (* The Crypto backend takes the faithful lane-by-lane path through
     extend_bits; equivalence must hold there too. *)
  let c = adder_circuit 4 in
  check_equiv ~mode:Ot_ext.Crypto ~parties:2 ~count:2 c "crypto"

let test_eval_many_rejects_mismatches () =
  let c = adder_circuit 4 in
  let s = make_sessions ~parties:2 ~count:2 "reject" in
  Alcotest.check_raises "share-set count"
    (Invalid_argument "Gmw.eval_many: need one input-share set per session") (fun () ->
      ignore (Gmw.eval_many s c ~input_shares:[||]));
  let mixed =
    [| s.(0); Gmw.create_session ~mode:Ot_ext.Simulation grp ~parties:3 ~seed:"odd" |]
  in
  Alcotest.check_raises "party count"
    (Invalid_argument "Gmw.eval_many: sessions must agree on party count and OT mode")
    (fun () ->
      ignore (Gmw.eval_many mixed c ~input_shares:(make_inputs ~parties:2 ~count:2 "reject" c)))

(* ------------------------------------------------------------------ *)
(* Golden: the one-lane kernel vs the retired bool-array evaluator      *)
(* ------------------------------------------------------------------ *)

(* Gmw.eval is a one-slot eval_many, so the differentials above compare
   the kernel with itself. This golden pins what the retired scalar
   bool-array evaluator produced on the EN aggregation circuit (the
   daemon query shape: l = 12, epsilon 1, sensitivity 20, noise_max 600)
   at k = 2: output shares, the traffic matrix and the rounds/AND/OT
   counters, for Simulation and Crypto OT, inline and with attached
   Triple material, and one evaluation after the material runs out. Each
   session evaluates twice, so the second record also pins the PRG state
   the first evaluation left behind. To regenerate after an intentional
   protocol change, run (from the repo root):

     DSTRESS_REGEN_GOLDEN=$PWD/test/golden/gmw_scalar_aggregation.txt \
       dune exec test/test_slice.exe -- test golden

   and commit the updated file. *)
let golden_path = "golden/gmw_scalar_aggregation.txt"

let golden_circuit () =
  let p = En_program.make ~epsilon:1.0 ~sensitivity:20 ~l:12 ~degree:3 ~iterations:1 () in
  Vertex_program.aggregate_circuit p ~count:5

let bits_string v =
  String.init (Bitvec.length v) (fun i -> if Bitvec.get v i then '1' else '0')

(* One text record per evaluation: outputs per party, the session's
   cumulative traffic matrix (non-zero cells) and counters. *)
let golden_record buf tag e s out =
  Printf.bprintf buf "case %s eval %d\n" tag e;
  Array.iteri (fun p v -> Printf.bprintf buf "out %d %s\n" p (bits_string v)) out;
  Traffic.iter_nonzero (Gmw.traffic s) (fun ~src ~dst v ->
      Printf.bprintf buf "traffic %d %d %d\n" src dst v);
  Printf.bprintf buf "rounds %d ands %d ots %d\n" (Gmw.rounds s) (Gmw.and_gates_evaluated s)
    (Gmw.ots_performed s)

(* [eval] is the evaluator under test. Per OT mode, three sessions:
   inline, material for both evaluations, and material for one (so the
   second evaluation runs after it is exhausted). *)
let golden_transcript eval =
  let circuit = golden_circuit () in
  let parties = 3 in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (mode, mode_tag) ->
      List.iter
        (fun (material, case_tag) ->
          let tag = mode_tag ^ "/" ^ case_tag in
          let seed = "golden:" ^ tag in
          let s = Gmw.create_session ~mode grp ~parties ~seed in
          Option.iter
            (fun evals ->
              Gmw.attach_material s
                (Gmw.generate_material ~mode grp ~parties ~seed ~slice_width:1 ~evals
                   (Plan.of_circuit circuit)))
            material;
          for e = 0 to 1 do
            let shares =
              (make_inputs ~parties ~count:1 (Printf.sprintf "golden:%s:%d" tag e) circuit).(0)
            in
            golden_record buf tag e s (eval s circuit shares)
          done)
        [ (None, "inline"); (Some 2, "material"); (Some 1, "exhausted") ])
    [ (Ot_ext.Simulation, "sim"); (Ot_ext.Crypto, "crypto") ];
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The transcript comes from the kernel itself, a one-slot eval_many;
   the differentials above tie Gmw.eval to it. *)
let test_scalar_golden () =
  let current =
    golden_transcript (fun s c shares ->
        (Gmw.eval_many [| s |] c ~input_shares:[| shares |]).(0))
  in
  match Sys.getenv_opt "DSTRESS_REGEN_GOLDEN" with
  | Some path ->
      let oc = open_out_bin path in
      output_string oc current;
      close_out oc;
      Printf.printf "regenerated %s\n" path
  | None ->
      Alcotest.(check string) "one-slot kernel vs golden" (read_file golden_path) current

(* ------------------------------------------------------------------ *)
(* Plan compilation                                                    *)
(* ------------------------------------------------------------------ *)

let test_plan_partition () =
  let prng = Prng.of_int 7 in
  for case = 0 to 3 do
    let c = random_circuit prng ~num_inputs:6 ~gates:50 in
    let plan = Plan.compile c in
    Alcotest.(check int)
      (Printf.sprintf "case %d: depth" case)
      (Circuit.and_depth c) (Plan.depth plan);
    Alcotest.(check int)
      (Printf.sprintf "case %d: AND count" case)
      (Circuit.and_count c) (Plan.and_count plan);
    Alcotest.(check int)
      (Printf.sprintf "case %d: wires" case)
      (Circuit.num_gates c) (Plan.num_wires plan);
    (* The AND batch of round r holds exactly the AND gates at level r+1,
       in wire order. *)
    let levels = Circuit.and_levels c in
    Array.iteri
      (fun r (lv : Plan.level) ->
        let expected =
          c.Circuit.gates
          |> Array.to_seqi
          |> Seq.filter (fun (i, g) ->
                 match g with Circuit.And _ -> levels.(i) = r + 1 | _ -> false)
          |> Seq.map fst |> Array.of_seq
        in
        Alcotest.(check (array int))
          (Printf.sprintf "case %d round %d: batch" case r)
          expected lv.Plan.and_dst)
      (Plan.levels plan)
  done

let test_plan_memoized () =
  let c = adder_circuit 6 in
  Alcotest.(check bool) "same circuit, same plan" true
    (Plan.of_circuit c == Plan.of_circuit c)

(* The digest keys the on-disk Triple cache, so its value is pinned: a
   fixed circuit touching every gate kind, and the 4-bit adder. *)
let test_plan_digest_pinned () =
  let c =
    Circuit.make ~num_inputs:2 ~outputs:[| 5; 4 |]
      ~gates:Circuit.[| Input 0; Input 1; Const true; Not 0; Xor (1, 3); And (2, 4) |]
  in
  Alcotest.(check string) "every gate kind"
    "18afddcf94c1dffc81e40df7f737bf12403c38f86cb9c0e3cdc220ee468dd51c"
    (Plan.digest (Plan.compile c));
  Alcotest.(check string) "4-bit adder"
    "dc467628251dbacba7702e60373a38d2be0477d9d8c750f3ea4c7aa48d186704"
    (Plan.digest (Plan.compile (adder_circuit 4)))

(* The digest is filled on first use; a plan marshalled before that must
   still marshal (no closure inside) and compute the same digest after. *)
let test_plan_digest_marshal () =
  let plan = Plan.compile (adder_circuit 6) in
  let copy : Plan.t = Marshal.from_string (Marshal.to_string plan []) 0 in
  let expected = Plan.digest plan in
  Alcotest.(check string) "unforced copy" expected (Plan.digest copy);
  let forced : Plan.t = Marshal.from_string (Marshal.to_string plan []) 0 in
  Alcotest.(check string) "forced copy" expected (Plan.digest forced)

(* ------------------------------------------------------------------ *)
(* Engine: slice_width must not be observable in the report            *)
(* ------------------------------------------------------------------ *)

let token_program ~l ~iterations =
  {
    Vertex_program.name = "token";
    state_bits = l;
    message_bits = l;
    iterations;
    sensitivity = 1;
    epsilon = 0.5;
    noise_max_magnitude = 40;
    agg_bits = l + 6;
    build_update =
      (fun b ~state ~incoming ->
        let total =
          Word.truncate (Word.sum b ~bits:(l + 4) (Array.to_list incoming)) ~bits:l
        in
        (total, Array.map (fun _ -> state) incoming));
    build_aggregand = (fun b ~state -> Word.zero_extend b state ~bits:(l + 6));
  }

let ring_graph n = Graph.create ~n ~edges:(List.init n (fun i -> (i, (i + 1) mod n)))

let check_same_report label (a : Engine.report) (b : Engine.report) =
  let phases l = List.map (fun (p, v) -> (Engine.phase_name p, v)) l in
  Alcotest.(check int) (label ^ ": output") a.Engine.output b.Engine.output;
  Alcotest.(check (list (pair string int))) (label ^ ": phase bytes")
    (phases a.Engine.phase_bytes) (phases b.Engine.phase_bytes);
  Alcotest.(check bool) (label ^ ": traffic matrix") true
    (Traffic.equal a.Engine.traffic b.Engine.traffic);
  Alcotest.(check int) (label ^ ": failures") a.Engine.transfer_failures
    b.Engine.transfer_failures;
  Alcotest.(check int) (label ^ ": retries") a.Engine.transfer_retries
    b.Engine.transfer_retries;
  Alcotest.(check int) (label ^ ": crash recoveries") a.Engine.crash_recoveries
    b.Engine.crash_recoveries;
  Alcotest.(check bool) (label ^ ": fault counters") true
    (a.Engine.faults_injected = b.Engine.faults_injected);
  Alcotest.(check (float 0.0)) (label ^ ": retry epsilon") a.Engine.retry_epsilon
    b.Engine.retry_epsilon;
  Alcotest.(check (list (pair string (float 0.0)))) (label ^ ": recovery seconds")
    (phases a.Engine.recovery_seconds)
    (phases b.Engine.recovery_seconds)
  |> ignore;
  Alcotest.(check int) (label ^ ": mpc rounds") a.Engine.mpc_rounds b.Engine.mpc_rounds;
  Alcotest.(check int) (label ^ ": mpc ANDs") a.Engine.mpc_and_gates b.Engine.mpc_and_gates;
  Alcotest.(check int) (label ^ ": mpc OTs") a.Engine.mpc_ots b.Engine.mpc_ots

let test_engine_slice_widths_agree () =
  let n = 9 and l = 8 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations:3 in
  let states =
    let prng = Prng.of_int 17 in
    Array.init n (fun _ -> Bitvec.of_int ~bits:l (1 + Prng.int prng 10))
  in
  (* Crash faults exercise the per-vertex recovery accounting inside
     grouped tasks. *)
  let plan = Fault.random_crashes ~seed:5 ~nodes:n ~rounds:4 ~count:2 in
  let run ~slice_width ~executor =
    let cfg =
      { (Engine.default_config grp ~k:2 ~degree_bound:2 ~seed:"slice-eq") with
        Engine.executor; slice_width; fault_plan = plan }
    in
    Engine.run cfg p ~graph:g ~initial_states:states
  in
  let base = run ~slice_width:1 ~executor:Executor.sequential in
  check_same_report "scalar vs 64 (seq)" base (run ~slice_width:64 ~executor:Executor.sequential);
  check_same_report "scalar vs 7 (seq, uneven groups)" base
    (run ~slice_width:7 ~executor:Executor.sequential);
  check_same_report "scalar vs 64 (par)" base
    (run ~slice_width:64 ~executor:(Executor.parallel ~jobs:4));
  check_same_report "scalar (par) vs scalar (seq)" base
    (run ~slice_width:1 ~executor:(Executor.parallel ~jobs:4))

let test_engine_rejects_bad_slice_width () =
  let bad w =
    let cfg = { (Engine.default_config grp ~k:1 ~degree_bound:2) with Engine.slice_width = w } in
    Alcotest.check_raises
      (Printf.sprintf "slice_width %d" w)
      (Invalid_argument "Engine.run: slice_width must be in [1, 64]")
      (fun () -> Engine.validate_config cfg)
  in
  bad 0;
  bad 65

(* ------------------------------------------------------------------ *)
(* Allocation gate                                                     *)
(* ------------------------------------------------------------------ *)

(* The mask path allocates nothing per gate: wire words live unboxed in
   Bytes, masks are drawn into per-evaluation scratch and SHA-256 runs on
   native ints. [Gc.minor_words] deltas are exact, so the gate does not
   depend on timing. A warm-up call first sets up the lazy OT sessions
   and the plan memo; the bound leaves room for the per-evaluation
   arrays (input packing, outputs), not for anything per gate — the
   boxed-Int32 hash and boxed wire arrays cost ~430 words per AND. *)
let words_per_and ~sessions circuit ~input_shares =
  let run () = ignore (Gmw.eval_many sessions circuit ~input_shares) in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  words /. float_of_int (Array.length sessions * Circuit.and_count circuit)

let test_alloc_one_lane () =
  let c = golden_circuit () in
  let sessions = make_sessions ~parties:3 ~count:1 "alloc-1" in
  let per_and =
    words_per_and ~sessions c ~input_shares:(make_inputs ~parties:3 ~count:1 "alloc-1" c)
  in
  Printf.printf "one lane: %.2f words per AND over %d ANDs\n" per_and (Circuit.and_count c);
  Alcotest.(check bool) (Printf.sprintf "%.2f <= 8 words per AND" per_and) true (per_and <= 8.)

let test_alloc_64_lanes () =
  let c = golden_circuit () in
  let sessions = make_sessions ~parties:3 ~count:64 "alloc-64" in
  let per_and =
    words_per_and ~sessions c ~input_shares:(make_inputs ~parties:3 ~count:64 "alloc-64" c)
  in
  Printf.printf "64 lanes: %.2f words per AND per instance\n" per_and;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f <= 8 words per AND per instance" per_and)
    true (per_and <= 8.)

let () =
  Alcotest.run "slice"
    [
      ( "gmw-equivalence",
        [
          Alcotest.test_case "random circuits" `Quick test_random_circuits;
          Alcotest.test_case "full + chunked slices" `Quick test_full_and_overfull_slices;
          Alcotest.test_case "EN update step" `Quick test_en_step;
          Alcotest.test_case "EGJ update step" `Quick test_egj_step;
          Alcotest.test_case "aggregation circuit" `Quick test_aggregation_circuit;
          Alcotest.test_case "crypto OT backend" `Quick test_crypto_mode;
          Alcotest.test_case "rejects mismatches" `Quick test_eval_many_rejects_mismatches;
        ] );
      ("golden", [ Alcotest.test_case "scalar aggregation golden" `Quick test_scalar_golden ]);
      ( "allocation",
        [
          Alcotest.test_case "one lane words per AND" `Quick test_alloc_one_lane;
          Alcotest.test_case "64 lanes words per AND" `Quick test_alloc_64_lanes;
        ] );
      ( "plan",
        [
          Alcotest.test_case "level partition" `Quick test_plan_partition;
          Alcotest.test_case "memoized per circuit" `Quick test_plan_memoized;
          Alcotest.test_case "digest pinned" `Quick test_plan_digest_pinned;
          Alcotest.test_case "digest survives Marshal" `Quick test_plan_digest_marshal;
        ] );
      ( "engine",
        [
          Alcotest.test_case "slice widths agree" `Quick test_engine_slice_widths_agree;
          Alcotest.test_case "rejects bad slice width" `Quick
            test_engine_rejects_bad_slice_width;
        ] );
    ]
