(* Tests of the benchmark's reporting rules: the tail percentile, failure
   accounting, and agreement of the printed metric names with
   BENCHMARK.json. *)

module Json = Dstress_obs.Json

let samples n = Array.init n (fun i -> float_of_int (n - i))

let test_tail_needs_eleven () =
  Alcotest.(check bool) "no tail from 10 samples" true (Rules.tail (samples 10) = None);
  match Rules.tail (samples 11) with
  | None -> Alcotest.fail "11 samples support a tail"
  | Some t ->
      Alcotest.(check (float 0.0)) "smallest of 11" 1.0 t.Rules.value;
      Alcotest.(check int) "sample count" 11 t.Rules.samples

let test_tail_leaves_ten_beyond () =
  List.iter
    (fun n ->
      match Rules.tail (samples n) with
      | None -> Alcotest.fail "tail expected"
      | Some t ->
          let beyond = Array.fold_left (fun c x -> if x > t.Rules.value then c + 1 else c) 0 in
          Alcotest.(check int) (Printf.sprintf "beyond, n = %d" n) 10 (beyond (samples n));
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "percentile, n = %d" n)
            (100.0 *. float_of_int (n - 10) /. float_of_int n)
            t.Rules.percentile)
    [ 11; 20; 100; 1000 ];
  match (Rules.tail (samples 20), Rules.tail (samples 1000)) with
  | Some t20, Some t1000 ->
      Alcotest.(check (float 1e-9)) "20 samples give p50" 50.0 t20.Rules.percentile;
      Alcotest.(check (float 1e-9)) "1000 samples give p99" 99.0 t1000.Rules.percentile;
      Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 t1000.Rules.value
  | _ -> Alcotest.fail "tail expected"

let test_failed_frac () =
  let t = Rules.tally () in
  List.iter (Rules.record t)
    [
      Rules.Ok;
      Rules.Ok;
      Rules.Rejected "queue full";
      Rules.Degraded "respawn budget exhausted";
      Rules.Check_failed "output off by 700";
      Rules.Raised "timeout";
      Rules.Ok;
      Rules.Ok;
    ];
  Alcotest.(check int) "attempted" 8 t.Rules.attempted;
  Alcotest.(check int) "every kind but Ok fails" 4 t.Rules.failed;
  Alcotest.(check (float 1e-12)) "failed_frac" 0.5 (Rules.failed_frac t);
  Alcotest.(check (float 1e-12)) "completed_frac" 0.5 (Rules.completed_frac t);
  Alcotest.(check bool) "not correct" false (Rules.correct t);
  let clean = Rules.tally () in
  Alcotest.(check bool) "nothing attempted is not correct" false (Rules.correct clean);
  Rules.record clean Rules.Ok;
  Alcotest.(check bool) "all passed is correct" true (Rules.correct clean);
  Alcotest.(check (float 0.0)) "completed_frac of a clean run" 1.0 (Rules.completed_frac clean)

let benchmark_metrics key =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Json.parse text with
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  | Ok json -> (
      match Json.member key json with
      | Some (Json.List l) ->
          List.map
            (fun m ->
              match (Json.member "name" m, Json.member "unit" m) with
              | Some (Json.Str n), Some (Json.Str u) -> (n, u)
              | _ -> Alcotest.fail ("malformed metric in " ^ key))
            l
      | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key))

let test_names_match_benchmark () =
  List.iter
    (fun (key, printed) ->
      Alcotest.(check (list (pair string string)))
        (key ^ " names and units") (benchmark_metrics key) printed;
      List.iter
        (fun (n, _) -> Alcotest.(check bool) ("valid name " ^ n) true (Rules.valid_name n))
        printed)
    [ ("end_to_end", Rules.end_to_end); ("per_layer", Rules.per_layer) ]

let test_result_line_checks_metrics () =
  let t = Rules.tally () in
  Rules.record t Rules.Ok;
  let spec = [ ("a", "s"); ("b", "count") ] in
  Alcotest.(check bool) "valid name rejects a space" false (Rules.valid_name "a b");
  Alcotest.(check bool) "valid name rejects a leading dot" false (Rules.valid_name ".a");
  (match Json.parse (Rules.result_line ~spec ~tally:t [ ("a", 0.25); ("b", 3.0) ]) with
  | Ok json ->
      Alcotest.(check bool) "correct" true (Json.member "correct" json = Some (Json.Bool true))
  | Error e -> Alcotest.fail e);
  Alcotest.check_raises "missing metric" (Invalid_argument "Rules.result_line: missing metric b")
    (fun () -> ignore (Rules.result_line ~spec ~tally:t [ ("a", 1.0) ]));
  Alcotest.check_raises "unknown metric" (Invalid_argument "Rules.result_line: unknown metric c")
    (fun () -> ignore (Rules.result_line ~spec ~tally:t [ ("a", 1.0); ("b", 1.0); ("c", 1.0) ]));
  Alcotest.check_raises "non-finite" (Invalid_argument "Rules.result_line: non-finite a")
    (fun () -> ignore (Rules.result_line ~spec ~tally:t [ ("a", Float.nan); ("b", 1.0) ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "tail",
        [
          Alcotest.test_case "needs eleven samples" `Quick test_tail_needs_eleven;
          Alcotest.test_case "leaves ten samples beyond" `Quick test_tail_leaves_ten_beyond;
        ] );
      ("accounting", [ Alcotest.test_case "failed_frac" `Quick test_failed_frac ]);
      ( "metrics",
        [
          Alcotest.test_case "names match BENCHMARK.json" `Quick test_names_match_benchmark;
          Alcotest.test_case "result line" `Quick test_result_line_checks_metrics;
        ] );
    ]
