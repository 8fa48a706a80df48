(* perfbench: the repository benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S seconds from a checkout root, checks every
   query's output, and prints its metrics, last of all as one JSON line.
   With --trace 0 that line holds the end-to-end metrics; with --trace 1
   the per-layer ones, and the spans go to perfbench/out/. The exit code
   is 0 only if every query passed its checks. *)

let out_dir = Filename.concat "perfbench" "out"

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let workloads = [ "en-rounds"; "egj-transfer"; "daemon-small" ]

let write_trace ~workload ~seed recorders =
  let spans = Spans.spans recorders in
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Spans.to_json spans));
  Printf.printf "spans: %d written to %s; self time by span:\n" (List.length spans) path;
  List.iteri
    (fun i r ->
      if i < 20 then
        Printf.printf "  %-28s %6d x  total %9.4f s  self %9.4f s\n" r.Spans.label r.Spans.count
          r.Spans.total_s r.Spans.self_s)
    (Spans.self_times spans)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 and seconds = float_of_int !seconds in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let r =
    match !workload with
    | "en-rounds" -> Batch.run Batch.en_rounds ~seed:!seed ~seconds ~trace
    | "egj-transfer" -> Batch.run Batch.egj_transfer ~seed:!seed ~seconds ~trace
    | _ -> Daemon.run ~out_dir ~seed:!seed ~seconds ~trace
  in
  Printf.printf "perfbench %s, seed %d, %.0f s%s\n" !workload !seed seconds
    (if trace then ", traced" else "");
  List.iter print_endline r.Batch.notes;
  let tally = r.Batch.tally in
  Printf.printf "queries: %d attempted, %d failed (failed_frac %.4f)\n" tally.Rules.attempted
    tally.Rules.failed (Rules.failed_frac tally);
  List.iter (fun m -> Printf.printf "  failure: %s\n" m) (List.rev tally.Rules.first_failures);
  let spec, metrics =
    if trace then (Rules.per_layer, r.Batch.layers) else (Rules.end_to_end, r.Batch.end_to_end)
  in
  List.iter
    (fun (name, unit) ->
      Printf.printf "%-34s %16.6f %s\n" name
        (Option.value (List.assoc_opt name metrics) ~default:Float.nan)
        unit)
    spec;
  if trace then write_trace ~workload:!workload ~seed:!seed r.Batch.recorders;
  print_endline (Rules.result_line ~spec ~tally metrics);
  exit (if Rules.correct tally then 0 else 1)
