(* The pool's frame payload decoders and its worker loop.

   Layers under test:

   - fuzzing: the task and reply payload decoders are the only code that
     reads bytes another process wrote. Random bytes, and single-byte
     mutations and truncations of valid payloads, must decode to a value
     or [None] — never raise;
   - a live worker: a malformed task frame draws an error frame with
     reqid -1, and the worker goes on to serve the next valid task. *)

open Dstress_runtime

let never_raises decode b =
  match decode b with _ -> true | exception _ -> false

let gen_task =
  QCheck2.Gen.(
    map
      (fun (reqid, stall, mute, disconnect, body) ->
        { Pool.reqid; stall; mute; disconnect; body = Bytes.of_string body })
      (tup5 int float float bool string))

let gen_reply =
  QCheck2.Gen.(
    map (fun (reqid, body) -> Pool.encode_reply ~reqid (Bytes.of_string body)) (pair int string))

(* A valid payload with one byte replaced, or cut at some length. *)
let damaged gen_payload =
  QCheck2.Gen.(
    gen_payload >>= fun p ->
    let n = Bytes.length p in
    oneof
      [
        map
          (fun (i, c) ->
            let q = Bytes.copy p in
            if n > 0 then Bytes.set q (i mod n) c;
            q)
          (pair nat char);
        map (fun k -> Bytes.sub p 0 (k mod (n + 1))) nat;
      ])

let prop_random_bytes =
  QCheck2.Test.make ~name:"random bytes never raise" ~count:2000
    QCheck2.Gen.(map Bytes.of_string string)
    (fun b -> never_raises Pool.decode_task b && never_raises Pool.decode_reply b)

let prop_task_roundtrip =
  QCheck2.Test.make ~name:"task round-trip" ~count:500 gen_task (fun t ->
      match Pool.decode_task (Pool.encode_task t) with
      | Some u ->
          u.Pool.reqid = t.Pool.reqid
          && Int64.bits_of_float u.Pool.stall = Int64.bits_of_float t.Pool.stall
          && Int64.bits_of_float u.Pool.mute = Int64.bits_of_float t.Pool.mute
          && u.Pool.disconnect = t.Pool.disconnect
          && Bytes.equal u.Pool.body t.Pool.body
      | None -> false)

let prop_damaged_task =
  QCheck2.Test.make ~name:"damaged task never raises" ~count:2000
    (damaged (QCheck2.Gen.map Pool.encode_task gen_task))
    (never_raises Pool.decode_task)

let prop_damaged_reply =
  QCheck2.Test.make ~name:"damaged reply never raises" ~count:2000 (damaged gen_reply)
    (never_raises Pool.decode_reply)

let task reqid body =
  { Pool.reqid; stall = 0.0; mute = 0.0; disconnect = false; body = Bytes.of_string body }

let test_truncated_task_rejected () =
  let p = Pool.encode_task (task 3 "abc") in
  for k = 0 to Bytes.length p - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "cut at %d" k)
      true
      (Pool.decode_task (Bytes.sub p 0 k) = None)
  done;
  Alcotest.(check bool) "trailing byte" true
    (Pool.decode_task (Bytes.cat p (Bytes.make 1 'x')) = None)

(* ------------------------------------------------------------------ *)
(* A live worker                                                       *)
(* ------------------------------------------------------------------ *)

let rec await_reply conn ~kind =
  match Transport.recv conn ~timeout:10.0 with
  | Some fr when fr.Transport.kind = kind -> fr
  | Some _ -> await_reply conn ~kind
  | None -> Alcotest.fail "worker sent no reply"

let test_malformed_task_frame () =
  let coordinator, worker = Transport.pair () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Transport.close coordinator;
      Pool.run_worker worker ~heartbeat_interval:0.05 (fun body ->
          Bytes.cat (Bytes.of_string "echo:") body)
  | pid ->
      Transport.close worker;
      ignore
        (Transport.send coordinator ~kind:Transport.Kind.task ~epoch:4
           (Bytes.of_string "not a task"));
      let fr = await_reply coordinator ~kind:Transport.Kind.error in
      Alcotest.(check int) "error keeps the frame's epoch" 4 fr.Transport.epoch;
      (match Pool.decode_reply fr.Transport.payload with
      | Some (reqid, msg) ->
          Alcotest.(check int) "reqid -1" (-1) reqid;
          Alcotest.(check string) "message" "malformed task frame" (Bytes.to_string msg)
      | None -> Alcotest.fail "undecodable error frame");
      ignore
        (Transport.send coordinator ~kind:Transport.Kind.task ~epoch:5
           (Pool.encode_task (task 9 "hi")));
      let fr = await_reply coordinator ~kind:Transport.Kind.result in
      (match Pool.decode_reply fr.Transport.payload with
      | Some (reqid, body) ->
          Alcotest.(check int) "reqid" 9 reqid;
          Alcotest.(check string) "served after the bad frame" "echo:hi" (Bytes.to_string body)
      | None -> Alcotest.fail "undecodable result frame");
      ignore (Transport.send coordinator ~kind:Transport.Kind.shutdown ~epoch:5 Bytes.empty);
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "worker exited cleanly" true (status = Unix.WEXITED 0);
      Transport.close coordinator

let () =
  Alcotest.run "pool"
    [
      ( "frame fuzz",
        Alcotest.test_case "truncated task rejected" `Quick test_truncated_task_rejected
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_random_bytes; prop_task_roundtrip; prop_damaged_task; prop_damaged_reply ]
      );
      ("worker", [ Alcotest.test_case "malformed task frame" `Quick test_malformed_task_frame ]);
    ]
