type ('k, 'v) t = {
  limit : int;
  equal : 'k -> 'k -> bool;
  mutable entries : ('k * 'v) list; (* most recently used first *)
  mutex : Mutex.t;
}

let create ~limit ~equal =
  if limit < 1 then invalid_arg "Memo.create: limit must be >= 1";
  { limit; equal; entries = []; mutex = Mutex.create () }

let rec take n = function [] -> [] | _ when n <= 0 -> [] | x :: rest -> x :: take (n - 1) rest

(* Under the mutex: the value stored under [key], moved to the front. *)
let lookup t key =
  match t.entries with
  | (k, v) :: _ when t.equal k key -> Some v
  | entries -> (
      match List.find_opt (fun (k, _) -> t.equal k key) entries with
      | None -> None
      | Some ((_, v) as hit) ->
          t.entries <- hit :: List.filter (fun e -> e != hit) entries;
          Some v)

let find_or_add t key build =
  match Mutex.protect t.mutex (fun () -> lookup t key) with
  | Some v -> v
  | None ->
      let v = build () in
      Mutex.protect t.mutex (fun () ->
          match lookup t key with
          | Some first -> first
          | None ->
              t.entries <- take t.limit ((key, v) :: t.entries);
              v)
