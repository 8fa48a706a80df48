(* In-memory wall-clock spans recorded by the benchmark around each call
   into a layer. Each recorder belongs to one thread, so recording takes
   no lock; recorders are merged when the run ends. Engine-internal spans
   (phases, transfer attempts) come from the engine's own Obs collector
   and are grafted under the span that made the call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  query : int;  (** query id; -1 outside any query *)
  start : float;
  stop : float;
}

type t = {
  mutable next : int;
  mutable stack : int list;
  mutable query : int;
  mutable spans : span list;
}

(* Ids of recorder [r] start at [r * 10^9], so merged recorders never clash. *)
let create ?(recorder = 0) () =
  { next = (recorder * 1_000_000_000) + 1; stack = []; query = -1; spans = [] }

let set_query t q = t.query <- q
let parent t = match t.stack with p :: _ -> p | [] -> 0

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let record t f name =
  let id = fresh_id t in
  let parent = parent t in
  t.stack <- id :: t.stack;
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; name; parent; query = t.query; start; stop = Unix.gettimeofday () } :: t.spans)
    f

(* [with_span (Some t) name f] records a span around [f]; [None] runs [f]
   bare, which is how untraced runs stay free of recording cost. *)
let with_span t name f = match t with None -> f () | Some t -> record t f name

(* Graft an Obs span list under the innermost open span. Obs lists spans
   in close order (children before their parent), so its reverse visits
   every parent right before its children. *)
let graft t (obs_spans : Dstress_obs.Obs.span list) =
  let base = parent t in
  let open_at = Hashtbl.create 8 in
  List.iter
    (fun (s : Dstress_obs.Obs.span) ->
      let id = fresh_id t in
      let parent =
        if s.depth = 0 then base
        else Option.value (Hashtbl.find_opt open_at (s.depth - 1)) ~default:base
      in
      Hashtbl.replace open_at s.depth id;
      t.spans <-
        {
          id;
          name = s.name;
          parent;
          query = t.query;
          start = s.wall_start;
          stop = s.wall_start +. s.wall;
        }
        :: t.spans)
    (List.rev obs_spans)

let spans recorders = List.concat_map (fun t -> List.rev t.spans) recorders

type self_row = { label : string; count : int; total_s : float; self_s : float }

(* Self time of a span: its duration minus the time its children cover.
   Engine task spans can overlap under a parallel executor; the clamp at
   zero keeps their parent's self time from going negative. *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0 in
        Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    spans;
  let rows = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self =
        Float.max 0.0 (dur -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0)
      in
      let c, tot, sf =
        Option.value (Hashtbl.find_opt rows s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace rows s.name (c + 1, tot +. dur, sf +. self))
    spans;
  Hashtbl.fold
    (fun label (count, total_s, self_s) acc -> { label; count; total_s; self_s } :: acc)
    rows []
  |> List.sort (fun a b -> compare (b.self_s, b.label) (a.self_s, a.label))

let to_json spans =
  let open Dstress_obs.Json in
  let span s =
    Obj
      [
        ("id", Int s.id);
        ("name", Str s.name);
        ("parent", Int s.parent);
        ("query", Int s.query);
        ("start", Num s.start);
        ("end", Num s.stop);
      ]
  in
  let row r =
    Obj
      [
        ("name", Str r.label);
        ("count", Int r.count);
        ("total_s", Num r.total_s);
        ("self_s", Num r.self_s);
      ]
  in
  to_string
    (Obj
       [
         ("self_times", List (List.map row (self_times spans)));
         ("spans", List (List.map span spans));
       ])
