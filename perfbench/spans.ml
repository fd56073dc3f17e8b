type span = {
  id : int;
  name : string;
  key : string;
  parent : int;
  start_ns : int;
  stop_ns : int;
}

type t = {
  mutable finished : span list;
  mutable next_id : int;
  mutable open_ids : int list;
}

let create () = { finished = []; next_id = 0; open_ids = [] }

let parent_of t = match t.open_ids with p :: _ -> p | [] -> -1

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let with_span t ~name ?(key = "") f =
  let id = fresh_id t in
  let parent = parent_of t in
  t.open_ids <- id :: t.open_ids;
  let start_ns = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let stop_ns = Clock.now_ns () in
      t.open_ids <- List.tl t.open_ids;
      t.finished <- { id; name; key; parent; start_ns; stop_ns } :: t.finished)
    f

let add t ~name ?(key = "") ~start_ns ~stop_ns () =
  let id = fresh_id t in
  t.finished <-
    { id; name; key; parent = parent_of t; start_ns; stop_ns } :: t.finished

let spans t =
  List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) t.finished

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Length of the union of [intervals] after clipping each to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max lo a and b = min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      let dur = s.stop_ns - s.start_ns in
      (s, dur - covered ~lo:s.start_ns ~hi:s.stop_ns kids))
    spans

let layer_self_ns spans =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      let l = layer s.name in
      Hashtbl.replace acc l
        (self + Option.value (Hashtbl.find_opt acc l) ~default:0))
    (self_times spans);
  List.sort compare (List.of_seq (Hashtbl.to_seq acc))

let outside_parent spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.filter
    (fun s ->
      s.parent >= 0
      &&
      match Hashtbl.find_opt by_id s.parent with
      | None -> true
      | Some p -> s.start_ns < p.start_ns || s.stop_ns > p.stop_ns)
    spans

let to_jsonl s =
  Printf.sprintf
    {|{"id":%d,"name":"%s","key":"%s","parent":%d,"start_ns":%d,"end_ns":%d}|}
    s.id s.name s.key s.parent s.start_ns s.stop_ns
