(* The benchmark's own tests: seeded inputs are byte-identical, the
   self-time arithmetic is right on synthetic spans, and the metric
   catalogue respects the naming rules and size limits. Silent on success;
   exits 1 listing every failed case. *)

module W = Perfbench.Workloads
module Spans = Perfbench.Spans
module Catalogue = Perfbench.Catalogue

let failures = ref []
let expect name ok = if not ok then failures := name :: !failures

let inputs_are_seeded () =
  let work_dir = "selftest-work" in
  List.iter
    (fun w ->
      let fp seed =
        let inputs = W.setup w ~seed ~work_dir in
        W.release inputs;
        W.fingerprint inputs
      in
      let a = fp 3 and b = fp 3 and c = fp 4 in
      let name = W.name w in
      expect (name ^ ": same seed, same inputs") (String.equal a b);
      expect (name ^ ": other seed, other inputs") (not (String.equal a c));
      expect (name ^ ": inputs not empty") (String.length a > 0))
    W.all;
  (* The churn schedules are the ones Experiment.setup draws. *)
  (match W.setup W.Churn ~seed:3 ~work_dir with
  | W.Churn_in (i :: _) ->
    let live = Tcpflow.Experiment.setup i.config in
    let drawn =
      match Tcpflow.Experiment.live_churn live with
      | Some c -> Workload.Schedule.to_string (Tcpflow.Churn.schedule c)
      | None -> ""
    in
    expect "churn: schedule matches Experiment.setup"
      (String.equal drawn (Workload.Schedule.to_string i.schedule))
  | _ -> expect "churn: has inputs" false);
  W.rm_rf work_dir

let span id name ?(parent = -1) start_ns stop_ns =
  { Spans.id; name; key = ""; parent; start_ns; stop_ns }

let self_time_arithmetic () =
  (* root [0,100] with children [10,30] and [20,50] (overlapping) and a
     grandchild [12,18] under the first child; a child sticking out of its
     parent only counts inside it. *)
  let spans =
    [
      span 0 "bench.replay" 0 100;
      span 1 "experiments.probe" ~parent:0 10 30;
      span 2 "tcpflow.simulate" ~parent:0 20 50;
      span 3 "cc.bbr" ~parent:1 12 18;
      span 4 "backend.run" ~parent:2 40 60;
    ]
  in
  let selfs = Spans.self_times spans in
  let self id =
    snd (List.find (fun ((s : Spans.span), _) -> s.id = id) selfs)
  in
  expect "self: root minus union of children" (self 0 = 100 - 40);
  expect "self: child minus grandchild" (self 1 = 20 - 6);
  expect "self: clipped grandchild" (self 2 = 30 - 10);
  expect "self: leaves keep their duration" (self 3 = 6 && self 4 = 20);
  let layers = Spans.layer_self_ns spans in
  expect "layers: grouped by name prefix"
    (layers
    = [ ("backend", 20); ("bench", 60); ("cc", 6); ("experiments", 14); ("tcpflow", 20) ]);
  (* Properly nested spans partition the root exactly. *)
  let nested =
    [
      span 0 "bench.replay" 0 1000;
      span 1 "experiments.point" ~parent:0 5 900;
      span 2 "tcpflow.simulate" ~parent:1 10 700;
      span 3 "cc.cubic" ~parent:2 10 110;
      span 4 "tcpflow.finish" ~parent:1 700 720;
    ]
  in
  expect "layers: nested spans sum to the root"
    (List.fold_left (fun n (_, s) -> n + s) 0 (Spans.layer_self_ns nested) = 1000);
  expect "containment: nested spans lie inside their parents"
    (Spans.outside_parent nested = []);
  let stray =
    Spans.outside_parent (span 9 "cc.bbr" ~parent:7 0 1 :: spans)
    |> List.map (fun (s : Spans.span) -> s.id)
    |> List.sort compare
  in
  expect "containment: overhanging and orphaned spans are found" (stray = [ 4; 9 ]);
  (* Recorded spans nest under the innermost open span. *)
  let sp = Spans.create () in
  Spans.with_span sp ~name:"bench.replay" (fun () ->
      Spans.with_span sp ~name:"tcpflow.setup" (fun () -> ());
      Spans.add sp ~name:"cc.bbr" ~start_ns:1 ~stop_ns:2 ());
  let recorded = Spans.spans sp in
  let find name = List.find_opt (fun (s : Spans.span) -> s.name = name) recorded in
  match (find "bench.replay", find "tcpflow.setup", find "cc.bbr") with
  | Some root, Some a, Some b ->
    expect "record: parents"
      (a.parent = root.id && b.parent = root.id && root.parent = -1)
  | _ -> expect "record: three spans" false

let catalogue_limits () =
  let names = List.map (fun (m : Catalogue.metric) -> m.name) Catalogue.all in
  List.iter
    (fun n -> expect ("name matches [A-Za-z0-9_.-]+: " ^ n) (Catalogue.valid_name n))
    names;
  expect "names are unique"
    (List.length (List.sort_uniq compare names) = List.length names);
  let ne = List.length Catalogue.end_to_end and nl = List.length Catalogue.per_layer in
  expect "1..16 end-to-end metrics" (ne >= 1 && ne <= 16);
  expect "1..128 per-layer metrics" (nl >= 1 && nl <= 128);
  expect "setup_s is an end-to-end metric in s, lower is better"
    (List.exists
       (fun (m : Catalogue.metric) ->
         m.name = "setup_s" && m.unit_ = "s" && not m.higher_is_better)
       Catalogue.end_to_end);
  List.iter
    (fun (m : Catalogue.metric) ->
      expect ("per-layer metric says what it moves: " ^ m.name) (m.moves <> ""))
    Catalogue.per_layer;
  expect "invalid names are rejected"
    (not (List.exists Catalogue.valid_name [ ""; ".x"; "a b"; "a/b"; String.make 65 'a' ]))

let () =
  inputs_are_seeded ();
  self_time_arithmetic ();
  catalogue_limits ();
  match List.rev !failures with
  | [] -> ()
  | fs ->
    List.iter (fun f -> prerr_endline ("perfbench selftest FAILED: " ^ f)) fs;
    exit 1
