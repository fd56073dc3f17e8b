type kind = End_to_end | Per_layer

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  kind : kind;
  moves : string;
}

let e2e name unit_ ~higher =
  { name; unit_; higher_is_better = higher; kind = End_to_end; moves = "" }

let layer name unit_ ~higher moves =
  { name; unit_; higher_is_better = higher; kind = Per_layer; moves }

let ne = "ne-longflows"
let churn = "churn"
let evolve = "analytic-evolve"
let on metric workload = metric ^ " on " ^ workload

let end_to_end =
  [
    e2e "wall_s" "s" ~higher:false;
    e2e "setup_s" "s" ~higher:false;
    e2e "runs_per_s" "1/s" ~higher:true;
    e2e "pkts_per_s" "1/s" ~higher:true;
    e2e "peak_rss_mb" "MB" ~higher:false;
  ]

let per_layer =
  let pkts_churn = on "pkts_per_s" churn and pkts_ne = on "pkts_per_s" ne in
  let wall_ne = on "wall_s" ne and wall_churn = on "wall_s" churn in
  let wall_evolve = on "wall_s" evolve and runs_evolve = on "runs_per_s" evolve in
  let packet_wall = wall_ne ^ ", " ^ wall_churn in
  let unchanged = "none: simulated output, bit-identical under speed-only changes" in
  [
    (* tcpflow: sender, experiment phases, churn lifecycle *)
    layer "tcpflow.sends" "count" ~higher:false unchanged;
    layer "tcpflow.ns_per_pkt" "ns" ~higher:false (pkts_churn ^ ", " ^ pkts_ne);
    layer "tcpflow.words_per_pkt" "words" ~higher:false pkts_ne;
    layer "tcpflow.setup_ms" "ms" ~higher:false packet_wall;
    layer "tcpflow.simulate_ms" "ms" ~higher:false packet_wall;
    layer "tcpflow.finish_ms" "ms" ~higher:false packet_wall;
    layer "tcpflow.run_ms_p50" "ms" ~higher:false packet_wall;
    layer "tcpflow.run_ms_tail" "ms" ~higher:false packet_wall;
    layer "tcpflow.self_ms" "ms" ~higher:false packet_wall;
    layer "tcpflow.flows_attached" "count" ~higher:false pkts_churn;
    layer "tcpflow.retx_ratio" "ratio" ~higher:false unchanged;
    layer "tcpflow.rto_fires" "count" ~higher:false unchanged;
    layer "tcpflow.churn_arrived" "count" ~higher:false wall_churn;
    layer "tcpflow.churn_completed" "count" ~higher:true wall_churn;
    layer "tcpflow.completion_ratio" "ratio" ~higher:true wall_churn;
    layer "tcpflow.churn_slots" "count" ~higher:false wall_churn;
    (* engine *)
    layer "engine.pending_mean" "count" ~higher:false (pkts_churn ^ ", " ^ pkts_ne);
    layer "engine.pending_samples" "count" ~higher:false unchanged;
    (* cc: CCA entry points, timed through the registry wrappers *)
    layer "cc.calls" "count" ~higher:false pkts_ne;
    layer "cc.self_ms" "ms" ~higher:false pkts_ne;
    layer "cc.ns_per_call" "ns" ~higher:false pkts_ne;
    layer "cc.share" "ratio" ~higher:false pkts_ne;
    layer "cc.cubic.calls" "count" ~higher:false pkts_ne;
    layer "cc.cubic.self_ms" "ms" ~higher:false pkts_ne;
    layer "cc.bbr.calls" "count" ~higher:false pkts_ne;
    layer "cc.bbr.self_ms" "ms" ~higher:false pkts_ne;
    (* netsim: bottleneck statistics *)
    layer "netsim.drops" "count" ~higher:false unchanged;
    layer "netsim.drop_rate" "ratio" ~higher:false unchanged;
    layer "netsim.utilization" "ratio" ~higher:true unchanged;
    layer "netsim.queue_delay_ms" "ms" ~higher:false unchanged;
    (* workload: schedule generation *)
    layer "workload.schedule_ms" "ms" ~higher:false (on "setup_s" churn);
    layer "workload.items" "count" ~higher:false wall_churn;
    (* experiments: drivers *)
    layer "experiments.probes" "count" ~higher:false wall_ne;
    layer "experiments.probe_ms_p50" "ms" ~higher:false wall_ne;
    layer "experiments.probe_ms_tail" "ms" ~higher:false wall_ne;
    layer "experiments.self_ms" "ms" ~higher:false wall_evolve;
    (* exec: worker pool and result cache *)
    layer "exec.jobs" "count" ~higher:true wall_ne;
    layer "exec.busy_ratio" "ratio" ~higher:true wall_ne;
    layer "exec.imbalance" "ratio" ~higher:false wall_ne;
    layer "exec.cache_hits" "count" ~higher:true wall_evolve;
    layer "exec.cache_misses" "count" ~higher:false wall_evolve;
    layer "exec.hit_ratio" "ratio" ~higher:true wall_evolve;
    layer "exec.memo_evictions" "count" ~higher:false wall_evolve;
    layer "exec.cache_store_us" "us" ~higher:false wall_evolve;
    layer "exec.cache_find_us" "us" ~higher:false wall_evolve;
    (* backend: analytic steppers behind Sim_backend *)
    layer "backend.specs" "count" ~higher:false runs_evolve;
    layer "backend.batch_calls" "count" ~higher:false runs_evolve;
    layer "backend.specs_per_batch" "count" ~higher:true runs_evolve;
    layer "backend.self_ms" "ms" ~higher:false runs_evolve;
    layer "backend.spec_us_p50" "us" ~higher:false runs_evolve;
    layer "backend.spec_us_tail" "us" ~higher:false runs_evolve;
    (* model: the accuracy reference *)
    layer "model.err" "ratio" ~higher:false unchanged;
    layer "model.probes" "count" ~higher:false unchanged;
    (* trace: the replay itself *)
    layer "trace.overhead_ratio" "ratio" ~higher:false "none: cost of tracing";
    layer "trace.unattributed_ratio" "ratio" ~higher:false
      "none: layer-budget residual";
    layer "trace.self_ms" "ms" ~higher:false "none: event hub set-up and rollup";
    layer "trace.spans" "count" ~higher:false "none: span count";
    layer "trace.records" "count" ~higher:false unchanged;
  ]

let all = end_to_end @ per_layer

let find name =
  match List.find_opt (fun m -> String.equal m.name name) all with
  | Some m -> m
  | None -> invalid_arg ("Catalogue.find: unknown metric " ^ name)

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let to_json m =
  Printf.sprintf {|{"name": "%s", "unit": "%s", "better": "%s", "kind": "%s", "moves": "%s"}|}
    m.name m.unit_
    (if m.higher_is_better then "higher" else "lower")
    (match m.kind with End_to_end -> "end_to_end" | Per_layer -> "per_layer")
    m.moves
