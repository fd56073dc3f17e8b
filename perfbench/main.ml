(* The benchmark program: one workload, one seed, one result line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
     main.exe --list-metrics

   --trace 0 repeats the workload's unit of work for S seconds at two
   worker domains and prints the end-to-end metrics; --trace 1 runs
   the traced replay and prints the per-layer metrics. The last line of
   standard output is the JSON result; the process exits 1 when an output
   check failed. NOTES.md describes the workloads, the passes and every
   metric. *)

module W = Perfbench.Workloads
module Clock = Perfbench.Clock
module Spans = Perfbench.Spans
module Probes = Perfbench.Probes
module Catalogue = Perfbench.Catalogue

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out \
     DIR] | --list-metrics";
  exit 2

type args = {
  workload : W.workload;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
}

let parse argv =
  let get key =
    let rec find = function
      | k :: v :: _ when String.equal k key -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find (List.tl (Array.to_list argv))
  in
  let int_of key default =
    match get key with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let workload =
    match Option.bind (get "--workload") W.of_name with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = float_of_int (int_of "--seconds" 10) in
  let trace =
    match get "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> usage ()
  in
  if seconds <= 0.0 then usage ();
  {
    workload;
    seed = int_of "--seed" 1;
    seconds;
    trace;
    out = Option.value (get "--out") ~default:(Filename.concat ".bench_build" "perfbench");
  }

(* ---------------------------------------------------------------------- *)
(* Small statistics *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b
let ms ns = Clock.ms_of_ns ns
let sum_int f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sum_float f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let mean_float f xs = ratio (sum_float f xs) (float_of_int (List.length xs))

(* ---------------------------------------------------------------------- *)
(* Result line *)

let failures = ref []
let attempted = ref 0
let failed = ref 0

let record_failures ~items msgs =
  attempted := !attempted + items;
  if msgs <> [] then begin
    failed := !failed + max 1 (min items (List.length msgs));
    failures := !failures @ msgs
  end

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  List.iter (fun m -> prerr_endline ("perfbench: check failed: " ^ m)) !failures;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           let m = Catalogue.find name in
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name
             (json_number v) m.Catalogue.unit_)
         metrics)
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (!failed = 0) (max 1 !attempted) !failed body;
  print_newline ()

(* ---------------------------------------------------------------------- *)
(* Set-up time: building the inputs from the seed, timed in batches of at
   least a millisecond (a single build can take microseconds). Batches are
   taken before the first repetition and after every one, so the samples
   span the same stretch of time as the repetitions; the median per-build
   time is reported. *)

let setup_sampler args ~work_dir =
  let build () = W.setup args.workload ~seed:args.seed ~work_dir in
  let once, (_ : W.inputs) = Clock.time_ns build in
  let per_batch = max 1 (1_000_000 / max 1 once) in
  let samples = ref [] in
  let sample batches =
    for _ = 1 to batches do
      let ns, () =
        Clock.time_ns (fun () ->
            for _ = 1 to per_batch do
              ignore (build () : W.inputs)
            done)
      in
      samples := (Clock.s_of_ns ns /. float_of_int per_batch) :: !samples
    done
  in
  (sample, fun () -> median !samples)

(* ---------------------------------------------------------------------- *)
(* --trace 0 *)

(* Repeat the unit, unprobed, at least twice and then while the elapsed
   time plus the median repetition fits in the run. Every repetition must
   reproduce the [reference] digest. *)
let timed_reps args ~reference ~after_rep inputs =
  let t_start = Clock.now_ns () in
  let walls = ref [] in
  let continue_ () =
    let elapsed = Clock.s_of_ns (Clock.now_ns () - t_start) in
    List.length !walls < 2 || elapsed +. median !walls <= args.seconds
  in
  (try
     while continue_ () do
       W.prepare inputs;
       let ns, (check : W.checked) = Clock.time_ns (fun () -> W.run_unit inputs) in
       record_failures ~items:check.items
         (if String.equal check.digest reference then check.failures
          else
            (* A repeat that disagrees fails every output it produced. *)
            List.init (max 1 check.items) (fun _ ->
                "repetition's output digest differs from the counting pass"));
       Printf.eprintf "perfbench: %s seed %d rep %d: %.3f s\n%!"
         (W.name args.workload) args.seed (List.length !walls + 1)
         (Clock.s_of_ns ns);
       walls := Clock.s_of_ns ns :: !walls;
       after_rep ()
     done
   with e -> record_failures ~items:1 [ "raised " ^ Printexc.to_string e ]);
  List.rev !walls

(* The counting pass runs the unit once with the probes installed, untimed
   and before the timed window. Equal digests mean equal simulations, so
   its simulation and segment counts hold for every timed repetition. *)
let end_to_end args ~work_dir =
  let sample_setup, setup_s = setup_sampler args ~work_dir in
  sample_setup 10;
  let inputs = W.setup args.workload ~seed:args.seed ~work_dir in
  let counted = W.count_unit inputs in
  record_failures ~items:counted.check.items counted.check.failures;
  let walls =
    timed_reps args ~reference:counted.check.digest
      ~after_rep:(fun () ->
        (* Empty the caches first, so that set-up does not pay for
           deleting the entries the repetition stored. *)
        W.prepare inputs;
        sample_setup 5)
      inputs
  in
  W.release inputs;
  let rate n = median (List.map (fun wall -> ratio n wall) walls) in
  [
    ("wall_s", median walls);
    ("setup_s", setup_s ());
    ("runs_per_s", rate (float_of_int counted.runs));
    ("pkts_per_s", rate counted.segments);
  ]

(* ---------------------------------------------------------------------- *)
(* --trace 1 *)

(* The layer budget: at most this share of the traced run's wall time may
   be covered by no layer span (time the benchmark itself spends between
   driver calls). *)
let budget_tolerance = 0.05

let cache_replay_us ~work_dir (batches : Probes.batch list) =
  let entries =
    List.concat_map
      (fun (b : Probes.batch) ->
        List.filter_map
          (fun (d, o) -> Option.map (fun o -> (d, o)) o)
          (List.combine (Array.to_list b.b_digests) (Array.to_list b.b_outcomes)))
      batches
  in
  if entries = [] then (0.0, 0.0)
  else begin
    let dir = Filename.concat work_dir "cache-replay" in
    let cache = W.fresh_cache dir in
    let time f = float_of_int (fst (Clock.time_ns f)) /. 1e3 in
    let stores =
      List.map
        (fun (key, (o : Sim_backend.outcome)) ->
          time (fun () -> Sim_engine.Exec.Cache.store cache ~key o))
        entries
    in
    let finds =
      List.map
        (fun (key, _) ->
          time (fun () ->
              ignore
                (Sim_engine.Exec.Cache.find cache ~key
                  : Sim_backend.outcome option)))
        entries
    in
    W.rm_rf dir;
    (median stores, median finds)
  end

let per_layer args ~work_dir =
  let inputs = W.setup args.workload ~seed:args.seed ~work_dir in
  let schedule_ms =
    match inputs with
    | W.Churn_in ins ->
      ms (fst (Clock.time_ns (fun () ->
                  List.iter (fun (i : W.churn_input) -> ignore (W.schedule_of i.config)) ins)))
    | W.Ne _ | W.Evolve _ -> 0.0
  in
  (* A: the counting unit at [jobs] domains, for the digest and the pool. *)
  W.prepare inputs;
  let a_ns, a = Clock.time_ns (fun () -> W.count_unit inputs) in
  record_failures ~items:a.W.check.items a.W.check.failures;
  (* B: the untraced single-domain replay. *)
  W.prepare inputs;
  let c0 = Sim_engine.Exec.counters () in
  let b =
    Probes.with_ccas Probes.Count_sends W.ccas (fun probe ->
        W.replay ~probe ~traced:false inputs)
  in
  let c1 = Sim_engine.Exec.counters () in
  record_failures ~items:b.W.r_check.items b.W.r_check.failures;
  (* C: the traced replay. *)
  W.prepare inputs;
  let c, cc =
    Probes.with_ccas Probes.Time_calls W.ccas (fun probe ->
        let r = W.replay ~probe ~traced:true inputs in
        (r, Probes.cc_totals probe))
  in
  record_failures ~items:c.W.r_check.items c.W.r_check.failures;
  W.release inputs;
  let check ok msg = record_failures ~items:1 (if ok then [] else [ msg ]) in
  check (String.equal a.W.check.digest b.W.r_check.digest)
    "jobs 1 replay digest differs from the jobs 2 run";
  check (String.equal b.W.r_check.digest c.W.r_check.digest)
    "traced replay digest differs from the untraced one";
  let packet = match inputs with W.Evolve _ -> false | W.Ne _ | W.Churn_in _ -> true in
  let sims = c.W.r_sims in
  let sends = sum_int (fun (s : W.sim_stats) -> s.cc_sends) sims in
  let hub_sims = List.filter (fun (s : W.sim_stats) -> s.records > 0) sims in
  let hub_sends = sum_int (fun (s : W.sim_stats) -> s.hub_sends) hub_sims in
  if packet then begin
    check (hub_sims <> []) "no simulation ran with a trace hub";
    List.iter
      (fun (s : W.sim_stats) ->
        check (s.hub_sends = s.cc_sends)
          (Printf.sprintf "trace sends %d <> CCA on_send calls %d" s.hub_sends
             s.cc_sends))
      hub_sims;
    check (float_of_int sends = a.W.segments)
      (Printf.sprintf "traced sends %d <> counting unit's %g" sends a.W.segments)
  end;
  (* Layer budget over the traced run. *)
  let spans = c.W.r_spans in
  let layers = Spans.layer_self_ns spans in
  let layer l = Option.value (List.assoc_opt l layers) ~default:0 in
  let wall_c = float_of_int c.W.r_wall_ns in
  let unattributed = ratio (float_of_int (layer "bench")) wall_c in
  check
    (Spans.outside_parent spans = [])
    "a span sticks out of its parent: self times would not add up";
  check
    (unattributed <= budget_tolerance)
    (Printf.sprintf "layer budget open: %.1f%% of the traced wall time unattributed"
       (100.0 *. unattributed));
  let oc =
    open_out
      (Filename.concat args.out
         (Printf.sprintf "spans-%s-%d.jsonl" (W.name args.workload) args.seed))
  in
  List.iter (fun s -> output_string oc (Spans.to_jsonl s ^ "\n")) spans;
  close_out oc;
  (* Figures. *)
  let b_sims = b.W.r_sims in
  let fsends = float_of_int sends in
  let b_sim_ms f = ms (sum_int f b_sims) in
  let simulate_ms = b_sim_ms (fun s -> s.W.simulate_ns) in
  let run_ms =
    List.map
      (fun (s : W.sim_stats) -> ms (s.setup_ns + s.simulate_ns + s.finish_ns))
      b_sims
  in
  let results = List.map (fun (s : W.sim_stats) -> s.result) sims in
  let arrived = sum_int (fun (s : W.sim_stats) -> s.churn_arrived) sims in
  let completed = sum_int (fun (r : Tcpflow.Experiment.result) -> r.workload_completed) results in
  let drops = sum_int (fun (r : Tcpflow.Experiment.result) -> r.drops) results in
  let cc_ns = sum_int (fun (t : Probes.cc_totals) -> t.call_ns) cc in
  let cc_calls = sum_int (fun (t : Probes.cc_totals) -> t.calls) cc in
  let cc_of name f =
    match List.find_opt (fun (t : Probes.cc_totals) -> String.equal t.cc_name name) cc with
    | Some t -> f t
    | None -> 0.0
  in
  let batches = c.W.r_batches in
  let specs = sum_int (fun (b : Probes.batch) -> Array.length b.b_specs) batches in
  let spec_us =
    List.map
      (fun (b : Probes.batch) ->
        ratio (float_of_int b.b_ns /. 1e3) (float_of_int (Array.length b.b_specs)))
      batches
  in
  let store_us, find_us = cache_replay_us ~work_dir batches in
  let job_ns =
    match inputs with
    | W.Churn_in _ -> b.W.r_probe_ns
    | W.Ne _ | W.Evolve _ -> a.W.job_ns
  in
  let jobs_f = List.map float_of_int job_ns in
  let hits = c1.cache_hits - c0.cache_hits and misses = c1.cache_misses - c0.cache_misses in
  let probe_ms = List.map ms b.W.r_probe_ns in
  let f = float_of_int in
  [
    ("tcpflow.sends", fsends);
    ("tcpflow.ns_per_pkt", ratio (simulate_ms *. 1e6) fsends);
    ("tcpflow.words_per_pkt", ratio (sum_float (fun (s : W.sim_stats) -> s.minor_words) b_sims) fsends);
    ("tcpflow.setup_ms", b_sim_ms (fun s -> s.W.setup_ns));
    ("tcpflow.simulate_ms", simulate_ms);
    ("tcpflow.finish_ms", b_sim_ms (fun s -> s.W.finish_ns));
    ("tcpflow.run_ms_p50", median run_ms);
    ("tcpflow.run_ms_tail", percentile 90.0 run_ms);
    ("tcpflow.self_ms", ms (layer "tcpflow"));
    ( "tcpflow.flows_attached",
      f (sum_int (fun (r : Tcpflow.Experiment.result) -> List.length r.config.flows) results + arrived) );
    ( "tcpflow.retx_ratio",
      ratio (f (sum_int (fun (s : W.sim_stats) -> s.retransmits) hub_sims)) (f hub_sends) );
    ("tcpflow.rto_fires", f (sum_int (fun (s : W.sim_stats) -> s.rto_fires) hub_sims));
    ("tcpflow.churn_arrived", f arrived);
    ("tcpflow.churn_completed", f completed);
    ("tcpflow.completion_ratio", ratio (f completed) (f arrived));
    ("tcpflow.churn_slots", f (sum_int (fun (s : W.sim_stats) -> s.churn_slots) sims));
    ( "engine.pending_mean",
      ratio
        (sum_float (fun (s : W.sim_stats) -> s.pending_sum) sims)
        (f (sum_int (fun (s : W.sim_stats) -> s.pending_samples) sims)) );
    ("engine.pending_samples", f (sum_int (fun (s : W.sim_stats) -> s.pending_samples) sims));
    ("cc.calls", f cc_calls);
    ("cc.self_ms", ms cc_ns);
    ("cc.ns_per_call", ratio (f cc_ns) (f cc_calls));
    ("cc.share", ratio (f cc_ns) (f (sum_int (fun (s : W.sim_stats) -> s.simulate_ns) sims)));
    ("cc.cubic.calls", cc_of "cubic" (fun t -> f t.calls));
    ("cc.cubic.self_ms", cc_of "cubic" (fun t -> ms t.call_ns));
    ("cc.bbr.calls", cc_of "bbr" (fun t -> f t.calls));
    ("cc.bbr.self_ms", cc_of "bbr" (fun t -> ms t.call_ns));
    ("netsim.drops", f drops);
    ("netsim.drop_rate", ratio (f drops) fsends);
    ("netsim.utilization", mean_float (fun (r : Tcpflow.Experiment.result) -> r.utilization) results);
    ("netsim.queue_delay_ms", 1e3 *. mean_float (fun (r : Tcpflow.Experiment.result) -> r.queuing_delay) results);
    ("workload.schedule_ms", schedule_ms);
    ("workload.items", f (W.schedule_items inputs));
    ("experiments.probes", f (List.length probe_ms));
    ("experiments.probe_ms_p50", median probe_ms);
    ("experiments.probe_ms_tail", percentile 90.0 probe_ms);
    ("experiments.self_ms", ms (layer "experiments"));
    ("exec.jobs", f W.jobs);
    ("exec.busy_ratio", ratio (sum_float Fun.id jobs_f) (f W.jobs *. f a_ns));
    ("exec.imbalance", ratio (List.fold_left Float.max 0.0 jobs_f) (mean_float Fun.id jobs_f));
    ("exec.cache_hits", f hits);
    ("exec.cache_misses", f misses);
    ("exec.hit_ratio", ratio (f hits) (f (hits + misses)));
    ("exec.memo_evictions", f (c1.memo_evictions - c0.memo_evictions));
    ("exec.cache_store_us", store_us);
    ("exec.cache_find_us", find_us);
    ("backend.specs", f specs);
    ("backend.batch_calls", f (List.length batches));
    ("backend.specs_per_batch", ratio (f specs) (f (List.length batches)));
    ("backend.self_ms", ms (layer "backend"));
    ("backend.spec_us_p50", median spec_us);
    ("backend.spec_us_tail", percentile 90.0 spec_us);
    ("model.err", mean_float Fun.id c.W.r_model_err);
    ("model.probes", f (List.length c.W.r_model_err));
    ("trace.overhead_ratio", ratio wall_c (f b.W.r_wall_ns));
    ("trace.unattributed_ratio", unattributed);
    ("trace.self_ms", ms (layer "trace"));
    ("trace.spans", f (List.length spans));
    ("trace.records", f (sum_int (fun (s : W.sim_stats) -> s.records) sims));
  ]

let () =
  if Array.exists (String.equal "--list-metrics") Sys.argv then begin
    List.iter (fun m -> print_endline (Catalogue.to_json m)) Catalogue.all;
    exit 0
  end;
  let args = parse Sys.argv in
  let work_dir =
    Filename.concat args.out
      (Printf.sprintf "work-%s-%d" (W.name args.workload) args.seed)
  in
  W.mkdir_p args.out;
  let metrics =
    try if args.trace then per_layer args ~work_dir else end_to_end args ~work_dir
    with e ->
      record_failures ~items:1 [ "raised " ^ Printexc.to_string e ];
      []
  in
  W.rm_rf work_dir;
  print_result metrics;
  exit (if !failed = 0 && metrics <> [] then 0 else 1)
