module E = Tcpflow.Experiment
module Units = Sim_engine.Units
module Common = Experiments.Common
module Runs = Experiments.Runs

type workload = Ne_longflows | Churn | Analytic_evolve

let all = [ Ne_longflows; Churn; Analytic_evolve ]

let name = function
  | Ne_longflows -> "ne-longflows"
  | Churn -> "churn"
  | Analytic_evolve -> "analytic-evolve"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

(* Worker domains of the timed unit: the two cores the figures were sized
   on. The replay runs on one. *)
let jobs = 2

(* Distinct, positive simulation seeds for slot [i] of a run's inputs. *)
let derive seed i = 1 + (abs seed * 16) + i

(* ---------------------------------------------------------------------- *)
(* Inputs *)

(* ne-longflows: fig09's quick-mode NE search (n = 20, 60 s probes with a
   25 s warm-up, window 2, epsilon 0.02) at two grid points. *)
let ne_n = 20
let ne_duration = 60.0
let ne_warmup = 25.0

type ne_point = {
  label : string;
  mbps : float;
  rtt_ms : float;
  buffer_bdp : float;
  configs : E.config array;  (** Index k: k BBR flows, n - k CUBIC. *)
}

let ne_grid =
  [ ("50M-40ms-10bdp", 50.0, 40.0, 10.0); ("50M-80ms-20bdp", 50.0, 80.0, 20.0) ]

let ne_setup ~seed =
  List.mapi
    (fun i (label, mbps, rtt_ms, buffer_bdp) ->
      let rtt = Units.ms rtt_ms in
      let flows k =
        List.init (ne_n - k) (fun _ -> E.flow_config ~base_rtt:rtt "cubic")
        @ List.init k (fun _ -> E.flow_config ~base_rtt:rtt "bbr")
      in
      let configs =
        Array.init (ne_n + 1) (fun k ->
            Runs.config ~mode:Common.Quick
              ~duration:(Units.seconds ne_duration)
              ~warmup:(Units.seconds ne_warmup) ~mbps ~rtt_ms ~buffer_bdp
              ~flows:(flows k) ~seed:(derive seed i) ())
      in
      { label; mbps; rtt_ms; buffer_bdp; configs })
    ne_grid

(* churn: the workload experiment's shape (long CUBIC vs long BBR, 40 ms,
   web-object sizes, CUBIC short flows) at 50% offered load on a 3 BDP
   buffer, eight seeds per unit. *)
let churn_mbps = 50.0
let churn_rtt = Units.ms 40.0
let churn_bdp = 3.0
let churn_load = 0.5
let churn_duration = 30.0
let churn_warmup = 10.0
let churn_configs = 8

let churn_workload =
  let sizes = Workload.Dist.web_objects in
  {
    E.wl_arrival =
      Workload.Arrival.poisson_of_load ~load:churn_load
        ~rate_bps:(Units.mbps churn_mbps :> float)
        ~mean_size_bytes:(Workload.Dist.mean_bytes sizes);
    wl_sizes = sizes;
    wl_cca = "cubic";
    wl_rtt = churn_rtt;
  }

(* The schedule [Experiment.setup] will draw for [config]: the workload
   stream is the first split of the simulator's root generator. *)
let schedule_of (config : E.config) =
  let sim = Sim_engine.Sim.create ~seed:config.seed () in
  Workload.Schedule.generate ~arrival:churn_workload.wl_arrival
    ~sizes:churn_workload.wl_sizes
    ~horizon_s:(config.duration :> float)
    ~rng:(Sim_engine.Rng.split (Sim_engine.Sim.rng sim))
    ()

type churn_input = { config : E.config; schedule : Workload.Schedule.t }

let churn_setup ~seed =
  let rate_bps = Units.mbps churn_mbps in
  List.init churn_configs (fun i ->
      let config =
        E.config ~seed:(derive seed i)
          ~warmup:(Units.seconds churn_warmup)
          ~workload:churn_workload ~rate_bps
          ~buffer_bytes:
            (E.buffer_bytes_of_bdp ~rate_bps ~rtt:churn_rtt ~bdp:churn_bdp)
          ~duration:(Units.seconds churn_duration)
          [ E.flow_config "cubic"; E.flow_config "bbr" ]
      in
      { config; schedule = schedule_of config })

(* analytic-evolve: the evolve driver on both analytic backends for eight
   seeds, each on a cold cache. Set-up creates the fresh cache directories
   through [Exec.Cache.create]; [prepare] empties them again before every
   repetition, outside the timing. *)
type evolve_job = {
  backend : Sim_backend.t;
  seed : int;
  cache_dir : string;
  ctx : Common.ctx;
}

let evolve_seeds = 8

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* A fresh, empty result cache at this path. *)
let fresh_cache dir =
  rm_rf dir;
  Sim_engine.Exec.Cache.create dir

let evolve_setup ~seed ~work_dir =
  List.concat_map
    (fun backend ->
      List.init evolve_seeds (fun i ->
          let seed = derive seed i in
          let cache_dir =
            Filename.concat work_dir
              (Printf.sprintf "cache-%s-%d" (Sim_backend.name backend) seed)
          in
          ignore (fresh_cache cache_dir : Sim_engine.Exec.Cache.t);
          {
            backend;
            seed;
            cache_dir;
            ctx = Common.ctx ~jobs ~cache_dir Common.Quick;
          }))
    [ Sim_backend.fluid; Sim_backend.ode ]

type inputs =
  | Ne of ne_point list
  | Churn_in of churn_input list
  | Evolve of evolve_job list

(* Cold caches for the next repetition. *)
let prepare = function
  | Evolve jobs ->
    List.iter
      (fun j -> ignore (fresh_cache j.cache_dir : Sim_engine.Exec.Cache.t))
      jobs
  | Ne _ | Churn_in _ -> ()

let setup w ~seed ~work_dir =
  match w with
  | Ne_longflows -> Ne (ne_setup ~seed)
  | Churn -> Churn_in (churn_setup ~seed)
  | Analytic_evolve -> Evolve (evolve_setup ~seed ~work_dir)

let release = function
  | Evolve jobs -> List.iter (fun j -> rm_rf j.cache_dir) jobs
  | Ne _ | Churn_in _ -> ()

let fingerprint inputs =
  let b = Buffer.create 4096 in
  (match inputs with
  | Ne points ->
    List.iter
      (fun p ->
        Buffer.add_string b p.label;
        Array.iter (fun c -> Buffer.add_string b (" " ^ E.digest c)) p.configs;
        Buffer.add_char b '\n')
      points
  | Churn_in inputs ->
    List.iter
      (fun i ->
        Buffer.add_string b (E.digest i.config ^ "\n");
        Buffer.add_string b (Workload.Schedule.to_string i.schedule))
      inputs
  | Evolve jobs ->
    List.iter
      (fun j ->
        Printf.bprintf b "%s seed=%d cache=%s\n" (Sim_backend.name j.backend)
          j.seed (Filename.basename j.cache_dir))
      jobs);
  Buffer.contents b

let schedule_items = function
  | Churn_in inputs ->
    List.fold_left (fun n i -> n + Workload.Schedule.count i.schedule) 0 inputs
  | Ne _ | Evolve _ -> 0

(* ---------------------------------------------------------------------- *)
(* Output checks and digests *)

let capacity_slack = 1.01 (* the fuzzer's backend-capacity tolerance *)
let finite x = Float.is_finite x

let check_result ~label (r : E.result) =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := (label ^ ": " ^ s) :: !fails) fmt in
  let cap = (r.config.rate_bps :> float) in
  let total =
    List.fold_left
      (fun acc (f : E.flow_result) ->
        if not (finite f.throughput_bps && f.throughput_bps >= 0.0) then
          fail "flow %d goodput %g" f.flow_id f.throughput_bps;
        acc +. f.throughput_bps)
      0.0 r.per_flow
  in
  if total > cap *. capacity_slack then fail "goodput %g > capacity %g" total cap;
  if not (finite r.utilization && r.utilization >= 0.0 && r.utilization <= 1.0)
  then fail "utilization %g" r.utilization;
  if not (finite r.queuing_delay && r.queuing_delay >= 0.0) then
    fail "queuing delay %g" r.queuing_delay;
  if r.workload_completed > r.workload_arrived then
    fail "%d completions > %d arrivals" r.workload_completed r.workload_arrived;
  if r.workload_delivered_bytes *. 8.0
     > cap *. (r.config.duration :> float) *. capacity_slack
  then fail "short flows delivered %g bytes" r.workload_delivered_bytes;
  List.iter
    (fun (c : E.completion) ->
      if not (finite c.cp_fct && c.cp_fct > 0.0) then
        fail "item %d fct %g" c.cp_item c.cp_fct)
    r.completions;
  List.rev !fails

let result_text (r : E.result) =
  let b = Buffer.create 256 in
  List.iter
    (fun (f : E.flow_result) ->
      Printf.bprintf b "%d:%s:%h:%d:%d " f.flow_id f.flow_cca f.throughput_bps
        f.flow_lost_segments f.flow_retransmitted)
    r.per_flow;
  Printf.bprintf b "q=%h u=%h d=%d a=%d c=%d v=%h" r.queuing_delay
    r.utilization r.drops r.workload_arrived r.workload_completed
    r.workload_delivered_bytes;
  List.iter
    (fun (c : E.completion) -> Printf.bprintf b " %d:%h" c.cp_item c.cp_fct)
    r.completions;
  Buffer.contents b

(* ---------------------------------------------------------------------- *)
(* ne-longflows: the adaptive search, shared by the timed and traced runs *)

type probe = { k : int; result : E.result }
type ne_out = { point : ne_point; ne : int list; probes : probe list }

let search p ~simulate =
  let probes = ref [] in
  let payoff =
    Experiments.Ne_search.memoize (fun k ->
        let result = simulate p.configs.(k) in
        probes := { k; result } :: !probes;
        ( E.mean_throughput_of_cca result "cubic",
          E.mean_throughput_of_cca result "bbr" ))
  in
  let fair_bps = (Units.mbps p.mbps :> float) /. float_of_int ne_n in
  let ne =
    Experiments.Ne_search.observed_equilibria ~epsilon:0.02 ~n:ne_n ~fair_bps
      ~payoff ~window:2 ()
  in
  { point = p; ne; probes = List.rev !probes }

(* Relative distance of each probe's per-flow BBR goodput from the model's
   predicted interval (0 inside it), for probes with at least one BBR
   flow. *)
let model_errors outs =
  List.concat_map
    (fun o ->
      let params =
        Ccmodel.Params.of_paper_units ~mbps:o.point.mbps
          ~buffer_bdp:o.point.buffer_bdp ~rtt_ms:o.point.rtt_ms
      in
      List.filter_map
        (fun pr ->
          if pr.k = 0 then None
          else
            let iv =
              Ccmodel.Multi_flow.per_flow_bbr_interval params
                ~n_cubic:(ne_n - pr.k) ~n_bbr:pr.k
            in
            let lo =
              Float.min iv.lower_bbr_per_flow_bps iv.upper_bbr_per_flow_bps
            and hi =
              Float.max iv.lower_bbr_per_flow_bps iv.upper_bbr_per_flow_bps
            in
            let bbr = E.mean_throughput_of_cca pr.result "bbr" in
            Some
              (if bbr < lo then (lo -. bbr) /. lo
               else if bbr > hi then (bbr -. hi) /. hi
               else 0.0))
        o.probes)
    outs

let ne_text outs =
  String.concat "\n"
    (List.map
       (fun o ->
         Printf.sprintf "%s ne=%s\n%s" o.point.label
           (String.concat "," (List.map string_of_int o.ne))
           (String.concat "\n"
              (List.map
                 (fun pr -> Printf.sprintf "k=%d %s" pr.k (result_text pr.result))
                 o.probes)))
       outs)

let ne_checks outs =
  List.concat_map
    (fun o ->
      let label = o.point.label in
      (if o.ne = [] then [ label ^ ": empty NE list" ]
       else
         List.filter_map
           (fun k ->
             if k < 0 || k > ne_n then Some (Printf.sprintf "%s: NE k=%d" label k)
             else None)
           o.ne)
      @ List.concat_map
          (fun pr ->
            check_result ~label:(Printf.sprintf "%s k=%d" label pr.k) pr.result)
          o.probes)
    outs

(* ---------------------------------------------------------------------- *)
(* analytic-evolve outputs *)

let parse_share cell =
  match float_of_string_opt cell with
  | Some v when finite v && v >= 0.0 && v <= 1.0 -> true
  | _ -> false

let evolve_table_checks ~label (t : Common.table) =
  if t.rows = [] then [ label ^ ": no trajectory rows" ]
  else
    List.concat_map
      (fun row ->
        match row with
        | _ :: _ :: gen :: share :: by_class :: residual :: _ ->
          let bad what cell =
            Printf.sprintf "%s gen %s: %s %S" label gen what cell
          in
          (if parse_share share then [] else [ bad "bbr_share" share ])
          @ (if List.for_all parse_share (String.split_on_char '/' by_class)
             then []
             else [ bad "class shares" by_class ])
          @
          (match float_of_string_opt residual with
          | Some r when finite r && r >= 0.0 -> []
          | _ -> [ bad "ne_residual" residual ])
        | _ -> [ label ^ ": short row" ])
      t.rows

let outcome_checks (b : Probes.batch) =
  List.concat
    (List.mapi
       (fun i (o : Sim_backend.outcome option) ->
         match o with
         | None -> [ "backend: spec rejected" ]
         | Some o ->
           let spec = b.b_specs.(i) in
           let cap = (spec.Sim_backend.rate_bps :> float) in
           let total = Array.fold_left ( +. ) 0.0 o.per_flow_bps in
           if not (Array.for_all (fun x -> finite x && x >= 0.0) o.per_flow_bps)
           then [ "backend: non-finite goodput" ]
           else if total > cap *. capacity_slack then
             [ Printf.sprintf "backend: goodput %g > capacity %g" total cap ]
           else [])
       (Array.to_list b.b_outcomes))

(* Data segments the analytic outcomes stand for: goodput over each spec's
   measurement window, in MSS units. *)
let segment_equivalents batches =
  List.fold_left
    (fun acc (b : Probes.batch) ->
      let s = ref acc in
      Array.iteri
        (fun i o ->
          match o with
          | None -> ()
          | Some (o : Sim_backend.outcome) ->
            let spec = b.b_specs.(i) in
            let window =
              (spec.Sim_backend.duration :> float)
              -. (spec.Sim_backend.warmup :> float)
            in
            s :=
              !s
              +. Array.fold_left ( +. ) 0.0 o.per_flow_bps
                 *. window /. 8.0
                 /. float_of_int Units.mss)
        b.b_outcomes;
      !s)
    0.0 batches

let specs_run batches =
  List.fold_left (fun n (b : Probes.batch) -> n + Array.length b.b_specs) 0 batches

let run_evolve_job ~ctx ~backend (j : evolve_job) =
  Experiments.Adoption.run_with ~backend ~seed:j.seed ~spot_checks:0 ctx

let evolve_label j = Printf.sprintf "%s/seed %d" (Sim_backend.name j.backend) j.seed

(* ---------------------------------------------------------------------- *)
(* Checked outputs, shared by the timed unit and the replay *)

type checked = { digest : string; failures : string list; items : int }

let digest_of text = Digest.to_hex (Digest.string text)

let checked_ne outs =
  {
    digest = digest_of (ne_text outs);
    failures = ne_checks outs;
    items = List.fold_left (fun n o -> n + 1 + List.length o.probes) 0 outs;
  }

let checked_churn results =
  {
    digest = digest_of (String.concat "\n" (List.map result_text results));
    failures =
      List.concat
        (List.mapi
           (fun i r -> check_result ~label:(Printf.sprintf "config %d" i) r)
           results);
    items = List.length results;
  }

let checked_evolve outs =
  {
    digest =
      digest_of
        (String.concat "\n"
           (List.map (fun (_, t, _) -> Common.csv_of_table t) outs));
    failures =
      List.concat_map
        (fun (j, t, batches) ->
          evolve_table_checks ~label:(evolve_label j) t
          @ List.concat_map outcome_checks batches)
        outs;
    items = List.length outs;
  }

(* ---------------------------------------------------------------------- *)
(* One timed repetition *)

type outcome = {
  check : checked;
  runs : int;
  segments : float;
  job_ns : int list;
}

let ccas = [ "cubic"; "bbr" ]

let cc_sends probe =
  List.fold_left (fun n t -> n + t.Probes.sends) 0 (Probes.cc_totals probe)

(* Backend busy time per worker over several driver calls. Each call
   spawns its own worker domains, so a call's per-domain loads are ranked
   (busiest first, idle workers as 0) and summed rank by rank. *)
let worker_loads ~jobs calls =
  List.fold_left
    (fun acc batches ->
      let busy = Hashtbl.create 4 in
      List.iter
        (fun (b : Probes.batch) ->
          Hashtbl.replace busy b.b_domain
            (b.b_ns + Option.value (Hashtbl.find_opt busy b.b_domain) ~default:0))
        batches;
      let ranked =
        List.sort (fun a b -> compare b a) (List.of_seq (Hashtbl.to_seq_values busy))
      in
      List.mapi
        (fun i total -> total + Option.value (List.nth_opt ranked i) ~default:0)
        acc)
    (List.init jobs (fun _ -> 0))
    calls

(* One repetition. [probed] installs the counting probes: CCA wrappers
   that count [on_send] calls, and a logging backend wrapper. Without it
   the unit runs on the program's own CCAs and backends, and only its
   checked outputs are known. *)
let unit ~probed inputs =
  let with_cc_counts f =
    if probed then
      Probes.with_ccas Probes.Count_sends ccas (fun p -> f (fun () -> cc_sends p))
    else f (fun () -> 0)
  in
  match inputs with
  | Ne points ->
    with_cc_counts (fun sends ->
        let simulate c =
          match Runs.eval Common.quick [ c ] with [ r ] -> r | _ -> assert false
        in
        let timed =
          Sim_engine.Exec.map_list ~jobs
            (fun p -> Clock.time_ns (fun () -> search p ~simulate))
            points
        in
        let outs = List.map snd timed in
        {
          check = checked_ne outs;
          runs = List.fold_left (fun n o -> n + List.length o.probes) 0 outs;
          segments = float_of_int (sends ());
          job_ns = List.map fst timed;
        })
  | Churn_in inputs ->
    with_cc_counts (fun sends ->
        let results =
          Runs.eval (Common.ctx ~jobs Common.Quick)
            (List.map (fun i -> i.config) inputs)
        in
        {
          check = checked_churn results;
          runs = List.length results;
          segments = float_of_int (sends ());
          job_ns = [];
        })
  | Evolve jobs_in ->
    let outs =
      List.map
        (fun j ->
          if probed then begin
            let backend, probe = Probes.backend j.backend in
            let table = run_evolve_job ~ctx:j.ctx ~backend j in
            (j, table, Probes.batches probe)
          end
          else (j, run_evolve_job ~ctx:j.ctx ~backend:j.backend j, []))
        jobs_in
    in
    let batches = List.concat_map (fun (_, _, b) -> b) outs in
    {
      check = checked_evolve outs;
      runs = specs_run batches;
      segments = segment_equivalents batches;
      job_ns = worker_loads ~jobs (List.map (fun (_, _, b) -> b) outs);
    }

let run_unit inputs = (unit ~probed:false inputs).check
let count_unit inputs = unit ~probed:true inputs

(* ---------------------------------------------------------------------- *)
(* The traced run *)

type sim_stats = {
  result : E.result;
  setup_ns : int;
  simulate_ns : int;
  finish_ns : int;
  minor_words : float;  (** During [Sim.run]. *)
  cc_sends : int;  (** CCA [on_send] calls during the run. *)
  hub_sends : int;  (** Sends seen by the trace sink; 0 without a hub. *)
  retransmits : int;  (** From the trace sink, like [rto_fires]. *)
  rto_fires : int;
  records : int;
  pending_sum : float;
  pending_samples : int;
  churn_arrived : int;
  churn_slots : int;
  schedule_text : string option;
}

(* Replay one packet config through Experiment.setup, Sim.run on the live
   simulator, and Experiment.finish, each in its own span. [traced] runs
   step the clock in 10 ms slices to sample the engine's pending-event
   count and record the CCA time accrued during the run (the [probe] must
   time calls) as [cc.<name>] children of the [tcpflow.simulate] span.
   [hub] adds a trace hub with a counting sink, its set-up and final
   rollup spanned as layer [trace]. *)
let replay_config sp ~probe ~traced ~hub (config : E.config) =
  let key = E.digest config in
  let hub, sink =
    if not hub then (None, None)
    else
      Spans.with_span sp ~name:"trace.hub" ~key (fun () ->
          let hub = Sim_engine.Trace.create () in
          ( Some hub,
            Some (Probes.Sink.attach hub ~rate_bps:(config.rate_bps :> float)) ))
  in
  let span name f =
    let t0 = Clock.now_ns () in
    let r = Spans.with_span sp ~name ~key f in
    (Clock.now_ns () - t0, r)
  in
  let setup_ns, live = span "tcpflow.setup" (fun () -> E.setup ?trace:hub config) in
  let sim = E.live_sim live in
  let duration = (config.duration :> float) in
  let pending_sum = ref 0.0 and pending_samples = ref 0 in
  let before = Probes.cc_totals probe in
  let simulate_ns, minor_words =
    span "tcpflow.simulate" (fun () ->
        let t0 = Clock.now_ns () in
        let w0 = Gc.minor_words () in
        (if not traced then Sim_engine.Sim.run ~until:duration sim
         else begin
          let steps = max 1 (int_of_float (duration /. 0.01)) in
          for i = 1 to steps do
            Sim_engine.Sim.run
              ~until:(duration *. float_of_int i /. float_of_int steps)
              sim;
            pending_sum :=
              !pending_sum +. float_of_int (Sim_engine.Sim.pending_events sim);
            incr pending_samples
          done
        end);
        let words = Gc.minor_words () -. w0 in
        if traced then
          (* Lay the accrued CCA time out as consecutive child intervals
             from the start of the run; their total never exceeds it. *)
          ignore
            (List.fold_left2
               (fun start (b : Probes.cc_totals) (a : Probes.cc_totals) ->
                 let stop = start + (a.call_ns - b.call_ns) in
                 Spans.add sp ~name:("cc." ^ a.cc_name) ~key ~start_ns:start
                   ~stop_ns:stop ();
                 stop)
               t0 before (Probes.cc_totals probe)
              : int);
        words)
  in
  let after = Probes.cc_totals probe in
  let finish_ns, result = span "tcpflow.finish" (fun () -> E.finish live) in
  let m =
    Option.map
      (fun sink ->
        Spans.with_span sp ~name:"trace.rollup" ~key (fun () ->
            Option.iter Sim_engine.Trace.close hub;
            Probes.Sink.metrics sink))
      sink
  in
  let get f = match m with Some m -> f m | None -> 0 in
  let churn = E.live_churn live in
  {
    result;
    setup_ns;
    simulate_ns;
    finish_ns;
    minor_words;
    cc_sends =
      List.fold_left2
        (fun n (b : Probes.cc_totals) (a : Probes.cc_totals) ->
          n + a.sends - b.sends)
        0 before after;
    hub_sends = get (fun m -> m.Sim_engine.Trace.Metrics.sends);
    retransmits = get (fun m -> m.retransmits);
    rto_fires = get (fun m -> m.rto_fires);
    records = (match sink with Some s -> Probes.Sink.records s | None -> 0);
    pending_sum = !pending_sum;
    pending_samples = !pending_samples;
    churn_arrived = (match churn with Some c -> Tcpflow.Churn.arrived c | None -> 0);
    churn_slots =
      (match churn with Some c -> Tcpflow.Churn.slots_created c | None -> 0);
    schedule_text =
      Option.map
        (fun c -> Workload.Schedule.to_string (Tcpflow.Churn.schedule c))
        churn;
  }

type replay = {
  r_check : checked;
  r_wall_ns : int;
  r_spans : Spans.span list;
  r_sims : sim_stats list;
  r_batches : Probes.batch list;
  r_probe_ns : int list;
  r_model_err : float list;
}

(* Replay a workload's inputs sequentially on one domain: the traced run,
   or with [traced = false] its untraced reference. A full event trace
   costs several times the simulation itself, so the traced run attaches
   a hub only to the first simulation of each grid point (ne-longflows)
   or of the config list (churn). *)
let replay ~probe ~traced inputs =
  let sp = Spans.create () in
  let sims = ref [] in
  let probe_ns = ref [] in
  let timed f =
    let t0 = Clock.now_ns () in
    let r = f () in
    probe_ns := (Clock.now_ns () - t0) :: !probe_ns;
    r
  in
  let simulate ~first config =
    let s =
      timed (fun () ->
          replay_config sp ~probe ~traced ~hub:(traced && first) config)
    in
    sims := s :: !sims;
    s.result
  in
  let t0 = Clock.now_ns () in
  let check, batches, model_err =
    Spans.with_span sp ~name:"bench.replay" (fun () ->
        match inputs with
        | Ne points ->
          let outs =
            List.map
              (fun p ->
                let first = ref true in
                Spans.with_span sp ~name:"experiments.point" ~key:p.label
                  (fun () ->
                    search p ~simulate:(fun c ->
                        Spans.with_span sp ~name:"experiments.probe"
                          ~key:(E.digest c) (fun () ->
                            let r = simulate ~first:!first c in
                            first := false;
                            r))))
              points
          in
          (checked_ne outs, [], model_errors outs)
        | Churn_in inputs ->
          let results =
            List.mapi
              (fun n i ->
                Spans.with_span sp ~name:"experiments.config"
                  ~key:(E.digest i.config) (fun () ->
                    simulate ~first:(n = 0) i.config))
              inputs
          in
          (checked_churn results, [], [])
        | Evolve jobs ->
          let outs =
            List.map
              (fun j ->
                let backend, bprobe = Probes.backend ~spans:sp j.backend in
                let table =
                  timed (fun () ->
                      Spans.with_span sp ~name:"experiments.adoption"
                        ~key:(evolve_label j) (fun () ->
                          run_evolve_job ~ctx:(Common.sequential j.ctx)
                            ~backend j))
                in
                (j, table, Probes.batches bprobe))
              jobs
          in
          ( checked_evolve outs,
            List.concat_map (fun (_, _, b) -> b) outs,
            [] ))
  in
  let wall = Clock.now_ns () - t0 in
  let sims = List.rev !sims in
  let schedule_failures =
    match inputs with
    | Churn_in ins ->
      List.concat
        (List.mapi
           (fun i (input, s) ->
             if
               s.schedule_text
               = Some (Workload.Schedule.to_string input.schedule)
             then []
             else
               [ Printf.sprintf "config %d: churn schedule differs from setup's" i ])
           (List.combine ins sims))
    | Ne _ | Evolve _ -> []
  in
  {
    r_check = { check with failures = check.failures @ schedule_failures };
    r_wall_ns = wall;
    r_spans = Spans.spans sp;
    r_sims = sims;
    r_batches = batches;
    r_probe_ns = List.rev !probe_ns;
    r_model_err = model_err;
  }
