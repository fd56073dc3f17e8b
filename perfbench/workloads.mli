(** The three workloads: their seeded inputs, the timed unit of work, and
    the sequential replay behind the traced run. See NOTES.md. *)

type workload = Ne_longflows | Churn | Analytic_evolve

val jobs : int
(** Worker domains of the timed unit (2). *)

val all : workload list
val name : workload -> string
val of_name : string -> workload option

(** {1 Inputs} *)

type ne_point = {
  label : string;
  mbps : float;
  rtt_ms : float;
  buffer_bdp : float;
  configs : Tcpflow.Experiment.config array;
      (** Index k: k BBR flows and n - k CUBIC flows. *)
}

type churn_input = {
  config : Tcpflow.Experiment.config;
  schedule : Workload.Schedule.t;
      (** The schedule [Experiment.setup] draws for [config]. *)
}

type evolve_job = {
  backend : Sim_backend.t;
  seed : int;
  cache_dir : string;
  ctx : Experiments.Common.ctx;  (** {!jobs} domains, cached in [cache_dir]. *)
}

type inputs =
  | Ne of ne_point list
  | Churn_in of churn_input list
  | Evolve of evolve_job list

val setup : workload -> seed:int -> work_dir:string -> inputs
(** Everything a run needs, built from [seed] alone. For analytic-evolve
    this includes a fresh, empty result cache per job under [work_dir],
    created through [Exec.Cache.create]; the other workloads create no
    file. *)

val fingerprint : inputs -> string
(** Canonical text of the inputs: config digests, churn schedules, evolve
    jobs. Equal seeds give equal text. *)

val prepare : inputs -> unit
(** Empty the cache directories again before a repetition. *)

val release : inputs -> unit
(** Remove what {!prepare} created. *)

val schedule_of : Tcpflow.Experiment.config -> Workload.Schedule.t
(** The churn schedule of a churn config. *)

val schedule_items : inputs -> int

(** {1 The timed unit} *)

type checked = {
  digest : string;  (** Of every checked output, in input order. *)
  failures : string list;  (** Output checks that failed. *)
  items : int;  (** Checked outputs: points and probes, configs, trajectories. *)
}

type outcome = {
  check : checked;
  runs : int;  (** Simulations executed. *)
  segments : float;  (** Data segments simulated (see NOTES.md). *)
  job_ns : int list;
      (** Busy time per worker job where the bench can see it: per grid
          point (ne-longflows), per domain in the backend (analytic-evolve). *)
}

val ccas : string list
(** The CCAs the packet workloads run, wrapped by {!Probes.with_ccas}. *)

val run_unit : inputs -> checked
(** One repetition at {!jobs} domains on the program's own CCAs and
    backends: what [--trace 0] times. *)

val count_unit : inputs -> outcome
(** The same repetition with counting probes installed (CCA [on_send]
    counters, a logging backend wrapper). Its checked digest equals
    {!run_unit}'s, which pins the counts for the unprobed repetitions. *)

(** {1 The replay} *)

type sim_stats = {
  result : Tcpflow.Experiment.result;
  setup_ns : int;
  simulate_ns : int;
  finish_ns : int;
  minor_words : float;  (** During [Sim.run]. *)
  cc_sends : int;  (** CCA [on_send] calls during the run. *)
  hub_sends : int;  (** Sends seen by the trace sink; 0 without a hub. *)
  retransmits : int;  (** From the trace sink, like [rto_fires]. *)
  rto_fires : int;
  records : int;  (** Trace records; 0 without a hub. *)
  pending_sum : float;
  pending_samples : int;
  churn_arrived : int;
  churn_slots : int;
  schedule_text : string option;
}

type replay = {
  r_check : checked;  (** Its digest is comparable with a unit's. *)
  r_wall_ns : int;
  r_spans : Spans.span list;
  r_sims : sim_stats list;
  r_batches : Probes.batch list;
  r_probe_ns : int list;  (** Per driver-level simulation request. *)
  r_model_err : float list;
}

val replay : probe:Probes.cc_probe -> traced:bool -> inputs -> replay
(** Replay the inputs sequentially on one domain under a root
    [bench.replay] span, on caches emptied by {!prepare}. [traced] adds CCA call timing (the probe must be
    a [Time_calls] one), pending-event sampling and a trace hub on the
    first simulation of each grid point or config list. *)

(** {1 Files} *)

val mkdir_p : string -> unit
val rm_rf : string -> unit

val fresh_cache : string -> Sim_engine.Exec.Cache.t
(** An empty result cache at this path. *)
