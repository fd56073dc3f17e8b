(** Periodic polling of queue state into {!Sim_engine.Timeseries} traces.

    Experiments use these traces to measure the model's buffer-occupancy
    quantities (b_c, b_b, b_cmin, b_cmax) and the shared queuing delay. *)

type t

val create :
  sim:Sim_engine.Sim.t ->
  queue:Droptail_queue.t ->
  period:float ->
  ?flow_classes:(string * int list) list ->
  unit ->
  t
(** Starts sampling immediately and then every [period] seconds. Each sample
    records total occupancy plus one series per named flow class: the
    bytes queued for the class's member flow ids, so a tick costs
    O(members), however many other flows the queue has seen. *)

val stop : t -> unit

val total : t -> Sim_engine.Timeseries.t
(** Total queue occupancy in bytes over time. *)

val class_series : t -> string -> Sim_engine.Timeseries.t
(** Occupancy series of a named flow class. Raises [Not_found] if the class
    was not registered. *)

val queuing_delay : t -> rate_bps:float -> from_:float -> until:float -> float
(** Time-weighted mean queuing delay over the window: mean occupancy divided
    by drain rate. *)
