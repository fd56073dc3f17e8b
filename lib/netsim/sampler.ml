type t = {
  sim : Sim_engine.Sim.t;
  queue : Droptail_queue.t;
  period : float;
  total : Sim_engine.Timeseries.t;
  classes : (string * int list * Sim_engine.Timeseries.t) list;
  mutable running : bool;
  mutable tick_cb : unit -> unit;
      (* Allocated once; rescheduling a periodic tick reuses it instead of
         closing over [t] afresh every period. *)
}

let rec class_bytes queue acc = function
  | [] -> acc
  | flow :: rest ->
    class_bytes queue (acc + Droptail_queue.occupancy_of_flow queue flow) rest

let rec record_classes t now = function
  | [] -> ()
  | (_, flows, series) :: rest ->
    Sim_engine.Timeseries.record series ~time:now
      (float_of_int (class_bytes t.queue 0 flows));
    record_classes t now rest

let sample t =
  let now = Sim_engine.Sim.now t.sim in
  Sim_engine.Timeseries.record t.total ~time:now
    (float_of_int (Droptail_queue.occupancy_bytes t.queue));
  record_classes t now t.classes

let tick t =
  if t.running then begin
    sample t;
    ignore (Sim_engine.Sim.schedule t.sim ~delay:t.period t.tick_cb)
  end

let create ~sim ~queue ~period ?(flow_classes = []) () =
  if period <= 0.0 then invalid_arg "Sampler.create: period";
  let classes =
    List.map
      (fun (name, flows) -> (name, flows, Sim_engine.Timeseries.create ()))
      flow_classes
  in
  let t =
    { sim; queue; period; total = Sim_engine.Timeseries.create (); classes;
      running = true; tick_cb = ignore }
  in
  t.tick_cb <- (fun () -> tick t);
  tick t;
  t

let stop t = t.running <- false
let total t = t.total

let class_series t name =
  match List.find_opt (fun (n, _, _) -> n = name) t.classes with
  | Some (_, _, series) -> series
  | None -> raise Not_found

let queuing_delay t ~rate_bps ~from_ ~until =
  let mean_bytes = Sim_engine.Timeseries.time_weighted_mean t.total ~from_ ~until in
  mean_bytes *. Sim_engine.Units.bits_per_byte /. rate_bps
