module Cc = Cca.Cc_types

type cc_mode = Count_sends | Time_calls

type cc_totals = {
  cc_name : string;
  instances : int;
  sends : int;
  calls : int;
  call_ns : int;
}

type counter = { mutable c_sends : int; mutable c_calls : int; mutable c_ns : int }

type cc_probe = {
  names : string list;
  lock : Mutex.t;
  mutable counters : (string * counter) list;
}

let count_sends c (cc : Cc.t) =
  {
    cc with
    Cc.on_send =
      (fun ~now ~inflight_bytes ->
        c.c_sends <- c.c_sends + 1;
        cc.Cc.on_send ~now ~inflight_bytes);
  }

let time_calls c (cc : Cc.t) =
  let timed f =
    let t0 = Clock.now_ns () in
    let r = f () in
    c.c_ns <- c.c_ns + (Clock.now_ns () - t0);
    c.c_calls <- c.c_calls + 1;
    r
  in
  {
    Cc.name = cc.Cc.name;
    on_ack = (fun a -> timed (fun () -> cc.Cc.on_ack a));
    on_loss = (fun l -> timed (fun () -> cc.Cc.on_loss l));
    on_send =
      (fun ~now ~inflight_bytes ->
        c.c_sends <- c.c_sends + 1;
        timed (fun () -> cc.Cc.on_send ~now ~inflight_bytes));
    cwnd_bytes = (fun () -> timed cc.Cc.cwnd_bytes);
    pacing_rate = (fun () -> timed cc.Cc.pacing_rate);
    state = (fun () -> timed cc.Cc.state);
  }

let cc_totals p =
  let snapshot = Mutex.protect p.lock (fun () -> p.counters) in
  List.map
    (fun name ->
      List.fold_left
        (fun acc (n, c) ->
          if String.equal n name then
            {
              acc with
              instances = acc.instances + 1;
              sends = acc.sends + c.c_sends;
              calls = acc.calls + c.c_calls;
              call_ns = acc.call_ns + c.c_ns;
            }
          else acc)
        { cc_name = name; instances = 0; sends = 0; calls = 0; call_ns = 0 }
        snapshot)
    p.names

let with_ccas mode names f =
  let originals =
    List.map
      (fun name ->
        match Cca.Registry.find name with
        | Some ctor -> (name, ctor)
        | None -> invalid_arg ("Probes.with_ccas: unknown CCA " ^ name))
      names
  in
  let p = { names; lock = Mutex.create (); counters = [] } in
  List.iter
    (fun (name, ctor) ->
      Cca.Registry.register name (fun ~mss ~rng ->
          let cc = ctor ~mss ~rng in
          let c = { c_sends = 0; c_calls = 0; c_ns = 0 } in
          Mutex.protect p.lock (fun () -> p.counters <- (name, c) :: p.counters);
          match mode with
          | Count_sends -> count_sends c cc
          | Time_calls -> time_calls c cc))
    originals;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (name, ctor) -> Cca.Registry.register name ctor) originals)
    (fun () -> f p)

type batch = {
  b_specs : Sim_backend.spec array;
  b_digests : string array;
  b_outcomes : Sim_backend.outcome option array;
  b_ns : int;
  b_domain : int;
}

type backend_probe = { b_lock : Mutex.t; mutable log : batch list }

let batches p = List.rev (Mutex.protect p.b_lock (fun () -> p.log))

let backend ?spans (inner : Sim_backend.t) =
  let module B = (val inner : Sim_backend.S) in
  let p = { b_lock = Mutex.create (); log = [] } in
  let record ~span_name specs call =
    let digests =
      match spans with Some _ -> Array.map B.digest specs | None -> [||]
    in
    let key = if Array.length digests > 0 then digests.(0) else "" in
    let go () = Clock.time_ns call in
    let ns, results =
      match spans with
      | Some sp -> Spans.with_span sp ~name:span_name ~key go
      | None -> go ()
    in
    let b =
      {
        b_specs = specs;
        b_digests = digests;
        b_outcomes = Array.map Result.to_option results;
        b_ns = ns;
        b_domain = (Domain.self () :> int);
      }
    in
    Mutex.protect p.b_lock (fun () -> p.log <- b :: p.log);
    results
  in
  let module W = struct
    let name = B.name
    let supports = B.supports
    let validate = B.validate
    let digest = B.digest

    let run spec =
      (record ~span_name:"backend.run" [| spec |] (fun () -> [| B.run spec |])).(0)

    let run_batch specs =
      record ~span_name:"backend.run_batch" specs (fun () -> B.run_batch specs)
  end in
  ((module W : Sim_backend.S), p)

module Sink = struct
  type t = { mutable records : int; metrics : Sim_engine.Trace.Metrics.t }

  let attach hub ~rate_bps =
    let t =
      { records = 0; metrics = Sim_engine.Trace.Metrics.create ~rate_bps () }
    in
    Sim_engine.Trace.subscribe hub (fun r ->
        t.records <- t.records + 1;
        Sim_engine.Trace.Metrics.observe t.metrics r);
    t

  let records t = t.records
  let metrics t = Sim_engine.Trace.Metrics.summary t.metrics
end
