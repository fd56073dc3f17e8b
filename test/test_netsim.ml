open Netsim
module Sim = Sim_engine.Sim

let mk_packet ?(flow = 0) ?(seq = 0) ?(size = 1500) () =
  Packet.make ~flow ~seq ~size ~retransmit:false ~sent_time:0.0 ~delivered:0.0
    ~delivered_time:0.0 ~app_limited:false

(* --- Droptail_queue --- *)

let test_fifo_order () =
  let q = Droptail_queue.create ~capacity_bytes:10_000 () in
  for seq = 0 to 4 do
    match Droptail_queue.enqueue q (mk_packet ~seq ()) with
    | Droptail_queue.Enqueued -> ()
    | Droptail_queue.Dropped -> Alcotest.fail "unexpected drop"
  done;
  for seq = 0 to 4 do
    match Droptail_queue.dequeue q with
    | Some p -> Alcotest.(check int) "fifo" seq p.Packet.seq
    | None -> Alcotest.fail "missing packet"
  done

let test_capacity_drop () =
  let q = Droptail_queue.create ~capacity_bytes:3000 () in
  Alcotest.(check bool) "first fits" true
    (Droptail_queue.enqueue q (mk_packet ()) = Droptail_queue.Enqueued);
  Alcotest.(check bool) "second fits" true
    (Droptail_queue.enqueue q (mk_packet ()) = Droptail_queue.Enqueued);
  Alcotest.(check bool) "third dropped" true
    (Droptail_queue.enqueue q (mk_packet ()) = Droptail_queue.Dropped);
  Alcotest.(check int) "drop count" 1 (Droptail_queue.drops q);
  Alcotest.(check int) "dropped bytes" 1500 (Droptail_queue.dropped_bytes q)

let test_occupancy_accounting () =
  let q = Droptail_queue.create ~capacity_bytes:100_000 () in
  ignore (Droptail_queue.enqueue q (mk_packet ~flow:0 ~size:1000 ()));
  ignore (Droptail_queue.enqueue q (mk_packet ~flow:1 ~size:2000 ()));
  ignore (Droptail_queue.enqueue q (mk_packet ~flow:0 ~size:500 ()));
  Alcotest.(check int) "total" 3500 (Droptail_queue.occupancy_bytes q);
  Alcotest.(check int) "flow 0" 1500 (Droptail_queue.occupancy_of_flow q 0);
  Alcotest.(check int) "flow 1" 2000 (Droptail_queue.occupancy_of_flow q 1);
  Alcotest.(check int) "class" 1500
    (List.fold_left
       (fun acc f -> acc + Droptail_queue.occupancy_of_flow q f)
       0 [ 0; 2 ]);
  ignore (Droptail_queue.dequeue q);
  Alcotest.(check int) "flow 0 after dequeue" 500
    (Droptail_queue.occupancy_of_flow q 0)

let test_drop_hook () =
  let q = Droptail_queue.create ~capacity_bytes:1500 () in
  let dropped = ref [] in
  Droptail_queue.set_drop_hook q (fun ~early:_ p ->
      dropped := p.Packet.seq :: !dropped);
  ignore (Droptail_queue.enqueue q (mk_packet ~seq:1 ()));
  ignore (Droptail_queue.enqueue q (mk_packet ~seq:2 ()));
  Alcotest.(check (list int)) "hook saw seq 2" [ 2 ] !dropped

let test_empty_queue () =
  let q = Droptail_queue.create ~capacity_bytes:1500 () in
  Alcotest.(check bool) "is_empty" true (Droptail_queue.is_empty q);
  Alcotest.(check bool) "dequeue none" true (Option.is_none (Droptail_queue.dequeue q))

let prop_byte_conservation =
  QCheck.Test.make ~name:"enqueued = dequeued + dropped + queued" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 100) (int_range 100 3000))
    (fun sizes ->
      let q = Droptail_queue.create ~capacity_bytes:10_000 () in
      let enqueued = ref 0 in
      List.iteri
        (fun seq size ->
          match Droptail_queue.enqueue q (mk_packet ~seq ~size ()) with
          | Droptail_queue.Enqueued -> enqueued := !enqueued + size
          | Droptail_queue.Dropped -> ())
        sizes;
      let dequeued = ref 0 in
      (* dequeue half *)
      for _ = 1 to List.length sizes / 2 do
        match Droptail_queue.dequeue q with
        | Some p -> dequeued := !dequeued + p.Packet.size
        | None -> ()
      done;
      !enqueued = !dequeued + Droptail_queue.occupancy_bytes q)

(* --- Link --- *)

let test_link_serialization () =
  let sim = Sim.create () in
  let q = Droptail_queue.create ~capacity_bytes:1_000_000 () in
  let delivered = ref [] in
  let link =
    Link.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~queue:q ~deliver:(fun p ->
        delivered := (Sim.now sim, p.Packet.seq) :: !delivered)
  in
  for seq = 0 to 2 do
    ignore (Droptail_queue.enqueue q (mk_packet ~seq ()))
  done;
  Link.kick link;
  Sim.run sim;
  (* 1500 B at 12 Mbps = 1 ms per packet *)
  match List.rev !delivered with
  | [ (t1, 0); (t2, 1); (t3, 2) ] ->
    Alcotest.(check (float 1e-9)) "1st at 1ms" 0.001 t1;
    Alcotest.(check (float 1e-9)) "2nd at 2ms" 0.002 t2;
    Alcotest.(check (float 1e-9)) "3rd at 3ms" 0.003 t3
  | _ -> Alcotest.fail "wrong delivery sequence"

let test_link_counters () =
  let sim = Sim.create () in
  let q = Droptail_queue.create ~capacity_bytes:1_000_000 () in
  let link = Link.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~queue:q ~deliver:ignore in
  for seq = 0 to 4 do
    ignore (Droptail_queue.enqueue q (mk_packet ~seq ()))
  done;
  Link.kick link;
  Sim.run sim;
  Alcotest.(check int) "packets" 5 (Link.delivered_packets link);
  Alcotest.(check int) "bytes" 7500 (Link.delivered_bytes link);
  Alcotest.(check (float 1e-9)) "busy seconds" 0.005 ((Link.busy_seconds link :> float));
  Alcotest.(check bool) "idle at end" false (Link.busy link)

let test_link_kick_idempotent () =
  let sim = Sim.create () in
  let q = Droptail_queue.create ~capacity_bytes:1_000_000 () in
  let count = ref 0 in
  let link = Link.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~queue:q ~deliver:(fun _ -> incr count) in
  ignore (Droptail_queue.enqueue q (mk_packet ()));
  Link.kick link;
  Link.kick link;
  Link.kick link;
  Sim.run sim;
  Alcotest.(check int) "delivered once" 1 !count

(* --- Pipe: a constant-delay hop, as Dumbbell builds its forward and ACK
   paths from (a Sim delivery lane plus a per-packet delay) --- *)

let test_pipe_delay () =
  let sim = Sim.create () in
  let arrival = ref nan in
  let pipe =
    Sim.lane sim ~dummy:Packet.dummy ~deliver:(fun _ -> arrival := Sim.now sim)
  in
  Sim.schedule_packet sim pipe ~delay:0.02 (mk_packet ());
  Alcotest.(check int) "in flight" 1 (Sim.pending_events sim);
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "arrives after delay" 0.02 !arrival;
  Alcotest.(check int) "none in flight" 0 (Sim.pending_events sim)

(* One pipe, delay chosen per flow: the later-sent, shorter-delay packet
   arrives first. *)
let test_pipe_per_flow_delay () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let pipe =
    Sim.lane sim ~dummy:Packet.dummy ~deliver:(fun p ->
        arrivals := (p.Packet.flow, Sim.now sim) :: !arrivals)
  in
  let send (p : Packet.t) =
    Sim.schedule_packet sim pipe ~delay:(if p.flow = 0 then 0.01 else 0.03) p
  in
  send (mk_packet ~flow:1 ());
  send (mk_packet ~flow:0 ());
  Sim.run sim;
  Alcotest.(check (list (pair int (float 1e-12))))
    "per-flow delays"
    [ (0, 0.01); (1, 0.03) ]
    (List.rev !arrivals)

(* --- Dumbbell --- *)

let test_dumbbell_end_to_end () =
  let sim = Sim.create () in
  let net =
    Dumbbell.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~buffer_bytes:1_000_000
      ~flows:[ { Dumbbell.flow = 0; base_rtt = Sim_engine.Units.ms 40.0 } ] ()
  in
  let arrival = ref nan in
  Dumbbell.set_ack_handler net ~flow:0 (fun _ -> arrival := Sim.now sim);
  ignore (Dumbbell.send net (mk_packet ()));
  Sim.run sim;
  (* serialization 1 ms + one-way 20 ms out + 20 ms back *)
  Alcotest.(check (float 1e-9)) "ACK time" 0.041 !arrival

(* Flows of 40 and 80 ms share the link: each ACK handler fires at the
   packet's serialization end plus its own base RTT, whatever the order
   the packets were sent in. *)
let test_dumbbell_per_flow_delay () =
  let sim = Sim.create () in
  let net =
    Dumbbell.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~buffer_bytes:1_000_000
      ~flows:
        [
          { Dumbbell.flow = 0; base_rtt = Sim_engine.Units.ms 40.0 };
          { Dumbbell.flow = 1; base_rtt = Sim_engine.Units.ms 80.0 };
        ]
      ()
  in
  let acks = ref [] in
  let on_ack (p : Packet.t) = acks := (p.flow, Sim.now sim) :: !acks in
  Dumbbell.set_ack_handler net ~flow:0 on_ack;
  Dumbbell.set_ack_handler net ~flow:1 on_ack;
  ignore (Dumbbell.send net (mk_packet ~flow:1 ()));
  ignore (Dumbbell.send net (mk_packet ~flow:0 ()));
  Sim.run sim;
  Alcotest.(check (list (pair int (float 1e-12))))
    "ACK times"
    [ (0, 0.002 +. 0.04); (1, 0.001 +. 0.08) ]
    (List.rev !acks);
  Alcotest.(check int) "nothing orphaned" 0 (Dumbbell.orphaned net)

let test_dumbbell_orphan () =
  let sim = Sim.create () in
  let net =
    Dumbbell.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~buffer_bytes:1_000_000
      ~flows:[ { Dumbbell.flow = 0; base_rtt = Sim_engine.Units.ms 40.0 } ] ()
  in
  ignore (Dumbbell.send net (mk_packet ~flow:7 ()));
  Sim.run sim;
  Alcotest.(check int) "orphaned" 1 (Dumbbell.orphaned net)

let test_dumbbell_rtt_lookup () =
  let sim = Sim.create () in
  let net =
    Dumbbell.create ~sim ~rate_bps:(Sim_engine.Units.bps 12e6) ~buffer_bytes:1_000_000
      ~flows:
        [
          { Dumbbell.flow = 0; base_rtt = Sim_engine.Units.ms 40.0 };
          { Dumbbell.flow = 1; base_rtt = Sim_engine.Units.ms 80.0 };
        ]
      ()
  in
  Alcotest.(check (float 0.0)) "flow 0" 0.04 ((Dumbbell.base_rtt_of net 0 :> float));
  Alcotest.(check (float 0.0)) "flow 1" 0.08 ((Dumbbell.base_rtt_of net 1 :> float));
  match Dumbbell.base_rtt_of net 9 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

(* --- Sampler --- *)

let test_sampler_series () =
  let sim = Sim.create () in
  let q = Droptail_queue.create ~capacity_bytes:1_000_000 () in
  let sampler =
    Netsim.Sampler.create ~sim ~queue:q ~period:0.01
      ~flow_classes:[ ("even", [ 0; 2 ]) ]
      ()
  in
  ignore (Droptail_queue.enqueue q (mk_packet ~flow:0 ~size:1000 ()));
  ignore (Droptail_queue.enqueue q (mk_packet ~flow:1 ~size:500 ()));
  Sim.run ~until:0.05 sim;
  Netsim.Sampler.stop sampler;
  let total = Netsim.Sampler.total sampler in
  Alcotest.(check bool) "sampled" true (Sim_engine.Timeseries.length total >= 5);
  Alcotest.(check (float 0.0)) "total occupancy" 1500.0
    (Sim_engine.Timeseries.max_value total ());
  let even = Netsim.Sampler.class_series sampler "even" in
  Alcotest.(check (float 0.0)) "class occupancy" 1000.0
    (Sim_engine.Timeseries.max_value even ());
  match Netsim.Sampler.class_series sampler "odd" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown class should raise"

let test_sampler_queuing_delay () =
  let sim = Sim.create () in
  let q = Droptail_queue.create ~capacity_bytes:1_000_000 () in
  ignore (Droptail_queue.enqueue q (mk_packet ~size:12500 ()));
  let sampler = Netsim.Sampler.create ~sim ~queue:q ~period:0.01 () in
  Sim.run ~until:0.1 sim;
  Netsim.Sampler.stop sampler;
  (* 12500 B at 1 Mbps(bytes: 125000 B/s) -> 0.1 s *)
  Alcotest.(check (float 1e-3)) "queuing delay" 0.1
    (Netsim.Sampler.queuing_delay sampler ~rate_bps:1e6 ~from_:0.0 ~until:0.1)

let tests =
  [
    Alcotest.test_case "droptail FIFO" `Quick test_fifo_order;
    Alcotest.test_case "droptail capacity" `Quick test_capacity_drop;
    Alcotest.test_case "droptail occupancy" `Quick test_occupancy_accounting;
    Alcotest.test_case "droptail drop hook" `Quick test_drop_hook;
    Alcotest.test_case "droptail empty" `Quick test_empty_queue;
    QCheck_alcotest.to_alcotest prop_byte_conservation;
    Alcotest.test_case "link serialization" `Quick test_link_serialization;
    Alcotest.test_case "link counters" `Quick test_link_counters;
    Alcotest.test_case "link kick idempotent" `Quick test_link_kick_idempotent;
    Alcotest.test_case "pipe delay" `Quick test_pipe_delay;
    Alcotest.test_case "pipe per-flow delay" `Quick test_pipe_per_flow_delay;
    Alcotest.test_case "dumbbell end-to-end" `Quick test_dumbbell_end_to_end;
    Alcotest.test_case "dumbbell per-flow ACK delay" `Quick
      test_dumbbell_per_flow_delay;
    Alcotest.test_case "dumbbell orphan" `Quick test_dumbbell_orphan;
    Alcotest.test_case "dumbbell rtt lookup" `Quick test_dumbbell_rtt_lookup;
    Alcotest.test_case "sampler series" `Quick test_sampler_series;
    Alcotest.test_case "sampler queuing delay" `Quick test_sampler_queuing_delay;
  ]
