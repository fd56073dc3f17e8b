(** The paper's topology: N senders share one drop-tail bottleneck; after the
    bottleneck link, packets propagate to per-flow receivers, whose ACKs
    return over an uncongested reverse path.

    Delay budget per flow: the flow's base RTT is split evenly between the
    forward path (after the bottleneck) and the reverse (ACK) path, so a
    packet that never queues experiences exactly [base_rtt] between send and
    ACK, plus its own serialization time.

    The dumbbell owns both hops. Flows with the same one-way delay
    [h = base_rtt / 2] form a delay class that shares one forward and one
    reverse calendar lane (both FIFO: exits leave one serial link in order
    and every hop of a class adds the same [h]). The receiver is internal:
    it turns each arriving packet into an ACK that reaches the sender [h]
    later, at [(t_exit + h) + h], where the flow's ACK handler runs. *)

type t

type flow_spec = { flow : int; base_rtt : Sim_engine.Units.seconds }

val create :
  ?policy:Droptail_queue.policy ->
  ?trace:Sim_engine.Trace.t ->
  sim:Sim_engine.Sim.t ->
  rate_bps:Sim_engine.Units.rate_bps ->
  buffer_bytes:int ->
  flows:flow_spec list ->
  unit ->
  t
(** [policy] defaults to drop-tail (the paper's setting). When [trace] is
    given, every bottleneck drop emits a [Trace.Drop] event (through the
    queue's drop hook, installed at creation) and every successful arrival
    a link-scoped [Trace.Queue_sample] of the resulting occupancy. *)

val sim : t -> Sim_engine.Sim.t
val queue : t -> Droptail_queue.t
val link : t -> Link.t
val rate_bps : t -> Sim_engine.Units.rate_bps

val base_rtt_of : t -> int -> Sim_engine.Units.seconds
(** Base RTT of the given flow id. Raises [Not_found] for unknown flows. *)

val set_ack_handler : t -> flow:int -> (Packet.t -> unit) -> unit
(** Install the flow's ACK handler. It runs when the ACK of each packet the
    flow got through arrives back at the sender, with that packet as
    argument. The handler in place at the ACK instant is the one called.
    Raises [Not_found] for a flow without a registered path. Packets of
    flows without a handler are counted in {!orphaned} and discarded. *)

val ack_handler : t -> flow:int -> (Packet.t -> unit) option
(** The currently installed ACK handler (tests use this to black-hole a
    flow's ACKs and restore them later). *)

val add_flow : t -> flow:int -> base_rtt:Sim_engine.Units.seconds -> unit
(** Register a flow's path mid-simulation (the open-loop workload layer
    attaches each arriving short flow this way). Idempotent per id: a
    re-registration just updates the RTT. Raises [Invalid_argument] for a
    negative id. *)

val remove_flow : t -> flow:int -> unit
(** Tear a flow down: forget its RTT and ACK handler. Packets and ACKs of
    the flow still inside the queue or on either path are counted in
    {!orphaned} at their next hop and discarded — the lifecycle analogue of
    a closed port. *)

val known_flow : t -> flow:int -> bool
(** Whether the flow id currently has a registered path. *)

val send : t -> Packet.t -> Droptail_queue.verdict
(** Inject a packet at the bottleneck; on [Enqueued], its ACK will
    eventually reach the flow's ACK handler. The caller learns of drops
    only through ACK feedback, as in a real network (but the verdict is
    returned for instrumentation). *)

val orphaned : t -> int
(** Packets and ACKs discarded because their flow was unknown or had no
    ACK handler when they reached a hop. *)
