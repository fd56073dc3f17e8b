(** Data packets traversing the forward path of the simulated network.

    Only data packets are modelled as queue-occupying objects; ACKs travel on
    the uncongested reverse path, where the delivered packet itself stands
    for its ACK (see {!Dumbbell}), matching the paper's single-bottleneck
    setup where the ACK path is never the bottleneck.

    The [delivered]/[delivered_time]/[app_limited] fields snapshot the
    sender's delivery state at transmission time; they implement the delivery
    rate estimator that BBR's bandwidth filter consumes. *)

(** Fields are mutable so the transport can recycle acknowledged packets
    through a free pool (see {!Tcpflow.Sender}); only the owning sender may
    mutate a packet, and only once no queue or lane references it. *)
type t = {
  mutable flow : int;  (** Flow identifier, unique within an experiment. *)
  mutable seq : int;  (** Segment sequence number (in MSS units). *)
  mutable size : int;  (** Wire size in bytes. *)
  mutable retransmit : bool;  (** True when this is a retransmission. *)
  mutable sent_time : float;
      (** Time this (re)transmission left the sender. *)
  mutable delivered : float;
      (** Bytes the sender had cumulatively delivered when this packet was
          sent. *)
  mutable delivered_time : float;
      (** Time of the most recent delivery when this packet was sent. *)
  mutable app_limited : bool;
      (** Whether the sender was application-limited at send time. *)
}

val make :
  flow:int ->
  seq:int ->
  size:int ->
  retransmit:bool ->
  sent_time:float ->
  delivered:float ->
  delivered_time:float ->
  app_limited:bool ->
  t

val dummy : t
(** Placeholder packet ([flow = -1]) filling empty calendar-lane ring
    cells; it never enters the network. *)

val pp : Format.formatter -> t -> unit
