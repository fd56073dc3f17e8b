(** A calendar lane: a ring-buffered FIFO of timestamped deliveries.

    Network elements whose deliveries happen in send order (constant
    per-packet delay) append here instead of the timer heap; {!Sim}
    orders only the heads of non-empty lanes against the timer heap,
    shrinking that heap to O(timers). Entries carry the global (time, seq)
    pair, so the merged schedule is identical to a single heap's. A
    push/pop/deliver cycle allocates nothing: the payload is stored in the
    ring, not captured in a closure.

    Create lanes through {!Sim.lane}; push through {!Sim.schedule_packet},
    which assigns the seq, tracks the lane among the simulator's active
    lanes, and falls back to the heap on FIFO violations. *)

type 'a t

type view = {
  head_time : float array;
      (** Singleton cell: time of the head entry, [infinity] when empty. *)
  mutable head_seq : int;  (** Seq of the head entry, [max_int] when empty. *)
  mutable queued : int;  (** Entries currently in the lane. *)
  mutable pop : unit -> unit;
      (** Take the head entry off the ring and refresh the fields above;
          the payload is held until [deliver_popped]. *)
  mutable deliver_popped : unit -> unit;
      (** Hand the payload the last [pop] took to the lane's callback. The
          callback may push onto this lane or any other. *)
}
(** The simulator-facing face of a lane: what the event loop needs, as
    mutable immediates kept current by [push]/[pop]. Firing is split in
    two so the simulator can re-order its active lanes between the pop
    and the delivery. *)

val create : clock:float array -> dummy:'a -> deliver:('a -> unit) -> 'a t
(** [clock] is the owning simulator's singleton current-time cell: entries
    are timed [clock.(0) +. delay]. [dummy] fills empty ring cells so
    popped payloads don't linger. *)

val view : 'a t -> view

val length : 'a t -> int

val can_accept : 'a t -> delay:float -> bool
(** Whether a delivery [delay] from now respects the lane's FIFO invariant
    (it is at or after the last queued entry). *)

val push : 'a t -> delay:float -> seq:int -> 'a -> unit
(** Append a delivery [delay] from now. Raises [Invalid_argument] if it
    violates FIFO order or its time is NaN. *)

val apply : 'a t -> 'a -> unit
(** Call the lane's deliver function directly (heap-fallback path). *)
