(** Discrete-event simulation driver.

    A [t] owns the virtual clock, the timer heap and the calendar lanes.
    Components schedule callbacks; {!run} executes them in (time, seq)
    order — earliest time first, insertion order on ties — advancing the
    clock. Time never flows backwards: scheduling in the past raises
    [Invalid_argument].

    Two scheduling substrates share one global ordering:
    - the {e heap}, for timers and anything cancellable ({!schedule} /
      {!schedule_at});
    - {e lanes} ({!lane} / {!schedule_packet}), ring-buffered FIFOs for
      elements that deliver in send order (pipes, links, fixed reverse
      paths). Lane scheduling passes the payload as an immediate argument
      to a callback registered once at lane creation, so the steady-state
      packet path allocates nothing.

    Event times must be finite; an event scheduled at [infinity] never
    fires. *)

type t

type handle
(** Identifies a heap-scheduled event so it can be cancelled. Handles are
    immediate ints and become inert once the event fires or is
    cancelled. *)

type 'a lane
(** A FIFO delivery lane carrying payloads of type ['a]. *)

val create : ?seed:int -> unit -> t
(** [create ?seed ()] makes a simulator whose root RNG is seeded with [seed]
    (default 42). *)

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Rng.t
(** Root RNG; components should {!Rng.split} it rather than share it. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] fires [f] at [now t +. delay]. [delay] must be
    non-negative (NaN rejected). *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant of {!schedule}. [time] must be [>= now t]. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val null_handle : handle
(** A handle referring to no event; {!cancel} on it is a no-op. Use as the
    rest state of a [mutable handle] field instead of boxing handles in an
    option. *)

val is_null : handle -> bool

val lane : t -> dummy:'a -> deliver:('a -> unit) -> 'a lane
(** Create a delivery lane. [deliver] is the pre-registered callback
    every payload on this lane is handed to; [dummy] fills empty ring
    cells. Create lanes once per network element, not per packet. An
    empty lane costs nothing per event: {!run} only orders the non-empty
    lanes, in a binary heap keyed by their head's (time, seq). *)

val schedule_packet : t -> 'a lane -> delay:float -> 'a -> unit
(** [schedule_packet t lane ~delay p] delivers [p] to the lane's callback
    at [now t +. delay], allocation-free. Deliveries on a lane must be
    FIFO: if [delay] would put this delivery before an already-queued one,
    the event transparently falls back to the heap (allocating a closure)
    — global (time, seq) ordering is preserved either way. A push that
    makes the lane non-empty inserts it into the active-lane heap,
    O(log active lanes). *)

val run : ?until:float -> t -> unit
(** Execute events in order until the queue is empty, or until the first
    event strictly after [until] (the clock is then left at [until]).
    Each step compares the earliest active lane with the timer heap's
    head, so an event costs O(log active lanes + log timers), independent
    of how many lanes were ever created. Callbacks may schedule onto any
    lane, including the one being fired. *)

val pending_events : t -> int
(** Live scheduled events: heap timers plus queued lane deliveries. *)
