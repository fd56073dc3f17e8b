(** A pooled, struct-of-arrays binary heap of timestamped events.

    Events with equal timestamps fire in insertion order — the (time, seq)
    tie-break — which makes simulation runs fully deterministic. The heap
    stores immediates only (time/seq/slot triples); callbacks live in a
    recycled slot pool, so steady-state add/pop cycles allocate nothing.

    Cancellation is O(1) and lazy, but bounded: the cancelled count is
    tracked incrementally (so {!size} is O(1)) and the heap compacts in
    place whenever cancelled entries outnumber live ones. *)

type t

type handle
(** Identifies a scheduled event so that it can be cancelled. Handles are
    immediate ints (no allocation) and become inert once the event fires
    or is cancelled; they are only meaningful to the queue that issued
    them. *)

val create : unit -> t

val none : handle
(** A handle that refers to no event; {!cancel} on it is a no-op. *)

val is_none : handle -> bool

val add : t -> time:float -> (unit -> unit) -> handle
(** [add t ~time f] schedules [f] to fire at [time]. [time] must not be
    NaN. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val is_cancelled : t -> handle -> bool
(** True once the event is cancelled or has already fired (i.e. it is no
    longer pending). *)

val pop : t -> (float * (unit -> unit)) option
(** Remove and return the earliest live event, or [None] if empty. *)

val peek_time : t -> float option
(** Timestamp of the earliest live event without removing it. *)

val size : t -> int
(** Number of live (non-cancelled) events currently queued. O(1). *)

val is_empty : t -> bool

(** {2 Raw accessors}

    Allocation-free primitives for {!Sim}'s event loop. Callers must
    {!settle} first, check {!heap_length}, and only then read the head. *)

val settle : t -> unit
(** Drop cancelled entries from the top of the heap so that the head entry
    (if any) is live. *)

val heap_length : t -> int
(** Entries physically in the heap; after {!settle} a non-zero value means
    the head is a live event. *)

val head_time_unsafe : t -> float
(** Time of the head entry. Only valid after [settle] when
    [heap_length t > 0]. *)

val head_seq_unsafe : t -> int
(** Seq of the head entry, under the same conditions. *)

val take_head : t -> unit -> unit
(** Remove the head entry and return its callback, under the same
    conditions. *)

val take_seq : t -> int
(** Allocate the next global sequence number, for events kept outside the
    heap (see {!Lane}) that must still obey the (time, seq) tie-break. *)
