(** Monotonic time for the benchmark's own measurements. *)

val now_ns : unit -> int
(** Nanoseconds on the monotonic clock (arbitrary origin). *)

val ms_of_ns : int -> float
val s_of_ns : int -> float

val time_ns : (unit -> 'a) -> int * 'a
(** Elapsed nanoseconds of one call, with its result. *)
