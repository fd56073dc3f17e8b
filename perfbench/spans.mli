(** In-memory spans for the traced replay, and the self-time arithmetic
    behind the layer budget.

    A span has a name (["<layer>.<what>"], e.g. ["tcpflow.simulate"]), a
    key shared by every span of one simulation (its config or spec digest),
    a start and end on {!Clock}, and a parent. A span's self time is its
    duration minus the part of it its children cover. Recording is
    single-domain: the traced replay is sequential. *)

type span = {
  id : int;
  name : string;
  key : string;
  parent : int;  (** [-1] for a root. *)
  start_ns : int;
  stop_ns : int;
}

type t

val create : unit -> t

val with_span : t -> name:string -> ?key:string -> (unit -> 'a) -> 'a
(** Run the function inside a new child of the innermost open span. *)

val add :
  t -> name:string -> ?key:string -> start_ns:int -> stop_ns:int -> unit -> unit
(** Record a finished child of the innermost open span without running
    anything: used for time measured elsewhere, such as the summed CCA call
    time inside one [tcpflow.simulate] span. *)

val spans : t -> span list
(** Finished spans, in the order they started. *)

val layer : string -> string
(** The layer of a span name: the text before its first ['.']. *)

val self_times : span list -> (span * int) list
(** Each span with its self time in ns: its duration minus the union of its
    direct children's intervals, clipped to the span. *)

val layer_self_ns : span list -> (string * int) list
(** Summed self time per layer, sorted by layer name. *)

val outside_parent : span list -> span list
(** Spans that do not lie inside their parent's interval, or whose parent
    is missing from the list. *)

val to_jsonl : span -> string
