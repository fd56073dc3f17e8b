(** Every metric the benchmark reports: name, unit, direction, and for a
    per-layer metric the end-to-end metric (and workload) it should move.
    [BENCHMARK.json] lists the same names; [run.py --selftest] checks that
    the two agree. *)

type kind = End_to_end | Per_layer

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  kind : kind;
  moves : string;
      (** Per-layer: ["<end-to-end metric> on <workload>"]. Empty for
          end-to-end metrics. *)
}

val all : metric list
val end_to_end : metric list
val per_layer : metric list
val find : string -> metric

val valid_name : string -> bool
(** [[A-Za-z0-9_.-]+], starting with a letter or digit, at most 64 long. *)

val to_json : metric -> string
