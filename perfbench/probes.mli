(** Outside-in probes: wrappers installed through the repository's public
    extension points, so nothing under [lib/] needs to know it is being
    measured.

    - {!with_ccas} re-registers each named CCA in {!Cca.Registry} under the
      same name with a wrapper around the original constructor, and restores
      the originals afterwards. Every flow created meanwhile (static or
      churn) gets a wrapped instance.
    - {!backend} wraps a [(module Sim_backend.S)]: [name], [supports],
      [validate] and [digest] are forwarded unchanged, [run] and
      [run_batch] are timed.
    - {!Sink} counts the records of a {!Sim_engine.Trace} hub next to a
      {!Sim_engine.Trace.Metrics} rollup. *)

type cc_mode =
  | Count_sends  (** One counter bump per [on_send]: the timed runs. *)
  | Time_calls
      (** Every CCA entry point timed on {!Clock}: the traced replay. *)

type cc_totals = {
  cc_name : string;
  instances : int;
  sends : int;  (** [on_send] calls: one per transmitted segment. *)
  calls : int;  (** All timed entry-point calls ([Time_calls] only). *)
  call_ns : int;  (** Time inside the original CCA ([Time_calls] only). *)
}

type cc_probe

val cc_totals : cc_probe -> cc_totals list
(** Totals per CCA name, in the order given to {!with_ccas}. Safe to read
    whenever no simulation that uses the probe is running. *)

val with_ccas : cc_mode -> string list -> (cc_probe -> 'a) -> 'a
(** Wrapped instances keep per-instance counters (a domain only touches
    its own flows' counters); {!cc_totals} sums them. Raises
    [Invalid_argument] if a name is not registered. *)

type batch = {
  b_specs : Sim_backend.spec array;
  b_digests : string array;  (** Empty unless the probe records spans. *)
  b_outcomes : Sim_backend.outcome option array;  (** [None]: rejected. *)
  b_ns : int;
  b_domain : int;
}

type backend_probe

val backend :
  ?spans:Spans.t -> Sim_backend.t -> Sim_backend.t * backend_probe
(** The wrapped backend and its log. Calls may come from several domains
    (the log is locked). With [spans] (single-domain replay only), every
    call is also recorded as a [backend.run_batch] / [backend.run] span
    keyed by the first spec's digest. *)

val batches : backend_probe -> batch list
(** Logged calls, oldest first. *)

module Sink : sig
  type t

  val attach : Sim_engine.Trace.t -> rate_bps:float -> t
  (** Subscribe a record counter and a {!Sim_engine.Trace.Metrics} rollup. *)

  val records : t -> int
  val metrics : t -> Sim_engine.Trace.Metrics.summary
end
