(** Comparison engine of the bench regression gate (schema version 3).

    Checks a harness-produced [BENCH_RESULTS.json] against a committed
    baseline:

    - [schema_version] must equal {!schema_version} in both files;
    - the [workload] section (fixed-scale deterministic Fig. 9 sweep) must
      match the baseline {e exactly} — its rendering digest, every merged
      metrics total, and the results' attestation that the sequential and
      parallel runs agreed;
    - each [micro_ns_per_run] entry of the baseline is gated by a relative
      tolerance: the baseline's [tolerances.micro_rel.<name>] override or
      [tolerances.micro_default_rel] (default 0.5).  Only slowdowns beyond
      tolerance fail; speed-ups beyond it pass with a refresh-the-baseline
      note.  [~quick:true] multiplies micro tolerances by
      [tolerances.quick_factor] (default 4) for noisy CI runners;
    - each [micro_throughput] entry (a rate, e.g. engine events/s) is gated
      the same way with the direction reversed — a {e drop} beyond the
      [tolerances.throughput_rel.<name>] (or default) tolerance fails,
      a rise passes with a note.

    Baseline metrics absent from the results fail as [Missing]; results
    metrics absent from the baseline are reported as notes only. *)

val schema_version : int

type status = Ok | Improved | Regression | Missing | Mismatch

type row = {
  metric : string;
  baseline : string;
  current : string;
  delta : string;
  tolerance : string;
  status : status;
}

type report = { rows : row list; notes : string list; failures : int }

val check : ?quick:bool -> baseline:Bench_json.t -> results:Bench_json.t -> unit -> report

val passed : report -> bool
(** No row failed ([Improved] and [Ok] both pass). *)

val render : ?quick:bool -> report -> string
(** Human-readable per-metric diff table plus notes and a PASS/FAIL line. *)

val baseline_of_results : ?previous:Bench_json.t -> Bench_json.t -> Bench_json.t
(** Derive a committable baseline from a results file: the workload
    section, the micro estimates, and tolerances.  The tolerances are
    [previous]'s (the baseline being replaced), per-metric overrides
    included, with defaults for any member it lacks; without [previous],
    the defaults. *)

val trend : ?window:int -> string list -> string
(** Longitudinal micro-estimate summary from [BENCH_HISTORY.jsonl] lines
    (oldest first, one JSON object per line; malformed or estimate-free
    lines are skipped).  Considers the last [window] runs (default 5) and
    renders, per metric of the latest run, the mean of the preceding runs,
    the latest value, and the relative delta tagged [(slower)] / [(faster)]
    outside ±5%.  Informational only — never part of the gate. *)
