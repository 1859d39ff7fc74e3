(** Engine-differential oracle: one fuzz case, two event queues.

    A {!Case.t}'s event schedule is replayed as a full packet-level
    simulation twice — once on the production 4-ary-heap engine
    ({!Smrp_sim.Engine.Heap}), once on the retained binary-heap engine
    ({!Smrp_sim.Engine.Reference}) — and every observable outcome is
    rendered to a canonical byte string: engine fingerprint and event
    counts, per-type frame accounting, and the per-member reports.  The two
    strings must be byte-identical; any divergence means the production
    queue ordered, dropped or duplicated an event the reference did not.

    Joins, leaves and failures are guarded against harness-local state only
    (never against engine-dependent simulation state), so both replays make
    the same injection decisions by construction. *)

type outcome = {
  applied : int;  (** Events injected into the simulation. *)
  skipped : int;  (** Events inapplicable at their scheduled time. *)
  mismatch : string option;
      (** [None] when the runs agree; otherwise the first digest line on
          which they differ, both renderings quoted. *)
}

val check : Case.t -> outcome
