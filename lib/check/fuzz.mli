(** Campaign driver: generate → execute → (on violation) shrink.

    Each run draws its case from an {!Smrp_rng.Rng.split} stream of the root
    seed, so run [i] of seed [s] is the same case forever — a campaign
    failure report is reproducible from [(seed, run)] alone, and the shrunk
    repro file makes it portable. *)

type config = {
  seed : int;
  runs : int;
  bug : Exec.bug;  (** Deliberate fault to inject (oracle self-test). *)
  params : Gen.params;
  max_failures : int;  (** Stop the campaign after this many failures (default 1). *)
  engine_diff : bool;
      (** Run {!Exec.run_engine_diff} instead of the tree-level executor:
          each case replays as a packet-level simulation on both the
          production 4-ary-heap and reference binary-heap engines and must
          produce byte-identical outcomes.  [bug] is ignored in this mode. *)
  protection : bool;
      (** Arm the precomputed-protection layer in every session: failures
          answered from the {!Smrp_core.Protect} tables are audited by the
          {!Oracle.protected_replay} differential.  Ignored under
          [engine_diff]. *)
}

val default : config
(** seed 42, 500 runs, no bug, default generator, stop at the first failure,
    tree-level executor. *)

type failure = {
  run : int;  (** Campaign iteration that failed. *)
  case : Case.t;  (** The original draw. *)
  shrunk : Case.t;  (** Minimized by {!Shrink.shrink}. *)
  violation : Exec.violation;  (** The violation the {e shrunk} case exhibits. *)
}

type report = {
  runs : int;
  applied : int;  (** Events applied across the whole campaign. *)
  skipped : int;
  repairs : int;
  protected : int;  (** Of [repairs], answered from the protection tables. *)
  lost : int;
  switches : int;
  failures : failure list;
}

val run : config -> report

val replay : ?bug:Exec.bug -> ?engine_diff:bool -> ?protection:bool -> Case.t -> Exec.outcome
(** Re-execute one case (e.g. loaded from a repro file), through the
    engine-differential replay when [engine_diff] is set. *)

val render : report -> string
(** Human-readable campaign summary (one paragraph, plus each failure's
    violation and shrunk case). *)
