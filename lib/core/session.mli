(** High-level façade: one multicast session under a chosen protocol, with
    membership churn, reshaping and failure repair.  This is the API the
    examples and the CLI drive; experiments use the lower-level modules
    directly. *)

type protocol =
  | Spf  (** The SPF/PIM-style baseline. *)
  | Smrp of { d_thresh : float }
  | Smrp_query of { d_thresh : float }  (** SMRP under the §3.3.1 query scheme. *)

type repair = {
  detour : Recovery.detour;
  strategy : [ `Local | `Global | `Protected ];
      (** [`Protected]: answered from the precomputed {!Protect} tables —
          the detour re-attached a whole orphaned branch ([detour.member]
          is the branch root), not a single member. *)
}

type event =
  | Joined of int
  | Left of int
  | Reshaped of { node : int; switches : int }
  | Failed of Failure.t
  | Repaired of repair
  | Lost of int  (** Member permanently isolated by the failure. *)

type t

val create : ?protection:bool -> Smrp_graph.Graph.t -> source:int -> protocol:protocol -> t
(** [~protection:true] (default false) arms the precomputed-protection
    layer: the session keeps {!Protect} branch-detour tables and an
    incremental source SPF ({!Smrp_graph.Dspf}) that replaces the per-join
    unicast distance search.  Under SMRP protocols, a session's {e first}
    failure, when it is a single link or non-source node, is repaired by
    table lookup — each orphaned branch re-attaches wholesale along its
    precomputed detour (logged as one [`Protected] repair per branch) —
    with automatic fallback to the staged search repair whenever the
    failure shape or a stale precondition rules the tables out.  Failures
    are persistent, so every later failure meets an earlier one still
    active and takes the search repair; the tables therefore serve only
    the first failure.  Membership churn invalidates them in O(1), and
    entries refresh lazily when that failure looks them up: no table work
    is done ahead of time or after a repair.  SPF-protocol sessions accept
    the flag but always use the search path.

    The session owns one {!Smrp_graph.Dijkstra.workspace} sized to the
    graph, shared by its joins, reshaping and search repairs, so a
    session is domain-private: drive it from one domain at a time. *)

val protection_enabled : t -> bool

val protection_stats : t -> Protect.stats option
(** Lookup/recompute counters of the protection tables, when armed. *)

val tree : t -> Tree.t

val protocol : t -> protocol

val events : t -> event list
(** Event log, oldest first. *)

val active_failure : t -> Failure.t option
(** The composition of every failure injected so far (persistent failures
    outlive repairs); joins and repairs route around all of them. *)

val join : t -> int -> unit

val leave : t -> int -> unit

val reshape_all : t -> int
(** Condition-II sweep; returns the number of path switches. *)

val fail : t -> Failure.t -> repair list
(** Apply a persistent failure and repair the session.  The failure stays
    active for the rest of the session: later joins and later repairs avoid
    it too.

    Under SMRP protocols each disconnected member takes its local detour;
    under SPF it re-joins by global detour, as PIM would after unicast
    reconvergence.  The tree is rebuilt: surviving structure is kept,
    disconnected members re-attach one by one (closest detour first, so an
    early recovery can serve as a later member's merge point, as in
    Fig. 2(b)).  Members that cannot reach any surviving node are dropped
    and logged as {!Lost}. *)
