(** Reference event queue for the simulation engine: a binary heap ordered
    lexicographically by [(tick, seq)].

    This is the retained descendant of the original float-keyed heap engine,
    re-keyed on the scaled-int simulation clock so that it is directly
    comparable with {!Engine_heap}: for any schedule/cancel workload the two
    queues must pop the exact same [(tick, seq)] sequence.  The {!Engine}
    facade uses it as the differential-testing oracle ([`Reference]). *)

type t

val create : unit -> t

val add : t -> tick:int -> seq:int -> eid:int -> unit
(** Insert event [eid] at [tick].  [seq] is the globally unique, monotone
    scheduling sequence number used to order equal ticks FIFO. *)

val min_tick : t -> int
(** Tick of the earliest pending entry; [max_int] when empty. *)

val pop_min : t -> int
(** Remove and return the [eid] with the smallest [(tick, seq)]; [-1] when
    empty. *)

val length : t -> int
