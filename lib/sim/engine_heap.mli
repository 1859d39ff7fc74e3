(** Production event queue for the simulation engine: a 4-ary min-heap
    ordered lexicographically by [(tick, seq)].

    The simulator's traffic is a hold model: a few hundred frames pending,
    each popped and replaced by a frame scheduled one link delay (tens of
    milliseconds to about a second, i.e. 10{^5} to 10{^7} ticks) later.
    A heap of that size is shallow — four levels of a 4-ary heap cover 340
    entries — and every operation touches a handful of contiguous int
    cells, with no ordering work deferred to later pops.

    Entries at equal ticks pop in ascending [seq] (FIFO scheduling order).
    The pop sequence is identical to {!Engine_reference}'s for any
    workload, which the engine-differential tests assert. *)

type t

val create : unit -> t

val add : t -> tick:int -> seq:int -> eid:int -> unit
(** Insert event [eid] at [tick] (absolute, in ticks).  [seq] must be
    globally unique and monotone in scheduling order. *)

val min_tick : t -> int
(** Tick of the earliest pending entry; [max_int] when empty. *)

val pop_min : t -> int
(** Remove and return the [eid] with the smallest [(tick, seq)]; [-1] when
    empty. *)

val length : t -> int
