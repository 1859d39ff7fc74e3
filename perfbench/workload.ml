(* What every workload gives the harness.  [run] goes through the program's
   entry points and is what the end-to-end run times; [traced] recomposes
   the same input from the layers' public functions, one span per layer
   call, under a "round" span per input. *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;  (** Members left unserved although the network still reached them. *)
  problems : string list;  (** Failed checks; any entry makes the run incorrect. *)
}

type t = {
  inputs : int;
  batch : int;  (** Consecutive inputs timed as one sample (about 30 ms or more). *)
  sizes : (string * int) list;  (** Input-set sizes, printed as header lines. *)
  run : int -> unit;
  traced : Spans.t -> int -> unit;
  check : unit -> outcome;
      (** Correctness of the last results of [run], plus the recomposition
          and repeatability checks on a subset; outside any timed region. *)
  exact : unit -> metric list;
      (** Restoration figures of the last pass, exact for a seed: per-layer
          metrics of the traced run, header lines of the end-to-end run. *)
  layers : (string, Spans.total) Hashtbl.t -> rounds:int -> metric list;
      (** Per-layer metrics from the spans of [rounds] traced passes. *)
}

let metric name unit_ value = { name; value; unit_ }

(* Per-call self time and self words of one span name. *)
let per_call tbl name =
  let t = Spans.find tbl name in
  let calls = float_of_int (max 1 t.Spans.calls) in
  (t.Spans.self_s /. calls, t.Spans.self_words /. calls)

let seconds tbl name = metric (name ^ "_s") "s" (fst (per_call tbl name))

let words tbl name = metric (name ^ "_words") "words" (snd (per_call tbl name))

let problem problems fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

(* Seeds for generated inputs: a stream derived from the benchmark seed. *)
let seeds rng k = Array.init k (fun _ -> Int64.to_int (Smrp_rng.Rng.bits64 rng) land 0x3FFFFFFF)
