(* Order statistics and rates over timing samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* A round is one pass over the fixed input set, timed in batches of
   consecutive inputs; its time is the sum of each batch's median over the
   passes, so with five or more passes one slow pass of a batch cannot move
   it. *)
let round_time times =
  if Array.length times = 0 then invalid_arg "Measure.round_time: no batches";
  Array.fold_left (fun acc samples -> acc +. median samples) 0.0 times

let rounds_per_s times =
  let t = round_time times in
  if t <= 0.0 then invalid_arg "Measure.rounds_per_s: zero time";
  1.0 /. t

(* Each sample divided by the median of the reference runs that started
   within [window] seconds of its own reference run: the host's speed around
   that moment, robust to one disturbed reference run.  [starts] must be
   increasing. *)
let normalise ~window ~starts times refs =
  let n = Array.length times in
  if Array.length refs <> n || Array.length starts <> n then
    invalid_arg "Measure.normalise: length mismatch";
  let lo = ref 0 and hi = ref 0 in
  Array.init n (fun i ->
      while starts.(i) -. starts.(!lo) > window do
        incr lo
      done;
      while !hi + 1 < n && starts.(!hi + 1) -. starts.(i) <= window do
        incr hi
      done;
      times.(i) /. median (Array.sub refs !lo (!hi - !lo + 1)))

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let rank n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let beyond n p = n - rank n p

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  (sorted a).(rank n p - 1)

let tail_percentiles = [ 50.0; 90.0; 95.0; 99.0; 99.9 ]

(* The highest of [tail_percentiles] with at least 10 samples beyond it. *)
let highest_tail n =
  List.fold_left (fun best p -> if beyond n p >= 10 then Some p else best) None tail_percentiles
