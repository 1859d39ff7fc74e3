(* Reference kernel: fixed work that shares nothing with the program, run
   before every timed batch so each sample can be read against how fast the
   host was at that moment.

   It runs in the program's process, on the same core and caches, but never
   touches the OCaml heap: its tables are bigarrays made once, so neither
   the program's GC settings nor its live heap change its speed.  It treats
   memory the way the workloads' inner loops do: a hash table filled from an
   LCG by linear probing, a stream of three-word cells written through a
   2 MB arena (the pattern of minor allocation), then a heap sort of the
   table's entries. *)

open Bigarray

type ints = (int, int_elt, c_layout) Array1.t

let slots = 1 lsl 16

let arena_words = 1 lsl 18

let keys : ints = Array1.create int c_layout slots

let vals : ints = Array1.create int c_layout slots

let arena : ints = Array1.create int c_layout arena_words

let entries : ints = Array1.create int c_layout slots

let bump = ref 0

let cell a b =
  let p = if !bump + 3 > arena_words then 0 else !bump in
  Array1.unsafe_set arena p 2048;
  Array1.unsafe_set arena (p + 1) a;
  Array1.unsafe_set arena (p + 2) b;
  bump := p + 3

let rec sift (a : ints) root n =
  let child = (2 * root) + 1 in
  if child < n then begin
    let c =
      if child + 1 < n && Array1.unsafe_get a (child + 1) > Array1.unsafe_get a child then child + 1
      else child
    in
    let top = Array1.unsafe_get a root and big = Array1.unsafe_get a c in
    if big > top then begin
      Array1.unsafe_set a root big;
      Array1.unsafe_set a c top;
      sift a c n
    end
  end

let heap_sort (a : ints) n =
  for r = (n / 2) - 1 downto 0 do
    sift a r n
  done;
  for last = n - 1 downto 1 do
    let top = Array1.unsafe_get a 0 in
    Array1.unsafe_set a 0 (Array1.unsafe_get a last);
    Array1.unsafe_set a last top;
    sift a 0 last
  done

(* One run; returns the number of distinct keys (2,000-odd). *)
let kernel () =
  Array1.fill keys (-1);
  let x = ref 12345 in
  for i = 1 to 4_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let k = !x land 0xFFFF in
    let j = ref (((k * 0x9E3779B1) lsr 7) land (slots - 1)) in
    while Array1.unsafe_get keys !j <> -1 && Array1.unsafe_get keys !j <> k do
      j := (!j + 1) land (slots - 1)
    done;
    Array1.unsafe_set keys !j k;
    Array1.unsafe_set vals !j i;
    cell k i
  done;
  let n = ref 0 in
  for j = 0 to slots - 1 do
    let k = Array1.unsafe_get keys j in
    if k <> -1 then begin
      Array1.unsafe_set entries !n (k lxor Array1.unsafe_get vals j);
      cell k !n;
      incr n
    end
  done;
  heap_sort entries !n;
  !n

let sink = ref 0

(* The wall time of one kernel run, in seconds. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  sink := !sink + kernel ();
  Unix.gettimeofday () -. t0

(* Times are reported in seconds of a reference host: one on which a kernel
   run takes [nominal_s]. *)
let nominal_s = 5e-4
