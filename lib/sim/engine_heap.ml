(* 4-ary min-heap on (tick, seq) over three parallel int arrays.  Node i's
   children are 4i+1 .. 4i+4, its parent (i-1)/4.  Both sifts move a hole
   instead of swapping: the entry being placed is held in locals, each step
   copies one (tick, seq, eid) triple into the hole, and the entry is
   written once where the hole stops.  seq is globally unique, so the order
   is total and pops are deterministic.  Indices stay below [n], itself at
   most the arrays' length, so the sifts use unchecked accesses. *)

type t = {
  mutable tick : int array;
  mutable seq : int array;
  mutable eid : int array;
  mutable n : int;
}

let create () = { tick = Array.make 64 0; seq = Array.make 64 0; eid = Array.make 64 0; n = 0 }

let length t = t.n

let grow t =
  let cap = Array.length t.tick in
  let ext a = Array.append a (Array.make cap 0) in
  t.tick <- ext t.tick;
  t.seq <- ext t.seq;
  t.eid <- ext t.eid

(* Entry i orders before entry j. *)
let[@inline] before (ticks : int array) (seqs : int array) i j =
  let ti = Array.unsafe_get ticks i and tj = Array.unsafe_get ticks j in
  ti < tj || (ti = tj && Array.unsafe_get seqs i < Array.unsafe_get seqs j)

let[@inline] move (ticks : int array) (seqs : int array) (eids : int array) ~src ~dst =
  Array.unsafe_set ticks dst (Array.unsafe_get ticks src);
  Array.unsafe_set seqs dst (Array.unsafe_get seqs src);
  Array.unsafe_set eids dst (Array.unsafe_get eids src)

let add t ~tick ~seq ~eid =
  if t.n = Array.length t.tick then grow t;
  let ticks = t.tick and seqs = t.seq and eids = t.eid in
  let i = ref t.n in
  t.n <- t.n + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = Array.unsafe_get ticks p in
    if tick < pt || (tick = pt && seq < Array.unsafe_get seqs p) then begin
      move ticks seqs eids ~src:p ~dst:!i;
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set ticks !i tick;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set eids !i eid

let min_tick t = if t.n = 0 then max_int else t.tick.(0)

let pop_min t =
  if t.n = 0 then -1
  else begin
    let ticks = t.tick and seqs = t.seq and eids = t.eid in
    let res = Array.unsafe_get eids 0 in
    let n = t.n - 1 in
    t.n <- n;
    if n > 0 then begin
      (* The last entry fills the root hole, sifting down past any child
         that orders before it. *)
      let tick = Array.unsafe_get ticks n
      and seq = Array.unsafe_get seqs n
      and eid = Array.unsafe_get eids n in
      let i = ref 0 in
      let moving = ref true in
      while !moving do
        let c = (4 * !i) + 1 in
        if c >= n then moving := false
        else begin
          (* Least of the (up to four) children: a two-round tournament
             when all four exist. *)
          let m =
            if c + 3 < n then begin
              let a = if before ticks seqs (c + 1) c then c + 1 else c in
              let b = if before ticks seqs (c + 3) (c + 2) then c + 3 else c + 2 in
              if before ticks seqs b a then b else a
            end
            else begin
              let m = ref c in
              for j = c + 1 to n - 1 do
                if before ticks seqs j !m then m := j
              done;
              !m
            end
          in
          let mt = Array.unsafe_get ticks m in
          if mt < tick || (mt = tick && Array.unsafe_get seqs m < seq) then begin
            move ticks seqs eids ~src:m ~dst:!i;
            i := m
          end
          else moving := false
        end
      done;
      Array.unsafe_set ticks !i tick;
      Array.unsafe_set seqs !i seq;
      Array.unsafe_set eids !i eid
    end;
    res
  end
