(* Binary heap on (tick, seq), int-specialised: three parallel int arrays and
   hand-inlined sift loops.  seq is globally unique, so the order is total
   and pops are deterministic — the property the production heap is
   differentially tested against. *)

type t = {
  mutable tick : int array;
  mutable seq : int array;
  mutable eid : int array;
  mutable n : int;
}

let create () = { tick = Array.make 64 0; seq = Array.make 64 0; eid = Array.make 64 0; n = 0 }

let length t = t.n

let[@inline] less t i j =
  t.tick.(i) < t.tick.(j) || (t.tick.(i) = t.tick.(j) && t.seq.(i) < t.seq.(j))

let[@inline] swap t i j =
  let tk = t.tick.(i) and sq = t.seq.(i) and ev = t.eid.(i) in
  t.tick.(i) <- t.tick.(j);
  t.seq.(i) <- t.seq.(j);
  t.eid.(i) <- t.eid.(j);
  t.tick.(j) <- tk;
  t.seq.(j) <- sq;
  t.eid.(j) <- ev

let grow t =
  let cap = Array.length t.tick in
  let ncap = cap * 2 in
  let ext a = Array.append a (Array.make cap 0) in
  ignore ncap;
  t.tick <- ext t.tick;
  t.seq <- ext t.seq;
  t.eid <- ext t.eid

let add t ~tick ~seq ~eid =
  if t.n = Array.length t.tick then grow t;
  let i = ref t.n in
  t.tick.(!i) <- tick;
  t.seq.(!i) <- seq;
  t.eid.(!i) <- eid;
  t.n <- t.n + 1;
  while !i > 0 && less t !i ((!i - 1) / 2) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let min_tick t = if t.n = 0 then max_int else t.tick.(0)

let pop_min t =
  if t.n = 0 then -1
  else begin
    let res = t.eid.(0) in
    t.n <- t.n - 1;
    if t.n > 0 then begin
      t.tick.(0) <- t.tick.(t.n);
      t.seq.(0) <- t.seq.(t.n);
      t.eid.(0) <- t.eid.(t.n);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < t.n && less t l !m then m := l;
        if r < t.n && less t r !m then m := r;
        if !m = !i then continue := false
        else begin
          swap t !i !m;
          i := !m
        end
      done
    end;
    res
  end
