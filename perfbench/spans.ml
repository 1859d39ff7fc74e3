(* In-memory span recorder for the traced run.  Spans nest strictly (one
   domain, one stack), so a span's self time is its duration minus the
   durations of its direct children. *)

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type span = {
  name : string;
  parent : int;  (** Index of the enclosing span, -1 at top level. *)
  start : float;
  mutable stop : float;
  start_words : float;
  mutable stop_words : float;
}

type t = { mutable spans : span array; mutable len : int; mutable open_ : int }

let create () = { spans = [||]; len = 0; open_ = -1 }

let enter t name =
  let s =
    { name; parent = t.open_; start = Unix.gettimeofday (); stop = nan;
      start_words = words (); stop_words = nan }
  in
  if t.len = Array.length t.spans then begin
    let grown = Array.make (max 256 (2 * t.len)) s in
    Array.blit t.spans 0 grown 0 t.len;
    t.spans <- grown
  end;
  t.spans.(t.len) <- s;
  t.open_ <- t.len;
  t.len <- t.len + 1

let leave t =
  let s = t.spans.(t.open_) in
  s.stop_words <- words ();
  s.stop <- Unix.gettimeofday ();
  t.open_ <- s.parent

let span t name f =
  enter t name;
  Fun.protect ~finally:(fun () -> leave t) f

type total = { calls : int; self_s : float; self_words : float; wall_s : float }

(* Per-name totals: self time and self words subtract the direct children;
   [wall_s] is the inclusive duration. *)
let totals t =
  let child_s = Array.make t.len 0.0 and child_w = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then begin
      child_s.(s.parent) <- child_s.(s.parent) +. (s.stop -. s.start);
      child_w.(s.parent) <- child_w.(s.parent) +. (s.stop_words -. s.start_words)
    end
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let dur = s.stop -. s.start in
    let prev =
      Option.value (Hashtbl.find_opt tbl s.name)
        ~default:{ calls = 0; self_s = 0.0; self_words = 0.0; wall_s = 0.0 }
    in
    Hashtbl.replace tbl s.name
      {
        calls = prev.calls + 1;
        self_s = prev.self_s +. dur -. child_s.(i);
        self_words = prev.self_words +. (s.stop_words -. s.start_words) -. child_w.(i);
        wall_s = prev.wall_s +. dur;
      }
  done;
  tbl

let find tbl name =
  Option.value (Hashtbl.find_opt tbl name)
    ~default:{ calls = 0; self_s = 0.0; self_words = 0.0; wall_s = 0.0 }

(* Share of the [root] spans' wall time that named layer spans account for:
   everything but the roots' own self time. *)
let coverage tbl ~root =
  let r = find tbl root in
  if r.wall_s <= 0.0 then 0.0 else (r.wall_s -. r.self_s) /. r.wall_s
