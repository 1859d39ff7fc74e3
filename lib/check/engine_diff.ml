module Graph = Smrp_graph.Graph
module Tree = Smrp_core.Tree
module Smrp = Smrp_core.Smrp
module Engine = Smrp_sim.Engine
module Net = Smrp_sim.Net
module Protocol = Smrp_sim.Protocol

type outcome = { applied : int; skipped : int; mismatch : string option }

(* One schedule slot per case event; the tail gives hellos, refreshes,
   Condition-II sweeps and any recovery time to play out after the last
   injected event. *)
let event_spacing = 0.75

let settle_tail = 25.0

let reshape_period = 6.0

let config_of (case : Case.t) =
  let strategy, join_mode =
    match case.Case.protocol with
    | Case.Spf -> (Protocol.Global, Protocol.Oracle)
    | Case.Smrp -> (Protocol.Local, Protocol.Oracle)
    | Case.Smrp_query -> (Protocol.Local, Protocol.Query_scheme)
  in
  {
    Protocol.default_config with
    Protocol.strategy;
    join_mode;
    d_thresh = case.Case.d_thresh;
    reshape_period = Some reshape_period;
  }

let float_field = function None -> "-" | Some f -> Printf.sprintf "%h" f

(* Replay the case's event schedule as a packet-level simulation on one
   engine implementation and render everything observable about the run —
   engine accounting, per-type frame counts, and the member reports — to a
   canonical byte string.  The guards mirror Exec's skip discipline against
   harness-local state only, so both replays make identical decisions by
   construction and any divergence indicts the event queue. *)
let digest impl (case : Case.t) =
  let g = Case.graph case in
  let engine = Engine.create ~impl () in
  let p = Protocol.create ~config:(config_of case) engine g ~source:case.Case.source in
  let member = Array.make case.Case.n false in
  let failed = ref false in
  let applied = ref 0 in
  let skipped = ref 0 in
  let at i f =
    ignore
      (Engine.schedule_at engine
         ~time:(1.0 +. (event_spacing *. float_of_int i))
         (fun () -> if f () then incr applied else incr skipped))
  in
  Protocol.start p;
  List.iteri
    (fun i ev ->
      match ev with
      | Case.Join m ->
          (* Joins fire only while the network is healthy: the protocol's
             path selection is failure-unaware (§3.2.2 assumes topology
             knowledge, not failure knowledge), so a join injected after
             the failure would attach across the dead link — a scenario
             outside the paper's join→fail→recover experiment shape and
             one that both engines would mangle identically anyway. *)
          at i (fun () ->
              if
                (not !failed)
                && m <> case.Case.source
                && (not member.(m))
                && Smrp.spf_distance (Protocol.tree p) m <> None
              then begin
                Protocol.join p m;
                member.(m) <- true;
                true
              end
              else false)
      | Case.Leave m ->
          at i (fun () ->
              if member.(m) then begin
                Protocol.leave p m;
                member.(m) <- false;
                true
              end
              else false)
      | Case.Fail { links; nodes = _ } ->
          (* The protocol stack models one persistent link failure per run;
             node failures and further links are skipped, as Exec skips
             events the target cannot express. *)
          at i (fun () ->
              match links with
              | l :: _ when not !failed ->
                  failed := true;
                  Protocol.inject_link_failure p l;
                  true
              | _ -> false)
      | Case.Reshape ->
          (* Condition-II sweeps run on the periodic timer armed above. *)
          at i (fun () -> false))
    case.Case.events;
  let horizon =
    1.0 +. (event_spacing *. float_of_int (List.length case.Case.events)) +. settle_tail
  in
  Engine.run ~until:horizon engine;
  let buf = Buffer.create 512 in
  Printf.bprintf buf "engine.fingerprint=%x\n" (Engine.fingerprint engine);
  Printf.bprintf buf "engine.events_fired=%d\n" (Engine.events_fired engine);
  Printf.bprintf buf "engine.pending=%d\n" (Engine.pending engine);
  List.iter (fun (k, v) -> Printf.bprintf buf "net.%s=%d\n" k v) (Net.counters (Protocol.net p));
  List.iter
    (fun (k, v) -> Printf.bprintf buf "proto.sent.%s=%d\n" k v)
    (Protocol.message_breakdown p);
  List.iter
    (fun (r : Protocol.member_report) ->
      Printf.bprintf buf "report member=%d detected=%s restored=%s data_received=%d\n"
        r.Protocol.member (float_field r.Protocol.detected) (float_field r.Protocol.restored)
        r.Protocol.data_received)
    (Protocol.reports p);
  (!applied, !skipped, Buffer.contents buf)

let first_diff production reference =
  let rec go = function
    | a :: tl, b :: tl' -> if String.equal a b then go (tl, tl') else Some (a, b)
    | a :: _, [] -> Some (a, "<missing>")
    | [], b :: _ -> Some ("<missing>", b)
    | [], [] -> None
  in
  go (String.split_on_char '\n' production, String.split_on_char '\n' reference)

let check (case : Case.t) =
  let applied, skipped, production = digest Engine.Heap case in
  let _, _, reference = digest Engine.Reference case in
  if String.equal production reference then { applied; skipped; mismatch = None }
  else
    let mismatch =
      match first_diff production reference with
      | Some (p, r) ->
          Some (Printf.sprintf "4-ary-heap run reports %S, reference-heap run reports %S" p r)
      | None -> Some "digests differ" (* unreachable: unequal strings diverge somewhere *)
    in
    { applied; skipped; mismatch }
