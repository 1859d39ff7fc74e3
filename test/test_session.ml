(* The Session façade: churn, reshaping and failure repair end to end. *)

module Graph = Smrp_graph.Graph
module Rng = Smrp_rng.Rng
module Waxman = Smrp_topology.Waxman
module Fixtures = Smrp_topology.Fixtures
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Session = Smrp_core.Session
module Protect = Smrp_core.Protect
module Smrp = Smrp_core.Smrp
module Oracle = Smrp_check.Oracle

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let edge g u v = (Option.get (Graph.edge_between g u v)).Graph.id

let assert_valid t = match Tree.validate t with Ok () -> () | Error e -> Alcotest.fail e

let join_leave_events () =
  let g = Fixtures.line 4 in
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
  Session.join s 3;
  Session.join s 2;
  Session.leave s 3;
  check_int "one member" 1 (Tree.member_count (Session.tree s));
  (match Session.events s with
  | [ Session.Joined 3; Session.Joined 2; Session.Left 3 ] -> ()
  | _ -> Alcotest.fail "unexpected event log");
  assert_valid (Session.tree s)

let protocols_choose_strategy () =
  let g = Fixtures.fig1 () in
  ignore g;
  let f = Fixtures.fig1 () in
  let graph = f.Fixtures.graph in
  let run protocol =
    let s = Session.create graph ~source:f.Fixtures.s ~protocol in
    Session.join s f.Fixtures.c;
    Session.join s f.Fixtures.d;
    let repairs = Session.fail s (Failure.Link (edge graph f.Fixtures.a f.Fixtures.d)) in
    (s, repairs)
  in
  let _, spf_repairs = run Session.Spf in
  (match spf_repairs with
  | [ r ] -> check "SPF repairs globally" true (r.Session.strategy = `Global)
  | _ -> Alcotest.fail "expected one repair");
  let _, smrp_repairs = run (Session.Smrp { d_thresh = 0.3 }) in
  match smrp_repairs with
  | [ r ] ->
      check "SMRP repairs locally" true (r.Session.strategy = `Local);
      check "local detour is short" true (r.Session.detour.Recovery.recovery_distance <= 2.0)
  | _ -> Alcotest.fail "expected one repair"

let fail_restores_members () =
  let rng = Rng.create 77 in
  let topo = Waxman.generate rng ~n:60 ~alpha:0.25 ~beta:0.25 in
  let g = topo.Waxman.graph in
  let sample = Smrp_rng.Rng.sample_without_replacement rng 13 60 in
  let source = List.hd sample in
  let members = List.tl sample in
  let s = Session.create g ~source ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
  List.iter (Session.join s) members;
  let victim = List.hd members in
  match Failure.worst_case_for_member (Session.tree s) victim with
  | None -> Alcotest.fail "expected a worst case"
  | Some f ->
      let affected = Failure.affected_members (Session.tree s) f in
      let repairs = Session.fail s f in
      let tree = Session.tree s in
      assert_valid tree;
      let lost =
        List.filter_map (function Session.Lost m -> Some m | _ -> None) (Session.events s)
      in
      List.iter
        (fun m ->
          if List.mem m lost then check "lost member off tree" false (Tree.is_member tree m)
          else check "member restored" true (Tree.is_member tree m))
        members;
      check_int "every affected member repaired or lost" (List.length affected)
        (List.length repairs + List.length lost)

let fail_logs_lost_members () =
  let g = Fixtures.line 3 in
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
  Session.join s 2;
  let repairs = Session.fail s (Failure.Link (edge g 1 2)) in
  check_int "no repairs possible" 0 (List.length repairs);
  check "lost logged" true (List.mem (Session.Lost 2) (Session.events s));
  check "member dropped" false (Tree.is_member (Session.tree s) 2)

let fail_cascades_through_recovered_members () =
  (* Fig. 2(b)'s effect: after the failure cuts several members, an early
     repair can serve as a later member's merge point.  With D_thresh = 0
     both members share the 0-1-2-3 side of the ring; when 0-1 fails, member
     3 re-attaches around the ring (RD 5) and member 2 then merges onto 3's
     fresh path for RD 1 instead of its own RD 6 detour. *)
  let g = Fixtures.ring 8 in
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.0 }) in
  Session.join s 2;
  Session.join s 3;
  let repairs = Session.fail s (Failure.Link (edge g 0 1)) in
  let tree = Session.tree s in
  assert_valid tree;
  check "2 and 3 back" true (Tree.is_member tree 2 && Tree.is_member tree 3);
  match repairs with
  | [ first; second ] ->
      check_int "far member first" 3 first.Session.detour.Recovery.member;
      Alcotest.(check (float 1e-9)) "around the ring" 5.0
        first.Session.detour.Recovery.recovery_distance;
      check_int "near member second" 2 second.Session.detour.Recovery.member;
      Alcotest.(check (float 1e-9)) "one hop onto the fresh path" 1.0
        second.Session.detour.Recovery.recovery_distance
  | _ -> Alcotest.fail "expected two repairs"

let reshape_all_counts () =
  let f = Fixtures.fig4 () in
  let s = Session.create f.Fixtures.graph ~source:f.Fixtures.s ~protocol:(Session.Smrp { d_thresh = 0.3 }) in
  Session.join s f.Fixtures.e;
  Session.join s f.Fixtures.g;
  Session.join s f.Fixtures.f;
  let switches = Session.reshape_all s in
  check "at least E switched" true (switches >= 1);
  assert_valid (Session.tree s)

let reshape_all_noop_for_spf () =
  let g = Fixtures.line 4 in
  let s = Session.create g ~source:0 ~protocol:Session.Spf in
  Session.join s 3;
  check_int "SPF does not reshape" 0 (Session.reshape_all s)

let sequential_failures_accumulate () =
  (* Two consecutive persistent failures on a ring: the session must avoid
     BOTH failed links for the second repair and for later joins. *)
  let g = Fixtures.ring 8 in
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 0.0 }) in
  Session.join s 2;
  ignore (Session.fail s (Failure.Link (edge g 0 1)));
  (* 2 is now attached the long way round: 2-3-4-5-6-7-0. *)
  check "2 repaired" true (Tree.is_member (Session.tree s) 2);
  ignore (Session.fail s (Failure.Link (edge g 4 5)));
  (* Both ring arcs towards 2 now have a cut: 2 is isolated and dropped. *)
  check "2 lost after the second cut" false (Tree.is_member (Session.tree s) 2);
  (match Session.active_failure s with
  | Some (Failure.Multi [ _; _ ]) -> ()
  | _ -> Alcotest.fail "expected two active failures");
  (* A new join on the surviving side must route around both failures. *)
  Session.join s 6;
  check "6 joined on the surviving arc" true (Tree.is_member (Session.tree s) 6);
  Alcotest.(check (list int)) "6's path avoids the cuts" [ 6; 7; 0 ]
    (Tree.path_to_source (Session.tree s) 6);
  assert_valid (Session.tree s)

let join_after_failure_avoids_dead_link () =
  let g = Fixtures.diamond () in
  let s = Session.create g ~source:0 ~protocol:Session.Spf in
  ignore (Session.fail s (Failure.Link (edge g 0 1)));
  Session.join s 3;
  (* 3's unicast shortest path tie goes via 1 or 2; with 0-1 dead it must
     come in through 2. *)
  Alcotest.(check (list int)) "routes around the failure" [ 3; 2; 0 ]
    (Tree.path_to_source (Session.tree s) 3);
  assert_valid (Session.tree s)

let reshape_respects_active_failures () =
  let g = Fixtures.ring 6 in
  let s = Session.create g ~source:0 ~protocol:(Session.Smrp { d_thresh = 2.0 }) in
  Session.join s 2;
  ignore (Session.fail s (Failure.Link (edge g 0 1)));
  ignore (Session.reshape_all s);
  (* Whatever reshaping did, the tree must not use the failed link. *)
  let f = Option.get (Session.active_failure s) in
  List.iter
    (fun eid -> check "no failed link in tree" true (Failure.edge_ok g f eid))
    (Tree.tree_edges (Session.tree s));
  assert_valid (Session.tree s)

let qcheck_session_failures_leave_valid_trees =
  QCheck.Test.make ~name:"session repair always leaves a valid tree" ~count:80 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let n = 20 + Rng.int rng 40 in
      let topo = Waxman.generate rng ~n ~alpha:0.2 ~beta:0.2 in
      let g = topo.Waxman.graph in
      let k = 2 + Rng.int rng 10 in
      let sample = Smrp_rng.Rng.sample_without_replacement rng (k + 1) n in
      let s =
        Session.create g ~source:(List.hd sample) ~protocol:(Session.Smrp { d_thresh = 0.3 })
      in
      List.iter (Session.join s) (List.tl sample);
      let victim = List.nth sample 1 in
      match Failure.worst_case_for_member (Session.tree s) victim with
      | None -> true
      | Some f ->
          ignore (Session.fail s f);
          Tree.validate (Session.tree s) = Ok ())

(* -- Protection work ---------------------------------------------------- *)

let recomputes s = (Option.get (Session.protection_stats s)).Protect.recomputes

let members_of s = List.sort compare (Tree.members (Session.tree s))

(* Check one [Session.fail] of a twin against the from-scratch repair
   oracles: table repairs against a fresh branch search, search repairs
   against a replay of the staged repair. *)
let fail_checked s f =
  let pre = Tree.copy (Session.tree s) in
  let failure = match Session.active_failure s with Some a -> Failure.compose [ a; f ] | None -> f in
  let before = List.length (Session.events s) in
  let repairs = Session.fail s f in
  let lost =
    List.filteri (fun j _ -> j > before) (Session.events s)
    |> List.filter_map (function Session.Lost m -> Some m | _ -> None)
  in
  let post = Session.tree s in
  let verdict =
    if repairs <> [] && List.for_all (fun r -> r.Session.strategy = `Protected) repairs then
      Oracle.protected_replay ~pre ~failure:f ~repairs ~post ~lost
    else Oracle.repair_replay ~pre ~failure ~repairs ~post ~lost
  in
  Option.iter (fun v -> Alcotest.failf "%s: %s" v.Oracle.oracle v.Oracle.message) verdict;
  repairs

(* The tables serve only a session's first failure, so table work is paid
   there and nowhere else, counted rather than timed: no recompute before
   it, one per entry it reads, none for later churn or a second failure.
   The lazily refreshed answers equal eagerly prepared tables on the
   pre-failure tree, and the protected twin ends like its search twin. *)
let protection_work_only_at_first_failure () =
  let rng = Rng.create 31 in
  let n = 90 in
  let g = (Waxman.generate rng ~n ~alpha:0.25 ~beta:0.25).Waxman.graph in
  let sample = Rng.sample_without_replacement rng 19 n in
  let source = List.hd sample and members = List.tl sample in
  let protocol = Session.Smrp { d_thresh = 0.3 } in
  let twin protection =
    let s = Session.create ~protection g ~source ~protocol in
    List.iter (Session.join s) members;
    s
  in
  (* First failure: the uplink of the first member the tables can repair. *)
  let first =
    List.find_map
      (fun m ->
        let sp = twin true in
        let tree = Session.tree sp in
        let eid = Tree.parent_edge_id tree m in
        if eid < 0 then None
        else begin
          check_int "no table work before a failure" 0 (recomputes sp);
          let pre = Tree.copy tree in
          let repairs = fail_checked sp (Failure.Link eid) in
          if repairs <> [] && List.for_all (fun r -> r.Session.strategy = `Protected) repairs then
            Some (sp, pre, eid, repairs)
          else None
        end)
      members
  in
  let sp, pre, eid, repairs = Option.get first in
  let ss = twin false in
  ignore (fail_checked ss (Failure.Link eid));
  check_int "one recompute per entry read" 1 (recomputes sp);
  let eager = Protect.create pre in
  Protect.prepare eager;
  (match (repairs, Protect.link_lookup eager eid) with
  | [ r ], Some e ->
      let d = r.Session.detour in
      check "same merge as eager tables" true (d.Recovery.merge = e.Protect.merge);
      check "same recovery distance as eager tables" true
        (d.Recovery.recovery_distance = e.Protect.recovery_distance);
      check "same path as eager tables" true
        (d.Recovery.path_nodes = e.Protect.path_nodes && d.Recovery.path_edges = e.Protect.path_edges)
  | _ -> Alcotest.fail "expected one table repair and an eager entry");
  Alcotest.(check (list int)) "twins agree after the first failure" (members_of ss) (members_of sp);
  let r1 = recomputes sp in
  (* Churn after the failure: a leave and two joins on both twins. *)
  let leaver = List.hd (members_of sp) in
  Session.leave sp leaver;
  Session.leave ss leaver;
  let failure = Option.get (Session.active_failure sp) in
  let joiners =
    List.init n Fun.id
    |> List.filter (fun v ->
           (not (Tree.is_member (Session.tree sp) v))
           && (not (Tree.is_member (Session.tree ss) v))
           && Failure.node_ok failure v
           && Smrp.spf_distance ~failure (Session.tree sp) v <> None)
    |> List.filteri (fun i _ -> i < 2)
  in
  check_int "two joiners" 2 (List.length joiners);
  List.iter (fun v -> Session.join sp v; Session.join ss v) joiners;
  check_int "churn after the first failure recomputes nothing" r1 (recomputes sp);
  (* Second failure: a tree link above a member, on both twins. *)
  let tree = Session.tree sp in
  let m = List.find (fun m -> Tree.parent_edge_id tree m >= 0) (Tree.members tree) in
  let f2 = Failure.Link (Tree.parent_edge_id tree m) in
  let rp = fail_checked sp f2 and rs = fail_checked ss f2 in
  check "second failure takes the search path" true
    (List.for_all (fun r -> r.Session.strategy = `Local) rp);
  check "both twins repaired" true (rp <> [] && rs <> []);
  check_int "a second failure recomputes nothing" r1 (recomputes sp);
  Alcotest.(check (list int)) "twins end with the same members" (members_of ss) (members_of sp)

(* Lazy refreshes after invalidations reuse the path arenas from the start;
   every answer must still equal a freshly built table's. *)
let lazy_refresh_matches_fresh_tables () =
  let rng = Rng.create 8 in
  let n = 70 in
  let g = (Waxman.generate rng ~n ~alpha:0.25 ~beta:0.25).Waxman.graph in
  let sample = Rng.sample_without_replacement rng 16 n in
  let source = List.hd sample in
  let t = Smrp.build ~d_thresh:0.3 g ~source ~members:[] in
  let p = Protect.create t in
  List.iter
    (fun m ->
      Smrp.join ~d_thresh:0.3 t m;
      Protect.invalidate p;
      let fresh = Protect.create t in
      List.iter
        (fun eid ->
          check "link entry" true (Protect.link_lookup p eid = Protect.link_lookup fresh eid);
          check "node entry" true (Protect.node_lookup p eid = Protect.node_lookup fresh eid))
        (Tree.tree_edges t))
    (List.tl sample);
  check "entries were recomputed" true ((Protect.stats p).Protect.recomputes > 0)

let () =
  Alcotest.run "session"
    [
      ( "membership",
        [
          Alcotest.test_case "join/leave with events" `Quick join_leave_events;
          Alcotest.test_case "reshape_all counts" `Quick reshape_all_counts;
          Alcotest.test_case "reshape_all noop for SPF" `Quick reshape_all_noop_for_spf;
        ] );
      ( "failures",
        [
          Alcotest.test_case "protocol picks strategy" `Quick protocols_choose_strategy;
          Alcotest.test_case "restores members" `Quick fail_restores_members;
          Alcotest.test_case "logs lost members" `Quick fail_logs_lost_members;
          Alcotest.test_case "repairs cascade" `Quick fail_cascades_through_recovered_members;
          Alcotest.test_case "sequential failures accumulate" `Quick sequential_failures_accumulate;
          Alcotest.test_case "joins avoid dead links" `Quick join_after_failure_avoids_dead_link;
          Alcotest.test_case "reshape respects failures" `Quick reshape_respects_active_failures;
        ] );
      ( "protection",
        [
          Alcotest.test_case "table work only at the first failure" `Quick
            protection_work_only_at_first_failure;
          Alcotest.test_case "lazy refresh matches fresh tables" `Quick
            lazy_refresh_matches_fresh_tables;
        ] );
      ( "properties",
        [ qcheck_case qcheck_session_failures_leave_valid_trees ] );
    ]
