module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Paths = Smrp_graph.Paths
module Connectivity = Smrp_graph.Connectivity
module Subgraph = Smrp_graph.Subgraph
module Fixtures = Smrp_topology.Fixtures

(* Property tests run with a pinned PRNG state so failures are
   reproducible run over run. *)
let qcheck_case t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 424242 |]) t

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_ilist = Alcotest.(check (list int))

(* -- Graph basics ------------------------------------------------------ *)

let build_basics () =
  let g = Graph.create 3 in
  let e01 = Graph.add_edge g 0 1 1.5 in
  let e12 = Graph.add_edge ~cost:7.0 g 1 2 2.5 in
  check_int "node count" 3 (Graph.node_count g);
  check_int "edge count" 2 (Graph.edge_count g);
  check_int "ids dense" 1 e12;
  check_float "delay" 1.5 (Graph.edge g e01).Graph.delay;
  check_float "cost defaults to delay" 1.5 (Graph.edge g e01).Graph.cost;
  check_float "explicit cost" 7.0 (Graph.edge g e12).Graph.cost;
  check_float "total cost" 8.5 (Graph.total_cost g);
  check_float "average degree" (4.0 /. 3.0) (Graph.average_degree g)

let rejects_bad_edges () =
  let g = Graph.create 2 in
  ignore (Graph.add_edge g 0 1 1.0);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_edge: duplicate edge") (fun () ->
      ignore (Graph.add_edge g 1 0 1.0));
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop") (fun () ->
      ignore (Graph.add_edge g 0 0 1.0));
  Alcotest.check_raises "non-positive delay" (Invalid_argument "Graph.add_edge: delay must be positive")
    (fun () ->
      let g' = Graph.create 2 in
      ignore (Graph.add_edge g' 0 1 0.0))

let neighbors_and_lookup () =
  let g = Fixtures.diamond () in
  check_ilist "neighbors of 0" [ 1; 2 ] (List.map fst (Graph.neighbors g 0));
  check_int "degree" 2 (Graph.degree g 3);
  check "mem" true (Graph.mem_edge g 1 3);
  check "not mem" false (Graph.mem_edge g 0 3);
  let e = Option.get (Graph.edge_between g 2 3) in
  check_int "other end" 3 (Graph.other_end e 2);
  check_int "other end sym" 2 (Graph.other_end e 3)

let csr_matches_neighbors () =
  let g = Fixtures.diamond () in
  (* iter_neighbors enumerates exactly what neighbors lists, with the
     edge's delay attached, node by node. *)
  for u = 0 to Graph.node_count g - 1 do
    let seen = ref [] in
    Graph.iter_neighbors g u (fun v eid delay ->
        check_float (Printf.sprintf "delay of edge %d" eid) (Graph.edge g eid).Graph.delay delay;
        seen := (v, eid) :: !seen);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "neighbors of %d" u)
      (Graph.neighbors g u) (List.rev !seen)
  done;
  (* The raw CSR arrays tell the same story. *)
  let offsets, nbr, eids, delays = Graph.csr g in
  check_int "offsets span" (Graph.node_count g + 1) (Array.length offsets);
  check_int "one slot per edge direction" (2 * Graph.edge_count g) (Array.length nbr);
  for u = 0 to Graph.node_count g - 1 do
    check_int (Printf.sprintf "degree of %d" u) (Graph.degree g u) (offsets.(u + 1) - offsets.(u));
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let e = Graph.edge g eids.(i) in
      check_int "neighbor is the other end" (Graph.other_end e u) nbr.(i);
      check_float "delay slot" e.Graph.delay delays.(i)
    done
  done

(* Degenerate freezes: the CSR arrays must keep their shape invariants
   (offsets has n+1 slots, all zero when there are no edges) so iteration
   and the raw-array consumers (Dspf, Protect) never special-case n <= 1. *)
let freeze_empty () =
  let g = Graph.create 0 in
  Graph.freeze g;
  let offsets, nbr, eids, delays = Graph.csr g in
  check_ilist "offsets of empty graph" [ 0 ] (Array.to_list offsets);
  check_int "no adjacency slots" 0 (Array.length nbr);
  check_int "no eid slots" 0 (Array.length eids);
  check_int "no delay slots" 0 (Array.length delays);
  (* Freeze is idempotent and survives a redundant second call. *)
  Graph.freeze g;
  check_int "still empty" 0 (Array.length (let _, a, _, _ = Graph.csr g in a))

let freeze_single_node () =
  let g = Graph.create 1 in
  Graph.freeze g;
  let offsets, nbr, _, _ = Graph.csr g in
  check_ilist "offsets of 1-node graph" [ 0; 0 ] (Array.to_list offsets);
  check_int "no adjacency slots" 0 (Array.length nbr);
  check_int "degree of the only node" 0 (Graph.degree g 0);
  let visited = ref 0 in
  Graph.iter_neighbors g 0 (fun _ _ _ -> incr visited);
  check_int "iteration visits nothing" 0 !visited;
  Alcotest.(check (list (pair int int))) "neighbors empty" [] (Graph.neighbors g 0)

let csr_rebuilds_after_mutation () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1 1.0);
  Graph.freeze g;
  let count u =
    let c = ref 0 in
    Graph.iter_neighbors g u (fun _ _ _ -> incr c);
    !c
  in
  check_int "degree before" 1 (count 0);
  (* Adding an edge invalidates the frozen view; the next read rebuilds. *)
  ignore (Graph.add_edge g 0 2 1.0);
  check_int "degree after" 2 (count 0);
  check "new edge visible to mem_edge" true (Graph.mem_edge g 2 0);
  check "absent edge" false (Graph.mem_edge g 1 2)

(* -- Dijkstra ---------------------------------------------------------- *)

let line_distances () =
  let g = Fixtures.line 5 in
  let r = Dijkstra.run g ~source:0 in
  List.iteri
    (fun i expected -> check_float (Printf.sprintf "dist to %d" i) expected (Option.get (Dijkstra.distance r i)))
    [ 0.0; 1.0; 2.0; 3.0; 4.0 ];
  check_ilist "path nodes" [ 0; 1; 2; 3 ] (Option.get (Dijkstra.path_nodes r 3));
  check_int "path edge count" 3 (List.length (Option.get (Dijkstra.path_edges r 3)))

let grid_distance () =
  let g = Fixtures.grid 4 in
  let r = Dijkstra.run g ~source:0 in
  check_float "manhattan corner" 6.0 (Option.get (Dijkstra.distance r 15))

let blocked_node_forces_detour () =
  let g = Fixtures.diamond () in
  let r = Dijkstra.run ~node_ok:(fun v -> v <> 1) g ~source:0 in
  check_float "detour via 2" 2.0 (Option.get (Dijkstra.distance r 3));
  check_ilist "path avoids 1" [ 0; 2; 3 ] (Option.get (Dijkstra.path_nodes r 3))

let blocked_edge_forces_detour () =
  let g = Fixtures.ring 4 in
  let eid = (Option.get (Graph.edge_between g 0 1)).Graph.id in
  let r = Dijkstra.run ~edge_ok:(fun e -> e <> eid) g ~source:0 in
  check_float "around the ring" 3.0 (Option.get (Dijkstra.distance r 1))

let unreachable () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1 1.0);
  let r = Dijkstra.run g ~source:0 in
  check "no distance" true (Dijkstra.distance r 2 = None);
  check "no path" true (Dijkstra.path_nodes r 2 = None);
  check "reachable" true (Dijkstra.reachable r 1)

let absorbing_stops_relaxation () =
  (* Line 0-1-2-3 where 1 absorbs: 2 and 3 must be unreachable even though
     the graph connects them through 1. *)
  let g = Fixtures.line 4 in
  let r = Dijkstra.run ~absorb:(fun v -> v = 1) g ~source:0 in
  check "reaches absorber" true (Dijkstra.reachable r 1);
  check "cannot pass through" false (Dijkstra.reachable r 2)

let absorbing_source_still_relaxes () =
  let g = Fixtures.line 3 in
  let r = Dijkstra.run ~absorb:(fun v -> v = 0) g ~source:0 in
  check "source absorb ignored" true (Dijkstra.reachable r 2)

let absorbing_picks_off_tree_interior () =
  (* Diamond: target 3 absorbing, both 1 and 2 ordinary: path goes through
     the cheaper interior. *)
  let g = Fixtures.diamond () in
  let r = Dijkstra.run ~absorb:(fun v -> v = 1 || v = 3) g ~source:0 in
  check_float "direct to 1" 1.0 (Option.get (Dijkstra.distance r 1));
  check_ilist "to 3 via 2 only" [ 0; 2; 3 ] (Option.get (Dijkstra.path_nodes r 3))

let shortest_path_convenience () =
  let g = Fixtures.diamond () in
  match Dijkstra.shortest_path g ~src:0 ~dst:3 with
  | Some (d, nodes, edges) ->
      check_float "delay" 2.0 d;
      check_int "nodes" 3 (List.length nodes);
      check_int "edges" 2 (List.length edges)
  | None -> Alcotest.fail "expected path"

(* -- Paths ------------------------------------------------------------- *)

let path_of_edges () =
  let g = Fixtures.line 4 in
  let edges = Option.get (Dijkstra.path_edges (Dijkstra.run g ~source:0) 3) in
  let p = Paths.of_edges g ~src:0 edges in
  check_float "delay" 3.0 p.Paths.delay;
  check_ilist "nodes" [ 0; 1; 2; 3 ] p.Paths.nodes;
  check "simple" true (Paths.is_simple p)

let path_concat () =
  let g = Fixtures.line 5 in
  let e01 = (Option.get (Graph.edge_between g 0 1)).Graph.id in
  let e12 = (Option.get (Graph.edge_between g 1 2)).Graph.id in
  let p = Paths.of_edges g ~src:0 [ e01 ] in
  let q = Paths.of_edges g ~src:1 [ e12 ] in
  let pq = Paths.concat p q in
  check_ilist "joined" [ 0; 1; 2 ] pq.Paths.nodes;
  check_float "delay adds" 2.0 pq.Paths.delay;
  Alcotest.check_raises "mismatched concat" (Invalid_argument "Paths.concat: endpoints do not meet")
    (fun () -> ignore (Paths.concat q p))

let yen_diamond () =
  let g = Fixtures.diamond () in
  let paths = Paths.yen ~k:3 g ~src:0 ~dst:3 in
  check_int "two disjoint paths exist" 2 (List.length paths);
  check "sorted" true
    (let ds = List.map (fun p -> p.Paths.delay) paths in
     List.sort compare ds = ds);
  List.iter (fun p -> check "loopless" true (Paths.is_simple p)) paths

let yen_ring () =
  let g = Fixtures.ring 6 in
  let paths = Paths.yen ~k:5 g ~src:0 ~dst:2 in
  check_int "both ways around" 2 (List.length paths);
  check_float "short way" 2.0 (List.hd paths).Paths.delay;
  check_float "long way" 4.0 (List.nth paths 1).Paths.delay

let yen_distinct () =
  let g = Fixtures.grid 3 in
  let paths = Paths.yen ~k:4 g ~src:0 ~dst:8 in
  check_int "four paths" 4 (List.length paths);
  let keys = List.map (fun p -> p.Paths.edges) paths in
  check "all distinct" true (List.length (List.sort_uniq compare keys) = 4)

let yen_respects_filters () =
  (* With node 1 filtered out of the diamond, only the 0-2-3 path remains. *)
  let g = Fixtures.diamond () in
  let paths = Paths.yen ~k:3 ~node_ok:(fun v -> v <> 1) g ~src:0 ~dst:3 in
  check_int "single path" 1 (List.length paths);
  check_ilist "the surviving route" [ 0; 2; 3 ] (List.hd paths).Paths.nodes

let yen_zero_k () =
  let g = Fixtures.diamond () in
  check_int "k=0 yields nothing" 0 (List.length (Paths.yen ~k:0 g ~src:0 ~dst:3))

(* -- Connectivity ------------------------------------------------------ *)

let components_basic () =
  let g = Graph.create 5 in
  ignore (Graph.add_edge g 0 1 1.0);
  ignore (Graph.add_edge g 2 3 1.0);
  let comp, count = Connectivity.components g in
  check_int "three components" 3 count;
  check "0 and 1 together" true (comp.(0) = comp.(1));
  check "2 and 3 together" true (comp.(2) = comp.(3));
  check "4 alone" true (comp.(4) <> comp.(0) && comp.(4) <> comp.(2))

let filtered_connectivity () =
  let g = Fixtures.ring 5 in
  let eid = (Option.get (Graph.edge_between g 0 1)).Graph.id in
  check "ring stays connected without one edge" true
    (Connectivity.is_connected ~edge_ok:(fun e -> e <> eid) g);
  let eid2 = (Option.get (Graph.edge_between g 2 3)).Graph.id in
  check "two cuts split it" false
    (Connectivity.is_connected ~edge_ok:(fun e -> e <> eid && e <> eid2) g)

let reachable_from () =
  let g = Fixtures.line 4 in
  let seen = Connectivity.reachable_from ~node_ok:(fun v -> v <> 2) g 0 in
  check "reaches 1" true seen.(1);
  check "blocked at 2" false seen.(2);
  check "cannot pass" false seen.(3)

let bridges_line () =
  let g = Fixtures.line 4 in
  check_int "all edges are bridges" 3 (List.length (Connectivity.bridges g))

let bridges_ring () =
  let g = Fixtures.ring 5 in
  check_ilist "no bridges in a cycle" [] (Connectivity.bridges g)

let bridges_mixed () =
  (* A triangle with a pendant: only the pendant edge is a bridge. *)
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1 1.0);
  ignore (Graph.add_edge g 1 2 1.0);
  ignore (Graph.add_edge g 2 0 1.0);
  let pendant = Graph.add_edge g 2 3 1.0 in
  check_ilist "pendant only" [ pendant ] (Connectivity.bridges g)

let articulation_star () =
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1 1.0);
  ignore (Graph.add_edge g 0 2 1.0);
  ignore (Graph.add_edge g 0 3 1.0);
  check_ilist "hub is the cut vertex" [ 0 ] (Connectivity.articulation_points g)

let articulation_ring () =
  let g = Fixtures.ring 5 in
  check_ilist "cycle has none" [] (Connectivity.articulation_points g)

(* -- Subgraph ---------------------------------------------------------- *)

let subgraph_extract () =
  let g = Fixtures.diamond () in
  let sub = Subgraph.extract g ~keep:(fun v -> v <> 1) in
  check_int "three nodes" 3 (Graph.node_count sub.Subgraph.graph);
  check_int "two edges" 2 (Graph.edge_count sub.Subgraph.graph);
  check "dropped node unmapped" true (Subgraph.node_to_sub sub 1 = None);
  let s0 = Option.get (Subgraph.node_to_sub sub 0) in
  check_int "round trip" 0 (Subgraph.node_from_sub sub s0);
  (* Edge ids map back onto original ids. *)
  Array.iteri
    (fun sub_id orig_id ->
      let se = Graph.edge sub.Subgraph.graph sub_id in
      let oe = Graph.edge g orig_id in
      check_float "delay preserved" oe.Graph.delay se.Graph.delay)
    sub.Subgraph.edge_from_sub

let subgraph_preserves_costs () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge ~cost:9.0 g 0 1 2.0);
  ignore (Graph.add_edge g 1 2 3.0);
  let sub = Subgraph.extract g ~keep:(fun _ -> true) in
  check_float "cost preserved" 9.0 (Graph.edge sub.Subgraph.graph 0).Graph.cost

(* -- Properties -------------------------------------------------------- *)

let random_graph seed n extra_edges =
  let rng = Smrp_rng.Rng.create seed in
  let g = Graph.create n in
  (* Random spanning tree plus chords: always connected. *)
  for v = 1 to n - 1 do
    let u = Smrp_rng.Rng.int rng v in
    ignore (Graph.add_edge g u v (0.1 +. Smrp_rng.Rng.float rng 5.0))
  done;
  for _ = 1 to extra_edges do
    let u = Smrp_rng.Rng.int rng n and v = Smrp_rng.Rng.int rng n in
    if u <> v && not (Graph.mem_edge g u v) then
      ignore (Graph.add_edge g u v (0.1 +. Smrp_rng.Rng.float rng 5.0))
  done;
  g

let qcheck_triangle_inequality =
  QCheck.Test.make ~name:"dijkstra satisfies the triangle inequality on edges" ~count:100
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let g = random_graph seed n n in
      let r = Dijkstra.run g ~source:0 in
      Graph.fold_edges
        (fun ok e ->
          ok
          &&
          match (Dijkstra.distance r e.Graph.u, Dijkstra.distance r e.Graph.v) with
          | Some du, Some dv -> dv <= du +. e.Graph.delay +. 1e-9 && du <= dv +. e.Graph.delay +. 1e-9
          | _ -> false)
        true g)

let qcheck_yen_sorted_loopless =
  QCheck.Test.make ~name:"yen paths are loopless, distinct and sorted" ~count:60
    QCheck.(pair small_int (int_range 4 25))
    (fun (seed, n) ->
      let g = random_graph seed n (2 * n) in
      let paths = Paths.yen ~k:4 g ~src:0 ~dst:(n - 1) in
      let sorted = List.map (fun p -> p.Paths.delay) paths in
      List.for_all Paths.is_simple paths
      && List.sort compare sorted = sorted
      && List.length (List.sort_uniq compare (List.map (fun p -> p.Paths.edges) paths))
         = List.length paths)

let qcheck_bridge_removal_disconnects =
  QCheck.Test.make ~name:"removing a bridge disconnects; removing a non-bridge does not" ~count:60
    QCheck.(pair small_int (int_range 3 30))
    (fun (seed, n) ->
      let g = random_graph seed n (n / 2) in
      let bridges = Connectivity.bridges g in
      Graph.fold_edges
        (fun ok e ->
          ok
          &&
          let still = Connectivity.is_connected ~edge_ok:(fun id -> id <> e.Graph.id) g in
          if List.mem e.Graph.id bridges then not still else still)
        true g)

(* -- Nearest-target early stop ----------------------------------------- *)

module Rng = Smrp_rng.Rng
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Smrp = Smrp_core.Smrp

(* Connected random graph with delays in {1, 2, 3}: plenty of equal-distance
   ties, so tie-breaks are exercised, not just distances. *)
let tie_graph rng n extra =
  let g = Graph.create n in
  for v = 1 to n - 1 do
    ignore (Graph.add_edge g (Rng.int rng v) v (float_of_int (1 + Rng.int rng 3)))
  done;
  for _ = 1 to extra do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Graph.mem_edge g u v) then
      ignore (Graph.add_edge g u v (float_of_int (1 + Rng.int rng 3)))
  done;
  g

(* [run ~stop] against [run_reference] without a stop.  With [d] the
   reference distance of the nearest target other than the source: every
   node at distance <= d has the reference's distance, parent and path
   (hence parent edge), and every other node reads unreachable or farther
   than [d].  The filter shape picks each of [run]'s four search loops. *)
let early_stop_matches_reference =
  QCheck.Test.make ~name:"run ~stop settles exactly a full run's prefix" ~count:400
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1) in
      let n = 2 + Rng.int rng 40 in
      let g = tie_graph rng n (Rng.int rng (2 * n)) in
      let source = Rng.int rng n in
      let blocked = Array.init n (fun v -> v <> source && Rng.int rng 8 = 0) in
      let eblocked = Array.init (Graph.edge_count g) (fun _ -> Rng.int rng 8 = 0) in
      let absorbed = Array.init n (fun _ -> Rng.int rng 5 = 0) in
      let targets =
        match Rng.int rng 4 with
        | 0 -> absorbed
        | 1 -> Array.init n (fun v -> v = Rng.int rng n) (* about one target *)
        | 2 -> Array.make n false (* never fires: a full run *)
        | _ -> Array.init n (fun v -> v = source || Rng.int rng 6 = 0)
      in
      let node_ok v = not blocked.(v)
      and edge_ok e = not eblocked.(e)
      and absorb v = absorbed.(v)
      and stop v = targets.(v) in
      let ws = Dijkstra.workspace () in
      ignore (Dijkstra.run ~workspace:ws g ~source:((source + 1) mod n));
      let r, oracle =
        match Rng.int rng 5 with
        | 0 -> (Dijkstra.run ~stop ~workspace:ws g ~source, Dijkstra.run_reference g ~source)
        | 1 ->
            ( Dijkstra.run ~absorb ~stop ~workspace:ws g ~source,
              Dijkstra.run_reference ~absorb g ~source )
        | 2 ->
            ( Dijkstra.run ~node_ok ~absorb ~stop ~workspace:ws g ~source,
              Dijkstra.run_reference ~node_ok ~absorb g ~source )
        | 3 ->
            ( Dijkstra.run ~node_ok ~edge_ok ~absorb ~stop ~workspace:ws g ~source,
              Dijkstra.run_reference ~node_ok ~edge_ok ~absorb g ~source )
        | _ ->
            ( Dijkstra.run ~edge_ok ~stop ~workspace:ws g ~source,
              Dijkstra.run_reference ~edge_ok g ~source )
      in
      let d = ref infinity in
      for v = 0 to n - 1 do
        match Dijkstra.distance oracle v with
        | Some dv when v <> source && targets.(v) && dv < !d -> d := dv
        | _ -> ()
      done;
      List.for_all
        (fun v ->
          match Dijkstra.distance oracle v with
          | Some dv when dv <= !d ->
              Dijkstra.distance r v = Some dv
              && Dijkstra.parent r v = Dijkstra.parent oracle v
              && Dijkstra.path_nodes r v = Dijkstra.path_nodes oracle v
              && Dijkstra.path_edges r v = Dijkstra.path_edges oracle v
          | _ -> ( match Dijkstra.distance r v with None -> true | Some dv -> dv > !d))
        (List.init n Fun.id))

(* The fully filtered search loop (taken whenever [edge_ok] is given) pushes
   without boxing a float: one run on a 200-node Waxman graph that borrows a
   warm workspace allocates only its fixed per-run closures and result,
   not a word per relaxation (boxed pushes cost ~670 words here). *)
let filtered_run_allocation () =
  let g =
    (Smrp_topology.Waxman.generate (Rng.create 7) ~n:200 ~alpha:0.2 ~beta:0.2)
      .Smrp_topology.Waxman.graph
  in
  let edge_ok e = e mod 7 <> 3 in
  let ws = Dijkstra.workspace ~capacity:200 () in
  ignore (Dijkstra.run ~edge_ok ~workspace:ws g ~source:0);
  let w0 = Gc.minor_words () in
  let r = Dijkstra.run ~edge_ok ~workspace:ws g ~source:0 in
  let words = Gc.minor_words () -. w0 in
  check "search reached most of the graph" true
    (List.length (List.filter (fun v -> Dijkstra.distance r v <> None) (List.init 200 Fun.id))
    > 100);
  if words >= 100.0 then Alcotest.failf "filtered run allocated %.0f words, expected < 100" words

(* The detour searches as they were before the early stop: full reference
   searches and the same descending scans, kept here as the oracle. *)
let reference_nearest g result ~target =
  let best = ref None in
  for v = Graph.node_count g - 1 downto 0 do
    if target v then
      match (Dijkstra.distance result v, !best) with
      | Some d, Some (bd, _) when bd < d -> ()
      | Some d, _ -> best := Some (d, v)
      | None, _ -> ()
  done;
  Option.map
    (fun (d, merge) ->
      (d, merge, Option.get (Dijkstra.path_nodes result merge), Option.get (Dijkstra.path_edges result merge)))
    !best

let detour_of t ~member (d, merge, path_nodes, path_edges) =
  {
    Recovery.member;
    merge;
    path_nodes;
    path_edges;
    recovery_distance = d;
    new_total_delay = d +. Tree.delay_to_source t merge;
  }

let reference_local_detour t f ~member =
  let g = Tree.graph t in
  let surviving = Failure.tree_connected t f in
  if not (Failure.node_ok f member) then None
  else if surviving.(member) then
    Some (detour_of t ~member (0.0, member, [ member ], []))
  else
    let r =
      Dijkstra.run_reference ~node_ok:(Failure.node_ok f) ~edge_ok:(Failure.edge_ok g f)
        ~absorb:(fun v -> surviving.(v))
        g ~source:member
    in
    Option.map (detour_of t ~member) (reference_nearest g r ~target:(fun v -> surviving.(v)))

let reference_branch_detour t f ~root ~eligible =
  let g = Tree.graph t in
  if not (Failure.node_ok f root) then None
  else
    let node_ok v =
      Failure.node_ok f v && (v = root || (not (Tree.is_on_tree t v)) || eligible v)
    in
    let target v = v <> root && eligible v in
    let r = Dijkstra.run_reference ~node_ok ~edge_ok:(Failure.edge_ok g f) ~absorb:target g ~source:root in
    Option.map (detour_of t ~member:root) (reference_nearest g r ~target)

let reference_global_detour t f ~member =
  let g = Tree.graph t in
  let surviving = Failure.tree_connected t f in
  if not (Failure.node_ok f member) then None
  else if surviving.(member) then
    Some (detour_of t ~member (0.0, member, [ member ], []))
  else
    let r =
      Dijkstra.run_reference ~node_ok:(Failure.node_ok f) ~edge_ok:(Failure.edge_ok g f) g
        ~source:member
    in
    match (Dijkstra.path_nodes r (Tree.source t), Dijkstra.path_edges r (Tree.source t)) with
    | Some nodes, Some edges ->
        let rec prefix nodes edges acc_n acc_e =
          match (nodes, edges) with
          | v :: _, _ when surviving.(v) -> (v, List.rev (v :: acc_n), List.rev acc_e)
          | v :: rest, e :: es -> prefix rest es (v :: acc_n) (e :: acc_e)
          | _ -> assert false
        in
        let merge, path_nodes, path_edges = prefix nodes edges [] [] in
        let d = Paths.delay_of_edges g path_edges in
        Some (detour_of t ~member (d, merge, path_nodes, path_edges))
    | _ -> None

let reference_spf_distance ?failure t v =
  let g = Tree.graph t in
  let r =
    match failure with
    | None -> Dijkstra.run_reference g ~source:v
    | Some f ->
        Dijkstra.run_reference ~node_ok:(Failure.node_ok f) ~edge_ok:(Failure.edge_ok g f) g ~source:v
  in
  Dijkstra.distance r (Tree.source t)

(* Random SMRP tree, random failure (a tree link, an on-tree node or a
   pair), then every early-stopping detour search against its full-search
   reference, through one shared workspace. *)
let detours_match_full_search =
  QCheck.Test.make ~name:"early-stopping detours equal full-search references" ~count:150
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 101) in
      let n = 6 + Rng.int rng 40 in
      let g = tie_graph rng n (Rng.int rng (2 * n)) in
      let source = Rng.int rng n in
      let members =
        List.sort_uniq compare (List.init (1 + Rng.int rng 10) (fun _ -> Rng.int rng n))
        |> List.filter (fun m -> m <> source)
      in
      let t = Smrp.build ~d_thresh:0.3 g ~source ~members in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let one () =
        match (Tree.tree_edges t, List.filter (fun v -> v <> source) (Tree.on_tree_nodes t)) with
        | [], _ -> Failure.Link (Rng.int rng (Graph.edge_count g))
        | es, [] -> Failure.Link (pick es)
        | es, vs -> if Rng.bool rng then Failure.Link (pick es) else Failure.Node (pick vs)
      in
      let f = if Rng.int rng 4 = 0 then Failure.compose [ one (); one () ] else one () in
      let ws = Dijkstra.workspace () in
      let on_tree = Tree.on_tree_nodes t in
      let eligible_bits = Array.init n (fun _ -> Rng.int rng 3 > 0) in
      let eligible v = Tree.is_on_tree t v && eligible_bits.(v) in
      List.for_all
        (fun m ->
          Recovery.local_detour ~ws t f ~member:m = reference_local_detour t f ~member:m
          && Recovery.global_detour ~ws t f ~member:m = reference_global_detour t f ~member:m)
        members
      && List.for_all
           (fun root ->
             Recovery.branch_detour ~ws t f ~root ~eligible
             = reference_branch_detour t f ~root ~eligible)
           on_tree
      && List.for_all
           (fun v ->
             Smrp.spf_distance ~ws t v = reference_spf_distance t v
             && ((not (Failure.node_ok f v))
                || Smrp.spf_distance ~failure:f ~ws t v = reference_spf_distance ~failure:f t v))
           (List.init n Fun.id))

let () =
  Alcotest.run "graph"
    [
      ( "basics",
        [
          Alcotest.test_case "build and inspect" `Quick build_basics;
          Alcotest.test_case "rejects bad edges" `Quick rejects_bad_edges;
          Alcotest.test_case "neighbors and lookup" `Quick neighbors_and_lookup;
          Alcotest.test_case "CSR matches neighbors" `Quick csr_matches_neighbors;
          Alcotest.test_case "freeze empty graph" `Quick freeze_empty;
          Alcotest.test_case "freeze single node" `Quick freeze_single_node;
          Alcotest.test_case "CSR rebuilds after mutation" `Quick csr_rebuilds_after_mutation;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "line distances" `Quick line_distances;
          Alcotest.test_case "grid distance" `Quick grid_distance;
          Alcotest.test_case "blocked node detour" `Quick blocked_node_forces_detour;
          Alcotest.test_case "blocked edge detour" `Quick blocked_edge_forces_detour;
          Alcotest.test_case "unreachable" `Quick unreachable;
          Alcotest.test_case "absorbing stops relaxation" `Quick absorbing_stops_relaxation;
          Alcotest.test_case "absorbing source still relaxes" `Quick absorbing_source_still_relaxes;
          Alcotest.test_case "absorbing interior choice" `Quick absorbing_picks_off_tree_interior;
          Alcotest.test_case "shortest_path convenience" `Quick shortest_path_convenience;
        ] );
      ( "paths",
        [
          Alcotest.test_case "of_edges" `Quick path_of_edges;
          Alcotest.test_case "concat" `Quick path_concat;
          Alcotest.test_case "yen on diamond" `Quick yen_diamond;
          Alcotest.test_case "yen on ring" `Quick yen_ring;
          Alcotest.test_case "yen distinct on grid" `Quick yen_distinct;
          Alcotest.test_case "yen respects filters" `Quick yen_respects_filters;
          Alcotest.test_case "yen k=0" `Quick yen_zero_k;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "components" `Quick components_basic;
          Alcotest.test_case "filtered connectivity" `Quick filtered_connectivity;
          Alcotest.test_case "reachable_from" `Quick reachable_from;
          Alcotest.test_case "bridges on a line" `Quick bridges_line;
          Alcotest.test_case "bridges on a ring" `Quick bridges_ring;
          Alcotest.test_case "bridges mixed" `Quick bridges_mixed;
          Alcotest.test_case "articulation star" `Quick articulation_star;
          Alcotest.test_case "articulation ring" `Quick articulation_ring;
        ] );
      ( "subgraph",
        [
          Alcotest.test_case "extract" `Quick subgraph_extract;
          Alcotest.test_case "costs preserved" `Quick subgraph_preserves_costs;
        ] );
      ( "properties",
        [
          qcheck_case qcheck_triangle_inequality;
          qcheck_case qcheck_yen_sorted_loopless;
          qcheck_case qcheck_bridge_removal_disconnects;
        ] );
      ( "early stop",
        [
          qcheck_case early_stop_matches_reference;
          qcheck_case detours_match_full_search;
          Alcotest.test_case "filtered run allocation" `Quick filtered_run_allocation;
        ] );
    ]
