module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Paths = Smrp_graph.Paths

type detour = {
  member : int;
  merge : int;
  path_nodes : int list;
  path_edges : int list;
  recovery_distance : float;
  new_total_delay : float;
}

let trivial t member =
  {
    member;
    merge = member;
    path_nodes = [ member ];
    path_edges = [];
    recovery_distance = 0.0;
    new_total_delay = Tree.delay_to_source t member;
  }

let local_detour ?ws t f ~member =
  if not (Failure.node_ok f member) then None
  else begin
    let g = Tree.graph t in
    let surviving = Failure.tree_connected t f in
    if surviving.(member) then Some (trivial t member)
    else begin
      let target v = surviving.(v) in
      let result =
        Dijkstra.run
          ~node_ok:(Failure.node_ok f)
          ~edge_ok:(Failure.edge_ok g f)
          ~absorb:target ~stop:target ?workspace:ws g ~source:member
      in
      (* Descending scan with non-strict replacement: ties on distance end
         at the smallest node id, keeping recovery deterministic.  The
         search stopped at the nearest surviving node; every node it left
         unsettled reads farther, so the winner is a full search's. *)
      let best = ref None in
      for v = Graph.node_count g - 1 downto 0 do
        if surviving.(v) && Dijkstra.reachable result v then begin
          let d = Option.get (Dijkstra.distance result v) in
          match !best with
          | Some (bd, _) when bd < d -> ()
          | _ -> best := Some (d, v)
        end
      done;
      match !best with
      | None -> None
      | Some (d, merge) ->
          let path_nodes = Option.get (Dijkstra.path_nodes result merge) in
          let path_edges = Option.get (Dijkstra.path_edges result merge) in
          Some
            {
              member;
              merge;
              path_nodes;
              path_edges;
              recovery_distance = d;
              new_total_delay = d +. Tree.delay_to_source t merge;
            }
    end
  end

(* Branch detour: the re-attachment path of a whole orphaned subtree, used
   by the precomputed-protection tables ([Protect]) and as the search-based
   oracle they are checked against.  [root] is the orphan's root; [eligible]
   marks the merge targets (on-tree, outside the orphaned region, and
   surviving the post-failure pruning — the caller computes this);
   [excluded] marks the orphaned region itself.  Interior path nodes must be
   strictly off-tree, exactly as in the SMRP candidate search (footnote 4),
   so the merge point is the true merge point. *)
let branch_detour ?ws t f ~root ~eligible =
  if not (Failure.node_ok f root) then None
  else begin
    let g = Tree.graph t in
    let node_ok v =
      Failure.node_ok f v && (v = root || (not (Tree.is_on_tree t v)) || eligible v)
    in
    let absorb v = v <> root && eligible v in
    let result =
      Dijkstra.run ~node_ok ~edge_ok:(Failure.edge_ok g f) ~absorb ~stop:absorb ?workspace:ws
        g ~source:root
    in
    (* Same descending non-strict scan as [local_detour]: deterministic
       smallest-id winner on recovery-distance ties. *)
    let best = ref None in
    for v = Graph.node_count g - 1 downto 0 do
      if v <> root && eligible v && Dijkstra.reachable result v then begin
        let d = Option.get (Dijkstra.distance result v) in
        match !best with
        | Some (bd, _) when bd < d -> ()
        | _ -> best := Some (d, v)
      end
    done;
    match !best with
    | None -> None
    | Some (d, merge) ->
        let path_nodes = Option.get (Dijkstra.path_nodes result merge) in
        let path_edges = Option.get (Dijkstra.path_edges result merge) in
        Some
          {
            member = root;
            merge;
            path_nodes;
            path_edges;
            recovery_distance = d;
            new_total_delay = d +. Tree.delay_to_source t merge;
          }
  end

let surviving_tree old f =
  let fresh = Tree.create (Tree.graph old) ~source:(Tree.source old) in
  let connected = Failure.tree_connected old f in
  (* Re-graft the path of each surviving member rather than copying the
     whole surviving structure: relay chains whose members were all cut off
     must not survive (they would violate the pruning discipline). *)
  List.iter
    (fun m ->
      if connected.(m) then begin
        (* Path runs m..source; find the deepest node already on [fresh]
           and graft the suffix from there down to m. *)
        let rec split acc = function
          | v :: _ when Tree.is_on_tree fresh v -> Some (v :: acc)
          | v :: rest -> split (v :: acc) rest
          | [] -> None
        in
        (match split [] (Tree.path_to_source old m) with
        | Some (merge :: _ :: _ as nodes) ->
            ignore merge;
            let edges =
              match nodes with
              | _ :: rest -> List.map (fun v -> Option.get (Tree.parent_edge old v)) rest
              | [] -> []
            in
            Tree.graft fresh ~nodes ~edges
        | Some ([] | [ _ ]) | None -> ());
        Tree.add_member fresh m
      end)
    (Tree.members old);
  fresh

let global_detour ?ws t f ~member =
  if not (Failure.node_ok f member) then None
  else begin
    let g = Tree.graph t in
    let surviving = Failure.tree_connected t f in
    if surviving.(member) then Some (trivial t member)
    else begin
      match
        Dijkstra.shortest_path
          ~node_ok:(Failure.node_ok f)
          ~edge_ok:(Failure.edge_ok g f)
          ?workspace:ws g ~src:member ~dst:(Tree.source t)
      with
      | None -> None
      | Some (_, nodes, edges) ->
          (* The re-issued join grafts at the first on-tree node along the
             new unicast path that still receives data; only the prefix up to
             it counts as recovery effort. *)
          let rec prefix nodes edges acc_nodes acc_edges =
            match (nodes, edges) with
            | v :: _, _ when surviving.(v) -> (v, List.rev (v :: acc_nodes), List.rev acc_edges)
            | v :: rest, e :: es -> prefix rest es (v :: acc_nodes) (e :: acc_edges)
            | _ -> invalid_arg "Recovery.global_detour: path misses the source"
          in
          let merge, path_nodes, path_edges = prefix nodes edges [] [] in
          let rd = Paths.delay_of_edges g path_edges in
          Some
            {
              member;
              merge;
              path_nodes;
              path_edges;
              recovery_distance = rd;
              new_total_delay = rd +. Tree.delay_to_source t merge;
            }
    end
  end
