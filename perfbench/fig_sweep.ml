(* The paper's Fig. 9 evaluation: Scenario.run over 4 alpha values x K
   seeded configs (n = 100, N_G = 30, D_thresh = 0.3). *)

module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Dijkstra = Smrp_graph.Dijkstra
module Connectivity = Smrp_graph.Connectivity
module Waxman = Smrp_topology.Waxman
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Recovery = Smrp_core.Recovery
module Scenario = Smrp_experiments.Scenario

let alphas = [| 0.15; 0.2; 0.25; 0.3 |]

let per_alpha = 50

let checked = 8

(* Scenario.run recomposed from its layers, one span per layer call. *)
let traced_run spans (c : Scenario.config) =
  let span name f = Spans.span spans name f in
  let rng = Rng.create c.Scenario.seed in
  let topo_rng = Rng.split rng in
  let member_rng = Rng.split rng in
  let topo =
    span "waxman.generate" (fun () ->
        Waxman.generate ~link_delay:c.Scenario.link_delay topo_rng ~n:c.Scenario.n
          ~alpha:c.Scenario.alpha ~beta:c.Scenario.beta)
  in
  let graph = topo.Waxman.graph in
  let source, members =
    span "scenario.pick_group" (fun () ->
        Scenario.pick_group member_rng ~n:c.Scenario.n ~group_size:c.Scenario.group_size)
  in
  let ws = Dijkstra.workspace ~capacity:(Graph.node_count graph) () in
  let spf_tree = span "spf.build" (fun () -> Smrp_core.Spf.build ~ws graph ~source ~members) in
  let smrp_tree =
    span "smrp.build" (fun () ->
        Smrp_core.Smrp.build ~d_thresh:c.Scenario.d_thresh ~ws graph ~source ~members)
  in
  let rd tree m strategy =
    match span "failure.worst_case" (fun () -> Failure.worst_case_for_member tree m) with
    | None -> None
    | Some f ->
        let d =
          match strategy with
          | `Local -> span "recovery.local_detour" (fun () -> Recovery.local_detour ~ws tree f ~member:m)
          | `Global ->
              span "recovery.global_detour" (fun () -> Recovery.global_detour ~ws tree f ~member:m)
        in
        Option.map (fun d -> d.Recovery.recovery_distance) d
  in
  let outcome m =
    let rd_local_spf = rd spf_tree m `Local in
    let rd_local_smrp = rd smrp_tree m `Local in
    let rd_global_spf = rd spf_tree m `Global in
    let rd_global_smrp = rd smrp_tree m `Global in
    let delay_spf, delay_smrp =
      span "tree.delay" (fun () -> (Tree.delay_to_source spf_tree m, Tree.delay_to_source smrp_tree m))
    in
    { Scenario.member = m; rd_local_spf; rd_local_smrp; rd_global_spf; rd_global_smrp; delay_spf;
      delay_smrp }
  in
  let outcomes = List.map outcome members in
  let cost_spf, cost_smrp =
    span "tree.cost" (fun () -> (Tree.total_cost spf_tree, Tree.total_cost smrp_tree))
  in
  (outcomes, cost_spf, cost_smrp)

(* An isolated member is a correct answer only if its worst-case failure
   really cuts it off from the source. *)
let isolated_correctly tree m =
  match Failure.worst_case_for_member tree m with
  | None -> true
  | Some f ->
      let g = Tree.graph tree in
      let reach =
        Connectivity.reachable_from ~node_ok:(Failure.node_ok f) ~edge_ok:(Failure.edge_ok g f) g
          (Tree.source tree)
      in
      not reach.(m)

let prepare ~seed =
  let rng = Rng.create seed in
  let configs =
    Array.concat
      (Array.to_list
         (Array.map
            (fun a ->
              Array.map
                (fun s -> { Scenario.default with Scenario.alpha = a; seed = s })
                (Workload.seeds rng per_alpha))
            alphas))
  in
  let n = Array.length configs in
  let results = Array.make n None in
  let run i = results.(i) <- Some (Scenario.run configs.(i)) in
  let result i = Option.get results.(i) in
  let traced spans i =
    Spans.span spans "round" (fun () -> ignore (traced_run spans configs.(i)))
  in
  let check () =
    let problems = ref [] and attempted = ref 0 and failed = ref 0 in
    Array.iteri
      (fun i _ ->
        let t = result i in
        List.iter
          (fun (o : Scenario.member_outcome) ->
            incr attempted;
            let ok tree = function Some _ -> true | None -> isolated_correctly tree o.member in
            if
              not
                (ok t.Scenario.spf_tree o.rd_local_spf
                && ok t.Scenario.smrp_tree o.rd_local_smrp
                && ok t.Scenario.spf_tree o.rd_global_spf
                && ok t.Scenario.smrp_tree o.rd_global_smrp)
            then incr failed)
          t.Scenario.outcomes;
        if i < checked then begin
          let outcomes, cost_spf, cost_smrp = traced_run (Spans.create ()) configs.(i) in
          if outcomes <> t.Scenario.outcomes || cost_spf <> t.cost_spf || cost_smrp <> t.cost_smrp
          then Workload.problem problems "fig-sweep: recomposed scenario %d differs from Scenario.run" i;
          if (Scenario.run configs.(i)).Scenario.outcomes <> t.Scenario.outcomes then
            Workload.problem problems "fig-sweep: Scenario.run %d not repeatable" i
        end)
      configs;
    { Workload.attempted = !attempted; failed = !failed; problems = !problems }
  in
  let exact () =
    let sum = ref 0.0 and count = ref 0 in
    Array.iteri
      (fun i _ ->
        List.iter
          (fun (o : Scenario.member_outcome) ->
            Option.iter
              (fun rd ->
                sum := !sum +. rd;
                incr count)
              o.rd_local_smrp)
          (result i).Scenario.outcomes)
      configs;
    [ Workload.metric "recovery_distance_mean" "hops" (!sum /. float_of_int (max 1 !count)) ]
  in
  let layers tbl ~rounds:_ =
    List.concat_map
      (fun name -> [ Workload.seconds tbl name; Workload.words tbl name ])
      [ "waxman.generate"; "smrp.build"; "recovery.local_detour"; "recovery.global_detour" ]
    @ [ Workload.seconds tbl "spf.build"; Workload.seconds tbl "failure.worst_case" ]
  in
  {
    Workload.batch = 10;
    inputs = n;
    sizes = [ ("alphas", Array.length alphas); ("configs_per_alpha", per_alpha); ("scenarios", n);
              ("checked_scenarios", min n checked) ];
    run;
    traced;
    check;
    exact;
    layers;
  }
