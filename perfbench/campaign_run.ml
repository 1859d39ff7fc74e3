(* Campaign.run ~jobs:1 on the quick matrix over a fixed set of campaign
   seeds. *)

module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Connectivity = Smrp_graph.Connectivity
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Session = Smrp_core.Session
module Waxman = Smrp_topology.Waxman
module Transit_stub = Smrp_topology.Transit_stub
module Flat_models = Smrp_topology.Flat_models
module Scale = Smrp_topology.Scale
module Metrics = Smrp_obs.Metrics
module Sketch = Smrp_obs.Sketch
module Series = Smrp_obs.Series
module Report = Smrp_obs.Report
module Campaign = Smrp_experiments.Campaign
module Churn = Smrp_experiments.Churn
module Failure_model = Smrp_experiments.Failure_model

let campaigns = 10

type row = {
  mutable joins : int;
  mutable leaves : int;
  mutable skipped : int;
  mutable fail_events : int;
  mutable disrupted : int;
  mutable repaired : int;
  mutable lost : int;
  mutable unreachable_lost : int;  (** Lost members the network had cut off. *)
  mutable members_final : int;
  mutable rd : float list;
  mutable delays : float list;
  mutable disrupted_t : (float * float) list;
}

let topology = function
  | Campaign.Waxman { n; alpha; beta; link_delay } ->
      fun rng -> (Waxman.generate ~link_delay rng ~n ~alpha ~beta).Waxman.graph
  | Campaign.Transit_stub params -> fun rng -> (Transit_stub.generate rng params).Transit_stub.graph
  | Campaign.Locality { n; radius; p_near; p_far } ->
      fun rng -> (Flat_models.locality rng ~n ~radius ~p_near ~p_far).Flat_models.graph
  | Campaign.Scale_waxman { n; target_degree } ->
      let alpha, beta = Scale.degree_params ~n ~target_degree in
      fun rng -> (Scale.waxman rng ~n ~alpha ~beta).Scale.graph

let session_of g ~source = function
  | Campaign.Spf_baseline -> Session.create g ~source ~protocol:Session.Spf
  | Campaign.Smrp { d_thresh; protection } ->
      Session.create ~protection g ~source ~protocol:(Session.Smrp { d_thresh })
  | Campaign.Smrp_query { d_thresh } ->
      Session.create g ~source ~protocol:(Session.Smrp_query { d_thresh })

(* One cell instance, as the campaign's cell runner plays it, one span per
   layer call. *)
let traced_instance ~verify spans spec (cell : Campaign.cell) acc rng =
  let span name f = Spans.span spans name f in
  let g = span "topology.generate" (fun () -> topology (snd cell.Campaign.c_topology) (Rng.split rng)) in
  let n = Graph.node_count g in
  let source = Rng.int rng n in
  let churn_rng = Rng.split rng in
  let fail_rng = Rng.split rng in
  let churn =
    span "churn.schedule" (fun () ->
        Churn.schedule (snd cell.Campaign.c_churn) churn_rng ~n ~source ~horizon:spec.Campaign.horizon)
  in
  let fmodel = snd cell.Campaign.c_failure in
  let draw_span =
    match fmodel with
    | Failure_model.Adversarial _ -> "failure_model.draw_adversarial"
    | Failure_model.Independent _ -> "failure_model.draw_independent"
    | _ -> "failure_model.draw_other"
  in
  let k = Failure_model.events fmodel in
  let horizon = spec.Campaign.horizon in
  let fail_times = List.init k (fun i -> horizon *. float_of_int (i + 1) /. float_of_int (k + 1)) in
  let s = span "session.create" (fun () -> session_of g ~source (snd cell.Campaign.c_protocol)) in
  let ws = Failure_model.create_ws () in
  let timeline =
    List.merge
      (fun (t1, _) (t2, _) -> compare (t1 : float) t2)
      (List.map (fun { Churn.at; op } -> (at, Some op)) churn)
      (List.map (fun at -> (at, None)) fail_times)
  in
  let apply (at, act) =
    match act with
    | Some (Churn.Join m) ->
        span "session.join" (fun () ->
            let tree = Session.tree s in
            let failure = Session.active_failure s in
            let dead = match failure with Some f -> not (Failure.node_ok f m) | None -> false in
            if Tree.is_member tree m || dead then acc.skipped <- acc.skipped + 1
            else
              match Smrp_core.Smrp.spf_distance ?failure tree m with
              | None -> acc.skipped <- acc.skipped + 1
              | Some _ ->
                  Session.join s m;
                  acc.joins <- acc.joins + 1)
    | Some (Churn.Leave m) ->
        span "session.leave" (fun () ->
            if Tree.is_member (Session.tree s) m then begin
              Session.leave s m;
              acc.leaves <- acc.leaves + 1
            end
            else acc.skipped <- acc.skipped + 1)
    | None -> (
        let tree = Session.tree s in
        match span draw_span (fun () -> Failure_model.draw ws fmodel fail_rng g ~tree) with
        | None -> ()
        | Some f ->
            acc.fail_events <- acc.fail_events + 1;
            let d = span "failure_model.disrupted" (fun () -> Failure_model.disrupted tree f) in
            acc.disrupted <- acc.disrupted + d;
            acc.disrupted_t <- (at, float_of_int d) :: acc.disrupted_t;
            let before = Tree.members tree in
            let repairs = span "session.fail" (fun () -> Session.fail s f) in
            acc.repaired <- acc.repaired + List.length repairs;
            List.iter
              (fun r -> acc.rd <- r.Session.detour.Smrp_core.Recovery.recovery_distance :: acc.rd)
              repairs;
            let after = Session.tree s in
            acc.lost <- acc.lost + (List.length before - Tree.member_count after);
            (* A lost member is correct only if it is dead or cut off. *)
            if verify then begin
            let all = Option.get (Session.active_failure s) in
            let reach =
              Connectivity.reachable_from ~node_ok:(Failure.node_ok all)
                ~edge_ok:(Failure.edge_ok g all) g source
            in
            List.iter
              (fun m ->
                if (not (Tree.is_member after m)) && ((not (Failure.node_ok all m)) || not reach.(m))
                then acc.unreachable_lost <- acc.unreachable_lost + 1)
              before
            end)
  in
  List.iter apply timeline;
  span "tree.delay" (fun () ->
      let tree = Session.tree s in
      acc.members_final <- acc.members_final + Tree.member_count tree;
      List.iter (fun m -> acc.delays <- Tree.delay_to_source tree m :: acc.delays) (Tree.members tree))

let empty_row () =
  { joins = 0; leaves = 0; skipped = 0; fail_events = 0; disrupted = 0; repaired = 0; lost = 0;
    unreachable_lost = 0; members_final = 0; rd = []; delays = []; disrupted_t = [] }

(* The report projection of one cell row, as the campaign records it. *)
let variant_of spec (cell : Campaign.cell) row =
  let m = Metrics.create () in
  let set name v = Metrics.Counter.add (Metrics.counter m name) v in
  set "churn.joins" row.joins;
  set "churn.leaves" row.leaves;
  set "churn.skipped" row.skipped;
  set "fail.events" row.fail_events;
  set "fail.disrupted" row.disrupted;
  set "fail.repaired" row.repaired;
  set "fail.lost" row.lost;
  set "members.final" row.members_final;
  let rd = Metrics.sketch m "rd.q" in
  List.iter (Sketch.observe rd) (List.rev row.rd);
  let delay = Metrics.sketch m "delay.q" in
  List.iter (Sketch.observe delay) (List.rev row.delays);
  let series =
    Metrics.series m ~kind:Series.Sum ~interval:(spec.Campaign.horizon /. 32.0) "disrupted.t"
  in
  List.iter (fun (ts, v) -> Series.observe series ~ts v) (List.rev row.disrupted_t);
  let attrs =
    [
      ("topology", fst cell.Campaign.c_topology); ("churn", fst cell.Campaign.c_churn);
      ("failure", fst cell.Campaign.c_failure); ("protocol", fst cell.Campaign.c_protocol);
      ("seed", string_of_int (Campaign.cell_seed spec cell));
    ]
  in
  Report.of_metrics ~name:cell.Campaign.c_name ~attrs m

(* Campaign.run recomposed; returns the report digest and the rows. *)
let traced_run ?(verify = false) spans spec =
  let span name f = Spans.span spans name f in
  let cells = Campaign.cells spec in
  let rows =
    List.map
      (fun cell ->
        let root = Rng.create (Campaign.cell_seed spec cell) in
        let acc = empty_row () in
        for _ = 1 to spec.Campaign.instances do
          traced_instance ~verify spans spec cell acc (Rng.split root)
        done;
        acc)
      cells
  in
  let digest =
    span "report.render" (fun () ->
        let variants = List.map2 (variant_of spec) cells rows in
        let meta =
          [
            ("campaign.seed", string_of_int spec.Campaign.seed);
            ("campaign.instances", string_of_int spec.Campaign.instances);
            ("campaign.horizon", Printf.sprintf "%g" spec.Campaign.horizon);
            ( "campaign.matrix",
              Printf.sprintf "%dx%dx%dx%d"
                (List.length spec.Campaign.topologies) (List.length spec.Campaign.churns)
                (List.length spec.Campaign.failures) (List.length spec.Campaign.protocols) );
            ("campaign.cells", string_of_int (List.length cells));
          ]
        in
        Campaign.digest (Report.make ~title:"smrp campaign" ~meta variants))
  in
  (digest, rows)

(* Mean recovery distance over every matrix cell's repairs. *)
let rd_mean report =
  let sum, count =
    List.fold_left
      (fun (s, c) v ->
        match List.assoc_opt "rd.q" v.Report.v_dists with
        | Some d -> (s +. d.Report.d_sum, c + d.Report.d_count)
        | None -> (s, c))
      (0.0, 0) report.Report.r_variants
  in
  sum /. float_of_int (max 1 count)

let prepare ~seed =
  let rng = Rng.create seed in
  let specs = Array.map (fun s -> { Campaign.quick with Campaign.seed = s }) (Workload.seeds rng campaigns) in
  let reports = Array.make campaigns None in
  let run i = reports.(i) <- Some (Campaign.run ~jobs:1 specs.(i)) in
  let report i = Option.get reports.(i) in
  let traced spans i = Spans.span spans "round" (fun () -> ignore (traced_run spans specs.(i))) in
  let check () =
    let problems = ref [] in
    let digest = Campaign.digest (report 0) in
    if Campaign.digest (Campaign.run ~jobs:1 specs.(0)) <> digest then
      Workload.problem problems "campaign: digest of campaign 0 not stable across calls";
    let attempted = ref 0 and failed = ref 0 in
    Array.iteri
      (fun i spec ->
        let recomposed, rows = traced_run ~verify:true (Spans.create ()) spec in
        if recomposed <> Campaign.digest (report i) then
          Workload.problem problems "campaign: recomposed campaign %d digest differs from Campaign.run" i;
        List.iter
          (fun r ->
            attempted := !attempted + r.disrupted;
            failed := !failed + r.lost - r.unreachable_lost)
          rows)
      specs;
    { Workload.attempted = !attempted; failed = !failed; problems = !problems }
  in
  let exact () =
    let sum = ref 0.0 in
    for i = 0 to campaigns - 1 do
      sum := !sum +. rd_mean (report i)
    done;
    [ Workload.metric "recovery_distance_mean" "delay" (!sum /. float_of_int campaigns) ]
  in
  let layers tbl ~rounds:_ =
    [
      Workload.seconds tbl "churn.schedule"; Workload.seconds tbl "failure_model.draw_independent";
      Workload.seconds tbl "failure_model.draw_adversarial"; Workload.seconds tbl "report.render";
    ]
  in
  {
    Workload.batch = 1;
    inputs = campaigns;
    sizes =
      [ ("campaigns", campaigns); ("cells_per_campaign", List.length (Campaign.cells Campaign.quick));
        ("instances_per_cell", Campaign.quick.Campaign.instances) ];
    run;
    traced;
    check;
    exact;
    layers;
  }
