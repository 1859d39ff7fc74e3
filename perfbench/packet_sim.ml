(* Latency's SMRP-vs-PIM packet-level restoration over a fixed set of
   [scenarios] draws with a recoverable victim (at least [min_restored]
   SMRP members restored, or the run fails its check), flight recorder on
   as shipped. *)

module Rng = Smrp_rng.Rng
module Waxman = Smrp_topology.Waxman
module Failure = Smrp_core.Failure
module Engine = Smrp_sim.Engine
module Net = Smrp_sim.Net
module Protocol = Smrp_sim.Protocol
module Flight = Smrp_obs.Flight
module Timeline = Smrp_obs.Timeline
module Latency = Smrp_experiments.Latency
module Scenario = Smrp_experiments.Scenario

let scenarios = 32

let min_restored = 200

let checked = 2

let config seed =
  { Latency.default with Latency.scenario = { Latency.default.Latency.scenario with Scenario.seed } }

type side = {
  restored : int;
  disrupted : int;
  mean_detection : float;
  mean_restoration : float;
  control : int;
  events : int;
  frames_sent : int;
  frames_dropped_failure : int;
}

let mean = function [] -> 0.0 | l -> Smrp_metrics.Stats.mean l

(* Latency.run_side recomposed from Engine and Protocol calls. *)
let traced_side spans ?flight (config : Latency.config) ~graph ~source ~members ~victim strategy =
  let span name f = Spans.span spans name f in
  let proto =
    span "protocol.create" (fun () ->
        let engine = Engine.create ?flight () in
        let proto_config =
          { Protocol.default_config with Protocol.strategy;
            ospf_convergence = config.Latency.ospf_convergence;
            d_thresh = config.Latency.scenario.Scenario.d_thresh }
        in
        let proto = Protocol.create ~config:proto_config engine graph ~source in
        Protocol.start proto;
        List.iteri
          (fun i m ->
            ignore
              (Engine.schedule engine ~delay:(0.5 +. float_of_int i) (fun () -> Protocol.join proto m)))
          members;
        proto)
  in
  let engine = Net.engine (Protocol.net proto) in
  span "engine.settle" (fun () -> Engine.run ~until:config.Latency.settle_time engine);
  let before =
    span "protocol.inject_failure" (fun () ->
        (match Failure.worst_case_for_member (Protocol.tree proto) victim with
        | Some (Failure.Link eid) -> Protocol.inject_link_failure proto eid
        | Some (Failure.Node _ | Failure.Multi _) | None -> invalid_arg "packet-sim: no failable link");
        Protocol.control_messages proto)
  in
  span "engine.recover" (fun () ->
      Engine.run ~until:(config.Latency.settle_time +. config.Latency.run_time) engine);
  span "protocol.reports" (fun () ->
      let reports = Protocol.reports proto in
      let detections = List.filter_map (fun r -> r.Protocol.detected) reports in
      let restorations = List.filter_map (fun r -> r.Protocol.restored) reports in
      let net = Protocol.net proto in
      {
        restored = List.length restorations;
        disrupted = List.length detections;
        mean_detection = mean detections;
        mean_restoration = mean restorations;
        control = Protocol.control_messages proto - before;
        events = Engine.events_fired engine;
        frames_sent = Net.frames_sent net;
        frames_dropped_failure = Net.frames_dropped_failure net;
      })

(* Latency.run's draws up to the victim choice: topology, group, the two
   trees and the members whose worst-case link is not a bridge in either. *)
let draw_scenario spans (config : Latency.config) =
  let span name f = Spans.span spans name f in
  let sc = config.Latency.scenario in
  let rng = Rng.create sc.Scenario.seed in
  let topo_rng = Rng.split rng in
  let member_rng = Rng.split rng in
  let graph =
    span "waxman.generate" (fun () ->
        (Waxman.generate ~link_delay:sc.Scenario.link_delay topo_rng ~n:sc.Scenario.n
           ~alpha:sc.Scenario.alpha ~beta:sc.Scenario.beta).Waxman.graph)
  in
  span "latency.victims" (fun () ->
      let chosen =
        Array.of_list
          (Rng.sample_without_replacement member_rng (sc.Scenario.group_size + 1) sc.Scenario.n)
      in
      Rng.shuffle member_rng chosen;
      let source = chosen.(0) in
      let members = Array.to_list (Array.sub chosen 1 sc.Scenario.group_size) in
      let bridges = Smrp_graph.Connectivity.bridges graph in
      let spf_tree = Smrp_core.Spf.build graph ~source ~members in
      let smrp_tree = Smrp_core.Smrp.build ~d_thresh:sc.Scenario.d_thresh graph ~source ~members in
      let recoverable m =
        let non_bridge tree =
          match Failure.worst_case_for_member tree m with
          | Some (Failure.Link eid) -> not (List.mem eid bridges)
          | Some (Failure.Node _ | Failure.Multi _) | None -> false
        in
        non_bridge spf_tree && non_bridge smrp_tree
      in
      (graph, source, members, List.filter recoverable members, member_rng))

(* Latency.run recomposed: the same draws, tree builds and victim choice. *)
let traced_run spans ?flight (config : Latency.config) =
  match draw_scenario spans config with
  | _, _, _, [], _ -> None
  | graph, source, members, candidates, member_rng ->
      let victim = List.nth candidates (Rng.int member_rng (List.length candidates)) in
      let side = traced_side spans ?flight config ~graph ~source ~members ~victim in
      let smrp = side Protocol.Local in
      let pim = side Protocol.Global in
      Some (smrp, pim)

let same_side (a : Latency.side_result) (b : side) =
  a.Latency.restored = b.restored && a.disrupted = b.disrupted
  && a.mean_detection = b.mean_detection
  && a.mean_restoration = b.mean_restoration
  && a.control_messages = b.control

(* SMRP-side failure -> first-data times of every restored member. *)
let restore_times results =
  Array.to_list results
  |> List.concat_map (fun r ->
         List.filter_map Timeline.total (Option.get r).Latency.smrp.Latency.episodes)
  |> Array.of_list

let prepare ~seed =
  let rng = Rng.create seed in
  (* A fixed number of scenarios with a recoverable victim, found with the
     same graph-level draws Latency.run makes before it simulates. *)
  let rec select acc k =
    if k = 0 then Array.of_list (List.rev acc)
    else begin
      let c = config (Workload.seeds rng 1).(0) in
      match draw_scenario (Spans.create ()) c with
      | _, _, _, [], _ -> select acc k
      | _ -> select (c :: acc) (k - 1)
    end
  in
  let configs = select [] scenarios in
  let n = Array.length configs in
  let results = Array.make n None in
  let run i = results.(i) <- Latency.run configs.(i) in
  let traced_sides = Array.make n None in
  let traced spans i =
    traced_sides.(i) <- Spans.span spans "round" (fun () -> traced_run spans configs.(i))
  in
  let check () =
    let problems = ref [] and attempted = ref 0 and failed = ref 0 in
    Array.iteri
      (fun i r ->
        match r with
        | None -> Workload.problem problems "packet-sim: scenario %d has no recoverable victim" i
        | Some r ->
            List.iter
              (fun (s : Latency.side_result) ->
                attempted := !attempted + s.Latency.disrupted;
                failed := !failed + (s.Latency.disrupted - s.Latency.restored))
              [ r.Latency.smrp; r.Latency.pim ];
            if i < checked then begin
              match traced_run (Spans.create ()) configs.(i) with
              | Some (smrp, pim) when same_side r.Latency.smrp smrp && same_side r.Latency.pim pim -> ()
              | _ -> Workload.problem problems "packet-sim: recomposed scenario %d differs from Latency.run" i
            end)
      results;
    let samples = Array.length (restore_times results) in
    if samples < min_restored then
      Workload.problem problems "packet-sim: %d SMRP restore samples, fewer than %d" samples min_restored;
    { Workload.attempted = !attempted; failed = !failed; problems = !problems }
  in
  let exact () =
    let times = restore_times results in
    Printf.printf "# restore samples %d (SMRP side), highest percentile with >= 10 beyond: p%s\n"
      (Array.length times)
      (match Measure.highest_tail (Array.length times) with Some p -> Printf.sprintf "%g" p | None -> "-");
    [
      Workload.metric "restore_s_p50" "s" (Measure.percentile times 50.0);
      Workload.metric "restore_s_p95" "s" (Measure.percentile times 95.0);
    ]
  in
  let layers tbl ~rounds =
    (* Counts of the last traced round, SMRP and PIM sides. *)
    let sides =
      Array.to_list traced_sides
      |> List.concat_map (function Some (a, b) -> [ (a, true); (b, false) ] | None -> [])
    in
    let sum f = List.fold_left (fun acc (s, _) -> acc + f s) 0 sides in
    let events = sum (fun s -> s.events) in
    let sim = Spans.find tbl "engine.settle" and rec_ = Spans.find tbl "engine.recover" in
    let sim_s = sim.Spans.self_s +. rec_.Spans.self_s
    and sim_words = sim.Spans.self_words +. rec_.Spans.self_words in
    let smrp_restored, smrp_control =
      List.fold_left
        (fun (r, c) (s, is_smrp) -> if is_smrp then (r + s.restored, c + s.control) else (r, c))
        (0, 0) sides
    in
    let r = float_of_int rounds in
    (* Flight-recorder cost: the recomposition with the shipped global ring
       against the null recorder, alternated, on the first scenarios. *)
    let timed flight =
      let t0 = Unix.gettimeofday () in
      for i = 0 to min n checked - 1 do
        ignore (traced_run (Spans.create ()) ?flight configs.(i))
      done;
      Unix.gettimeofday () -. t0
    in
    let pairs = Array.init 3 (fun _ -> let on = timed None in (on, timed (Some Flight.null))) in
    let on = Measure.median (Array.map fst pairs) and off = Measure.median (Array.map snd pairs) in
    [
      Workload.metric "flight.overhead_share" "ratio" ((on -. off) /. on);
      Workload.seconds tbl "protocol.create"; Workload.seconds tbl "engine.settle";
      Workload.seconds tbl "engine.recover";
      Workload.metric "engine.events" "count" (float_of_int events);
      Workload.metric "engine.events_per_s" "1/s" (r *. float_of_int events /. sim_s);
      Workload.metric "engine.words_per_event" "words" (sim_words /. (r *. float_of_int events));
      Workload.metric "net.frames_sent" "count" (float_of_int (sum (fun s -> s.frames_sent)));
      Workload.metric "net.frames_dropped_failure" "count"
        (float_of_int (sum (fun s -> s.frames_dropped_failure)));
      Workload.metric "protocol.control_per_restored" "ratio"
        (float_of_int smrp_control /. float_of_int (max 1 smrp_restored));
    ]
  in
  {
    Workload.batch = 1;
    inputs = n;
    sizes = [ ("scenarios", n); ("checked_scenarios", min n checked) ];
    run;
    traced;
    check;
    exact;
    layers;
  }
