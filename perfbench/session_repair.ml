(* A library user's session lifecycle on one large topology: joins, then
   persistent failures with leaves and late joins between them.  Every
   session runs twice, with the protection tables armed and in search
   mode. *)

module Rng = Smrp_rng.Rng
module Graph = Smrp_graph.Graph
module Connectivity = Smrp_graph.Connectivity
module Scale = Smrp_topology.Scale
module Tree = Smrp_core.Tree
module Failure = Smrp_core.Failure
module Session = Smrp_core.Session
module Protect = Smrp_core.Protect
module Oracle = Smrp_check.Oracle

let nodes = 2000

let degree = 8.0

let sessions = 3

let members = 30

let failures = 2

let churn_between = 2

let checked = 2

let protocol = Session.Smrp { d_thresh = 0.3 }

type op = Join of int | Leave of int | Fail of Failure.t

type plan = { graph : Graph.t; source : int; ops : op array }

let apply s = function
  | Join m -> Session.join s m
  | Leave m -> Session.leave s m
  | Fail f -> ignore (Session.fail s f : Session.repair list)

(* Every current member still reaches the source around [f]: the script
   never asks a repair to do the impossible. *)
let survivable g s f =
  let f = match Session.active_failure s with Some a -> Failure.compose [ a; f ] | None -> f in
  let reach =
    Connectivity.reachable_from ~node_ok:(Failure.node_ok f) ~edge_ok:(Failure.edge_ok g f) g
      (Tree.source (Session.tree s))
  in
  List.for_all (fun m -> Failure.node_ok f m && reach.(m)) (Tree.members (Session.tree s))

(* Draw one session script, replaying it on a search-mode session so that
   leaves, joins and failures are drawn against the tree they will meet. *)
let draw_plan rng g =
  let n = Graph.node_count g in
  let source = Rng.int rng n in
  let s = Session.create g ~source ~protocol in
  let ops = ref [] in
  let play op =
    apply s op;
    ops := op :: !ops
  in
  let rec fresh_node () =
    let v = Rng.int rng n in
    let tree = Session.tree s in
    let alive = match Session.active_failure s with Some f -> Failure.node_ok f v | None -> true in
    if v = source || Tree.is_on_tree tree v || not alive then fresh_node () else v
  in
  for _ = 1 to members do
    play (Join (fresh_node ()))
  done;
  for k = 1 to failures do
    let tree = Session.tree s in
    let rec draw tries =
      if tries = 0 then failwith "session-repair: no survivable failure";
      let f =
        if k mod 2 = 1 then Failure.Link (Rng.pick rng (Array.of_list (Tree.tree_edges tree)))
        else
          let relays =
            List.filter
              (fun v -> v <> source && not (Tree.is_member tree v))
              (Tree.on_tree_nodes tree)
          in
          match relays with
          | [] -> Failure.Link (Rng.pick rng (Array.of_list (Tree.tree_edges tree)))
          | _ -> Failure.Node (Rng.pick rng (Array.of_list relays))
      in
      if survivable g s f then f else draw (tries - 1)
    in
    play (Fail (draw 100));
    for _ = 1 to churn_between do
      play (Leave (Rng.pick rng (Array.of_list (Tree.members (Session.tree s)))))
    done;
    for _ = 1 to churn_between do
      play (Join (fresh_node ()))
    done
  done;
  { graph = g; source; ops = Array.of_list (List.rev !ops) }

let play_twin plan ~protection =
  let s = Session.create ~protection plan.graph ~source:plan.source ~protocol in
  Array.iter (apply s) plan.ops;
  s

let repairs s =
  List.filter_map (function Session.Repaired r -> Some r | _ -> None) (Session.events s)

let prepare ~seed =
  let rng = Rng.create seed in
  let alpha, beta = Scale.degree_params ~n:nodes ~target_degree:degree in
  (* Each session on its own topology: sessions vary independently, so a
     round's cost does not hinge on one draw of the graph. *)
  let topology rng = (Scale.waxman ~link_delay:`Euclidean rng ~n:nodes ~alpha ~beta).Scale.graph in
  let plans =
    Array.init sessions (fun _ ->
        let rng = Rng.split rng in
        let g = topology (Rng.split rng) in
        draw_plan rng g)
  in
  let results = Array.make sessions None in
  let run i =
    let protected_ = play_twin plans.(i) ~protection:true in
    let search = play_twin plans.(i) ~protection:false in
    results.(i) <- Some (protected_, search)
  in
  (* The same script through the Session calls one by one, timed per call;
     protection counters are read around each protected failure, outside
     the span. *)
  let fails = ref 0 and recomputes = ref 0 and lookups = ref 0 in
  let traced spans i =
    let span name f = Spans.span spans name f in
    Spans.span spans "round" (fun () ->
        let plan = plans.(i) in
        let s =
          span "session.create" (fun () ->
              Session.create ~protection:true plan.graph ~source:plan.source ~protocol)
        in
        Array.iter
          (function
            | Join m -> span "session.join" (fun () -> Session.join s m)
            | Leave m -> span "session.leave" (fun () -> Session.leave s m)
            | Fail f ->
                let b = Option.get (Session.protection_stats s) in
                ignore (span "session.fail" (fun () -> Session.fail s f));
                let a = Option.get (Session.protection_stats s) in
                recomputes := !recomputes + a.Protect.recomputes - b.Protect.recomputes;
                lookups := !lookups + a.Protect.lookups - b.Protect.lookups;
                incr fails)
          plan.ops;
        let q =
          span "session.search_create" (fun () -> Session.create plan.graph ~source:plan.source ~protocol)
        in
        Array.iter
          (function
            | Join m -> span "session.search_join" (fun () -> Session.join q m)
            | Leave m -> span "session.search_leave" (fun () -> Session.leave q m)
            | Fail f -> ignore (span "session.search_fail" (fun () -> Session.fail q f)))
          plan.ops)
  in
  let check () =
    let problems = ref [] and attempted = ref 0 and failed = ref 0 in
    Array.iteri
      (fun i plan ->
        let protected_, search = Option.get results.(i) in
        let final s = Tree.members (Session.tree s) in
        if final protected_ <> final search then
          Workload.problem problems "session-repair: session %d twins end with different members" i;
        (* Replay the twins step by step against the repair oracles (the
           protected twin on the checked subset): every table repair equals
           a from-scratch branch search. *)
        List.iter
          (fun protection ->
            let s = Session.create ~protection plan.graph ~source:plan.source ~protocol in
            Array.iter
              (fun op ->
                match op with
                | Fail f ->
                    let pre = Tree.copy (Session.tree s) in
                    let failure =
                      match Session.active_failure s with
                      | Some a -> Failure.compose [ a; f ]
                      | None -> f
                    in
                    attempted :=
                      !attempted + List.length (Failure.affected_members pre failure)
                      + List.length
                          (List.filter (fun m -> not (Failure.node_ok failure m)) (Tree.members pre));
                    let before = List.length (Session.events s) in
                    let reps = Session.fail s f in
                    let lost =
                      List.filteri (fun j _ -> j >= before + 1) (Session.events s)
                      |> List.filter_map (function Session.Lost m -> Some m | _ -> None)
                    in
                    failed := !failed + List.length lost;
                    let post = Session.tree s in
                    let verdict =
                      if reps <> [] && List.for_all (fun r -> r.Session.strategy = `Protected) reps
                      then Oracle.protected_replay ~pre ~failure:f ~repairs:reps ~post ~lost
                      else Oracle.repair_replay ~pre ~failure ~repairs:reps ~post ~lost
                    in
                    Option.iter
                      (fun v ->
                        Workload.problem problems "session-repair: session %d %s: %s" i
                          v.Oracle.oracle v.Oracle.message)
                      verdict
                | op -> apply s op)
              plan.ops;
            if repairs s <> repairs (if protection then protected_ else search) then
              Workload.problem problems "session-repair: session %d replay not repeatable" i)
          (if i < checked then [ true; false ] else [ false ]))
      plans;
    { Workload.attempted = !attempted; failed = !failed; problems = !problems }
  in
  let exact () =
    let rds =
      Array.to_list results
      |> List.concat_map (fun r ->
             let p, q = Option.get r in
             repairs p @ repairs q)
      |> List.map (fun r -> r.Session.detour.Smrp_core.Recovery.recovery_distance)
    in
    [
      Workload.metric "recovery_distance_mean" "delay"
        (List.fold_left ( +. ) 0.0 rds /. float_of_int (max 1 (List.length rds)));
    ]
  in
  let layers tbl ~rounds:_ =
    let scale_s =
      Measure.median
        (Array.init 3 (fun _ ->
             let t0 = Unix.gettimeofday () in
             ignore (topology (Rng.create seed));
             Unix.gettimeofday () -. t0))
    in
    let per_fail c = float_of_int c /. float_of_int (max 1 !fails) in
    let protected_share =
      let all = Array.to_list results |> List.concat_map (fun r -> repairs (fst (Option.get r))) in
      let fast = List.filter (fun r -> r.Session.strategy = `Protected) all in
      float_of_int (List.length fast) /. float_of_int (max 1 (List.length all))
    in
    [
      Workload.metric "scale.waxman_s" "s" scale_s;
      Workload.seconds tbl "session.create"; Workload.seconds tbl "session.join";
      Workload.words tbl "session.join"; Workload.seconds tbl "session.leave";
      Workload.seconds tbl "session.fail"; Workload.words tbl "session.fail";
      Workload.seconds tbl "session.search_join"; Workload.seconds tbl "session.search_fail";
      Workload.metric "protect.recomputes_per_fail" "count" (per_fail !recomputes);
      Workload.metric "protect.lookups_per_fail" "count" (per_fail !lookups);
      Workload.metric "session.fast_path_share" "ratio" protected_share;
    ]
  in
  {
    Workload.batch = 1;
    inputs = sessions;
    sizes =
      [ ("nodes", nodes); ("sessions", sessions); ("members_per_session", members);
        ("failures_per_session", failures); ("twins_per_session", 2);
        ("checked_protected_sessions", min sessions checked) ];
    run;
    traced;
    check;
    exact;
    layers;
  }
