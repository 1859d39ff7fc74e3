(* Benchmark harness: one workload, one seed, one process on one domain.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 times the workload through the program's entry points and
   prints the end-to-end metrics; --trace 1 alternates untraced passes with
   traced recompositions and prints the per-layer metrics.  Header lines
   start with '#'; the last line is the JSON result. *)

let workloads =
  [
    ("fig-sweep", Fig_sweep.prepare);
    ("session-repair", Session_repair.prepare);
    ("packet-sim", Packet_sim.prepare);
    ("campaign", Campaign_run.prepare);
  ]

(* Every run prints every metric of its kind; a layer a workload never
   calls reads 0. *)
let end_to_end =
  [
    ("rounds_per_s", "1/s"); ("setup_s", "s"); ("alloc_words_per_round", "words");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("layer_coverage", "ratio"); ("tracing_overhead", "ratio"); ("host.ref_ms", "ms");
    ("recovery_distance_mean", "delay"); ("restore_s_p50", "s"); ("restore_s_p95", "s");
    ("waxman.generate_s", "s"); ("waxman.generate_words", "words"); ("spf.build_s", "s");
    ("smrp.build_s", "s"); ("smrp.build_words", "words"); ("failure.worst_case_s", "s");
    ("recovery.local_detour_s", "s"); ("recovery.local_detour_words", "words");
    ("recovery.global_detour_s", "s"); ("recovery.global_detour_words", "words");
    ("scale.waxman_s", "s"); ("session.create_s", "s"); ("session.join_s", "s");
    ("session.join_words", "words"); ("session.leave_s", "s"); ("session.fail_s", "s");
    ("session.fail_words", "words"); ("session.search_join_s", "s");
    ("session.search_fail_s", "s"); ("protect.recomputes_per_fail", "count");
    ("protect.lookups_per_fail", "count"); ("session.fast_path_share", "ratio");
    ("protocol.create_s", "s"); ("engine.settle_s", "s"); ("engine.recover_s", "s");
    ("engine.events", "count"); ("engine.events_per_s", "1/s"); ("engine.words_per_event", "words");
    ("net.frames_sent", "count"); ("net.frames_dropped_failure", "count");
    ("protocol.control_per_restored", "ratio"); ("flight.overhead_share", "ratio");
    ("churn.schedule_s", "s"); ("failure_model.draw_independent_s", "s");
    ("failure_model.draw_adversarial_s", "s"); ("report.render_s", "s");
  ]

let setup_repeats = 5

(* Timed passes per run, at least, however slow the host. *)
let min_passes = 5

let now = Unix.gettimeofday

let header fmt = Printf.ksprintf (fun s -> print_string ("# " ^ s ^ "\n")) fmt

(* All digits; a non-finite value (a layer with no time to divide by) reads
   0, with a header line saying so. *)
let number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    header "non-finite %s reported as 0" name;
    "0"
  end

let result ~correct ~(outcome : Workload.outcome) declared metrics =
  let value name =
    match List.find_opt (fun (m : Workload.metric) -> m.Workload.name = name) metrics with
    | Some m -> m.Workload.value
    | None -> 0.0
  in
  let body =
    List.map
      (fun (name, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number name (value name)) unit_)
      declared
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 outcome.Workload.attempted) outcome.Workload.failed (String.concat ", " body)

let reference_window = 1.0

(* Reference runs before every timed sample; their median is its
   reference. *)
let ref_runs = 3

let host_ref k = Measure.median (Array.init k (fun _ -> Refk.sample ()))

(* Timed samples in the order taken, each right after its own reference
   runs. *)
type samples = { mutable starts : float list; mutable times : float list; mutable refs : float list }

let samples () = { starts = []; times = []; refs = [] }

let timed s f =
  s.starts <- now () :: s.starts;
  s.refs <- host_ref ref_runs :: s.refs;
  let t0 = now () in
  let v = f () in
  s.times <- (now () -. t0) :: s.times;
  v

let arr l = Array.of_list (List.rev l)

(* Every sample in seconds of the reference host. *)
let normalised s =
  Measure.normalise ~window:reference_window ~starts:(arr s.starts) (arr s.times) (arr s.refs)
  |> Array.map (fun x -> x *. Refk.nominal_s)

let batches (w : Workload.t) = (w.Workload.inputs + w.Workload.batch - 1) / w.Workload.batch

let run_batch (w : Workload.t) b =
  for i = b * w.Workload.batch to min w.Workload.inputs ((b + 1) * w.Workload.batch) - 1 do
    w.Workload.run i
  done

(* Set up [setup_repeats] times: input preparation plus one warm-up pass.
   The preparation and every warm-up batch are timed apart and read against
   the reference runs around them, as in the timed loop.  The last set-up's
   pass also gives the allocation of one round. *)
let setup prepare ~seed =
  let wall = Array.make setup_repeats 0.0 and norm = Array.make setup_repeats 0.0 in
  let words = ref 0.0 and last = ref None in
  for r = 0 to setup_repeats - 1 do
    (* No set-up inherits the garbage of the one before. *)
    last := None;
    Gc.full_major ();
    let s = samples () in
    let w = timed s (fun () -> prepare ~seed) in
    words := 0.0;
    for b = 0 to batches w - 1 do
      timed s (fun () ->
          let w0 = Spans.words () in
          run_batch w b;
          words := !words +. Spans.words () -. w0)
    done;
    wall.(r) <- List.fold_left ( +. ) 0.0 s.times;
    norm.(r) <- Array.fold_left ( +. ) 0.0 (normalised s);
    last := Some w
  done;
  header "setup: median %.4f s wall, %.4f reference s over %d set-ups" (Measure.median wall)
    (Measure.median norm) setup_repeats;
  (Option.get !last, Measure.median norm, !words)

let check_outcome (w : Workload.t) =
  let outcome = w.Workload.check () in
  List.iter (fun p -> header "CHECK FAILED: %s" p) outcome.Workload.problems;
  header "checked: attempted %d, failed %d" outcome.Workload.attempted outcome.Workload.failed;
  outcome

(* Passes over the input set until [seconds] have gone and at least
   [min_passes] were made, timed per batch.  The round time is the sum of
   the batches' median normalised times. *)
let end_to_end_run prepare ~seed ~seconds =
  let w, setup_s, words = setup prepare ~seed in
  let peak_heap_mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6 in
  List.iter (fun (k, v) -> header "input %s = %d" k v) w.Workload.sizes;
  let exact = w.Workload.exact () in
  let outcome = check_outcome w in
  let batches = batches w in
  let s = samples () and passes = ref 0 in
  let deadline = now () +. seconds in
  while !passes < min_passes || now () < deadline do
    for b = 0 to batches - 1 do
      timed s (fun () -> run_batch w b)
    done;
    incr passes
  done;
  (* Samples run batch 0 .. batches - 1 in every pass. *)
  let per_batch values =
    Array.init batches (fun b -> Array.init !passes (fun p -> values.((p * batches) + b)))
  in
  let rate = 1.0 /. Measure.round_time (per_batch (normalised s)) in
  let raw = Measure.rounds_per_s (per_batch (arr s.times)) in
  let ref_ms = Measure.median (arr s.refs) *. 1e3 in
  header "timed: %d passes of %d batches (%d inputs each)" !passes batches w.Workload.batch;
  header "rounds_per_s %.6g per reference s (%.6g inputs); wall %.6g per s; host.ref_ms %.4f" rate
    (rate *. float_of_int w.Workload.inputs) raw ref_ms;
  List.iter (fun (m : Workload.metric) -> header "exact %s = %.17g %s" m.name m.value m.unit_) exact;
  let metrics =
    [
      Workload.metric "rounds_per_s" "1/s" rate;
      Workload.metric "setup_s" "s" setup_s;
      Workload.metric "alloc_words_per_round" "words" words;
      Workload.metric "peak_heap_mb" "MB" peak_heap_mb;
    ]
  in
  result ~correct:(outcome.Workload.problems = []) ~outcome end_to_end metrics

let traced_run prepare ~seed ~seconds =
  let t0 = now () in
  let w = prepare ~seed in
  for i = 0 to w.Workload.inputs - 1 do
    w.Workload.run i
  done;
  header "setup (prepare + warm-up) %.3f s" (now () -. t0);
  List.iter (fun (k, v) -> header "input %s = %d" k v) w.Workload.sizes;
  let exact = w.Workload.exact () in
  let outcome = check_outcome w in
  let spans = Spans.create () in
  let plain = ref [] and traced = ref [] and refs = ref [] in
  let deadline = now () +. seconds in
  while !traced = [] || now () < deadline do
    refs := host_ref 3 :: !refs;
    let t0 = now () in
    for i = 0 to w.Workload.inputs - 1 do
      w.Workload.run i
    done;
    plain := (now () -. t0) :: !plain;
    let t0 = now () in
    for i = 0 to w.Workload.inputs - 1 do
      w.Workload.traced spans i
    done;
    traced := (now () -. t0) :: !traced
  done;
  let rounds = List.length !traced in
  let tbl = Spans.totals spans in
  let median l = Measure.median (Array.of_list l) in
  let coverage = Spans.coverage tbl ~root:"round" in
  let overhead = (median !traced /. median !plain) -. 1.0 in
  header "traced: %d rounds, %d spans" rounds (Hashtbl.length tbl);
  let rows = Hashtbl.fold (fun name t acc -> (name, t) :: acc) tbl [] in
  List.iter
    (fun (name, t) ->
      header "span %-36s calls %8d  self %10.6f s  self words %14.0f" name t.Spans.calls
        (t.Spans.self_s /. float_of_int rounds) (t.Spans.self_words /. float_of_int rounds))
    (List.sort (fun (_, a) (_, b) -> compare b.Spans.self_s a.Spans.self_s) rows);
  let metrics =
    [
      Workload.metric "layer_coverage" "ratio" coverage;
      Workload.metric "tracing_overhead" "ratio" overhead;
      Workload.metric "host.ref_ms" "ms" (median !refs *. 1e3);
    ]
    @ exact
    @ w.Workload.layers tbl ~rounds
  in
  List.iter
    (fun (m : Workload.metric) ->
      if not (List.mem_assoc m.Workload.name per_layer) then
        failwith ("undeclared per-layer metric " ^ m.Workload.name))
    metrics;
  result ~correct:(outcome.Workload.problems = []) ~outcome per_layer metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some prepare ->
      header "workload %s seed %d seconds %g trace %d" !workload !seed !seconds !trace;
      if !trace = 0 then end_to_end_run prepare ~seed:!seed ~seconds:!seconds
      else traced_run prepare ~seed:!seed ~seconds:!seconds
