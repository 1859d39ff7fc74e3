(* The bench regression gate: compare a BENCH_RESULTS.json produced by the
   harness against a committed baseline.

   Two classes of check, reflecting what can be exact across machines:

   - The {e workload} section is deterministic by construction (a
     fixed-scale seeded Fig. 9 sweep): its rendering digest and merged
     metrics totals must match the baseline exactly, and the results file
     must attest that the sequential and parallel runs agreed.  Any drift
     here is a correctness change, not noise.
   - The {e micro} section is machine- and load-dependent: each ns/run
     estimate is gated by a relative tolerance (per-metric override or the
     baseline default), and only slowdowns beyond tolerance fail.
     Speed-ups beyond tolerance pass but are flagged as a hint to refresh
     the baseline.  [--quick] multiplies tolerances by the baseline's
     [quick_factor] for noisy CI runners — still enough to catch
     order-of-magnitude regressions.
   - The {e micro_throughput} section carries the same relative-tolerance
     gate with the direction reversed: values are rates (e.g. engine
     events/s), so a {e drop} beyond tolerance is the regression. *)

module J = Bench_json

let schema_version = 3

type status = Ok | Improved | Regression | Missing | Mismatch

type row = {
  metric : string;
  baseline : string;
  current : string;
  delta : string;
  tolerance : string;
  status : status;
}

type report = { rows : row list; notes : string list; failures : int }

let passed r = r.failures = 0

let is_failure = function Regression | Missing | Mismatch -> true | Ok | Improved -> false

let status_label = function
  | Ok -> "ok"
  | Improved -> "improved"
  | Regression -> "REGRESSION"
  | Missing -> "MISSING"
  | Mismatch -> "MISMATCH"

let row ?(baseline = "-") ?(current = "-") ?(delta = "-") ?(tolerance = "-") metric status =
  { metric; baseline; current; delta; tolerance; status }

let num_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

(* -- Individual checks -------------------------------------------------- *)

let check_schema ~baseline ~results =
  let get j = Option.bind (J.member "schema_version" j) J.to_num in
  match (get baseline, get results) with
  | Some b, Some r when b = r && int_of_float b = schema_version ->
      [ row "schema_version" Ok ~baseline:(num_str b) ~current:(num_str r) ]
  | b, r ->
      let show = function Some f -> num_str f | None -> "absent" in
      [ row "schema_version" Mismatch ~baseline:(show b) ~current:(show r) ]

let check_workload ~baseline ~results =
  let digest j = Option.bind (J.mem_path [ "workload"; "fig9_digest" ] j) J.to_str in
  let digest_row =
    match (digest baseline, digest results) with
    | Some b, Some r when String.equal b r ->
        [ row "workload.fig9_digest" Ok ~baseline:b ~current:r ]
    | Some b, Some r -> [ row "workload.fig9_digest" Mismatch ~baseline:b ~current:r ]
    | Some b, None -> [ row "workload.fig9_digest" Missing ~baseline:b ~current:"absent" ]
    | None, _ -> []
  in
  let identical_row =
    match Option.bind (J.mem_path [ "workload"; "seq_par_identical" ] results) J.to_bool with
    | Some true -> [ row "workload.seq_par_identical" Ok ~current:"true" ]
    | Some false -> [ row "workload.seq_par_identical" Mismatch ~baseline:"true" ~current:"false" ]
    | None -> [ row "workload.seq_par_identical" Missing ~baseline:"true" ~current:"absent" ]
  in
  let metric_rows =
    let base_metrics =
      match J.mem_path [ "workload"; "fig9_metrics" ] baseline with
      | Some m -> J.obj_members m
      | None -> []
    in
    List.map
      (fun (name, bv) ->
        let metric = "workload." ^ name in
        match
          ( J.to_num bv,
            Option.bind (J.mem_path [ "workload"; "fig9_metrics"; name ] results) J.to_num )
        with
        | Some b, Some r when b = r -> row metric Ok ~baseline:(num_str b) ~current:(num_str r)
        | Some b, Some r -> row metric Mismatch ~baseline:(num_str b) ~current:(num_str r)
        | Some b, None -> row metric Missing ~baseline:(num_str b) ~current:"absent"
        | None, _ -> row metric Mismatch ~baseline:"non-numeric" ~current:"-")
      base_metrics
  in
  digest_row @ identical_row @ metric_rows

let check_micro ~quick ~baseline ~results =
  let base_micro =
    match J.member "micro_ns_per_run" baseline with Some m -> J.obj_members m | None -> []
  in
  let default_tol =
    match Option.bind (J.mem_path [ "tolerances"; "micro_default_rel" ] baseline) J.to_num with
    | Some t -> t
    | None -> 0.5
  in
  let quick_factor =
    if not quick then 1.0
    else
      match Option.bind (J.mem_path [ "tolerances"; "quick_factor" ] baseline) J.to_num with
      | Some f -> f
      | None -> 4.0
  in
  let tol_for name =
    let per_metric =
      Option.bind (J.mem_path [ "tolerances"; "micro_rel"; name ] baseline) J.to_num
    in
    quick_factor *. Option.value per_metric ~default:default_tol
  in
  let rows =
    List.filter_map
      (fun (name, bv) ->
        let metric = "micro." ^ name in
        match
          (J.to_num bv, Option.bind (J.mem_path [ "micro_ns_per_run"; name ] results) J.to_num)
        with
        | Some b, Some r when b > 0.0 ->
            let tol = tol_for name in
            let delta = (r -. b) /. b in
            let status =
              if delta > tol then Regression else if delta < -.tol then Improved else Ok
            in
            Some
              (row metric status ~baseline:(Printf.sprintf "%.1f ns" b)
                 ~current:(Printf.sprintf "%.1f ns" r)
                 ~delta:(Printf.sprintf "%+.1f%%" (100.0 *. delta))
                 ~tolerance:(Printf.sprintf "±%.0f%%" (100.0 *. tol)))
        | Some b, None ->
            Some (row metric Missing ~baseline:(Printf.sprintf "%.1f ns" b) ~current:"absent")
        | _ -> None)
      base_micro
  in
  let extra =
    match J.member "micro_ns_per_run" results with
    | Some m ->
        List.filter_map
          (fun (name, _) ->
            if List.mem_assoc name base_micro then None
            else Some (Printf.sprintf "micro.%s present in results but not in the baseline" name))
          (J.obj_members m)
    | None -> []
  in
  (rows, extra)

let check_throughput ~quick ~baseline ~results =
  let base = match J.member "micro_throughput" baseline with Some m -> J.obj_members m | None -> [] in
  let default_tol =
    match Option.bind (J.mem_path [ "tolerances"; "micro_default_rel" ] baseline) J.to_num with
    | Some t -> t
    | None -> 0.5
  in
  let quick_factor =
    if not quick then 1.0
    else
      match Option.bind (J.mem_path [ "tolerances"; "quick_factor" ] baseline) J.to_num with
      | Some f -> f
      | None -> 4.0
  in
  let tol_for name =
    let per_metric =
      Option.bind (J.mem_path [ "tolerances"; "throughput_rel"; name ] baseline) J.to_num
    in
    quick_factor *. Option.value per_metric ~default:default_tol
  in
  let rate f = Printf.sprintf "%.3g/s" f in
  List.filter_map
    (fun (name, bv) ->
      let metric = "throughput." ^ name in
      match
        (J.to_num bv, Option.bind (J.mem_path [ "micro_throughput"; name ] results) J.to_num)
      with
      | Some b, Some r when b > 0.0 ->
          let tol = tol_for name in
          (* Reversed direction: positive delta means the rate dropped. *)
          let delta = (b -. r) /. b in
          let status =
            if delta > tol then Regression else if delta < -.tol then Improved else Ok
          in
          Some
            (row metric status ~baseline:(rate b) ~current:(rate r)
               ~delta:(Printf.sprintf "%+.1f%%" (100.0 *. ((r -. b) /. b)))
               ~tolerance:(Printf.sprintf "±%.0f%%" (100.0 *. tol)))
      | Some b, None -> Some (row metric Missing ~baseline:(rate b) ~current:"absent")
      | _ -> None)
    base

(* Flight-recorder overhead: recorder-on event throughput must stay within
   tolerance of recorder-off, compared within the same results file (a
   within-run ratio, so machine speed cancels out).  The tolerance comes
   from the baseline ([tolerances.throughput_rel.flight_recorder_overhead],
   default 10%).  Skipped when either side is absent from the results —
   e.g. pre-v4 results files. *)
let check_flight_overhead ~quick ~baseline ~results =
  let metric name = Option.bind (J.mem_path [ "micro_throughput"; name ] results) J.to_num in
  match (metric "engine_events_per_sec", metric "engine_events_per_sec_flight_off") with
  | Some on, Some off when off > 0.0 ->
      let tol =
        match
          Option.bind
            (J.mem_path [ "tolerances"; "throughput_rel"; "flight_recorder_overhead" ] baseline)
            J.to_num
        with
        | Some t -> t
        | None -> 0.1
      in
      let quick_factor =
        if not quick then 1.0
        else
          match Option.bind (J.mem_path [ "tolerances"; "quick_factor" ] baseline) J.to_num with
          | Some f -> f
          | None -> 4.0
      in
      let tol = quick_factor *. tol in
      let overhead = (off -. on) /. off in
      let status = if overhead > tol then Regression else Ok in
      [
        row "throughput.flight_recorder_overhead" status
          ~baseline:(Printf.sprintf "%.3g/s off" off)
          ~current:(Printf.sprintf "%.3g/s on" on)
          ~delta:(Printf.sprintf "%+.1f%%" (-100.0 *. overhead))
          ~tolerance:(Printf.sprintf "-%.0f%%" (100.0 *. tol));
      ]
  | _ -> []

let check ?(quick = false) ~baseline ~results () =
  let micro_rows, micro_notes = check_micro ~quick ~baseline ~results in
  let rows =
    check_schema ~baseline ~results @ check_workload ~baseline ~results @ micro_rows
    @ check_throughput ~quick ~baseline ~results
    @ check_flight_overhead ~quick ~baseline ~results
  in
  let notes =
    micro_notes
    @ List.filter_map
        (fun r ->
          if r.status = Improved then
            Some
              (Printf.sprintf
                 "%s improved beyond tolerance — consider refreshing the baseline" r.metric)
          else None)
        rows
  in
  { rows; notes; failures = List.length (List.filter (fun r -> is_failure r.status) rows) }

(* -- Rendering ---------------------------------------------------------- *)

let render ?(quick = false) r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Bench regression gate%s: %d check(s), %d failure(s)\n\n"
       (if quick then " (quick mode)" else "")
       (List.length r.rows) r.failures);
  let widths =
    List.fold_left
      (fun (a, b, c, d, e) row ->
        ( max a (String.length row.metric),
          max b (String.length row.baseline),
          max c (String.length row.current),
          max d (String.length row.delta),
          max e (String.length row.tolerance) ))
      (String.length "metric", 8, 8, 5, 3)
      r.rows
  in
  let wm, wb, wc, wd, wt = widths in
  Buffer.add_string buf
    (Printf.sprintf "%-*s  %*s  %*s  %*s  %*s  %s\n" wm "metric" wb "baseline" wc "current" wd
       "delta" wt "tol" "status");
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "%-*s  %*s  %*s  %*s  %*s  %s\n" wm row.metric wb row.baseline wc
           row.current wd row.delta wt row.tolerance (status_label row.status)))
    r.rows;
  if r.notes <> [] then begin
    Buffer.add_char buf '\n';
    List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "note: %s\n" n)) r.notes
  end;
  Buffer.add_string buf (if passed r then "\nPASS\n" else "\nFAIL\n");
  Buffer.contents buf

(* -- History trends ------------------------------------------------------ *)

(* Longitudinal summary over BENCH_HISTORY.jsonl: the latest run's micro
   estimates against the mean of the preceding runs in the window.  Purely
   informational — trends never gate. *)

let last_n n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let trend ?(window = 5) lines =
  let entries =
    List.filter_map
      (fun line ->
        match J.parse line with
        | v ->
            (* History lines from older runs can predate a whole section —
               e.g. entries written before schema v3 have no
               [micro_throughput]/[engine_events_per_sec].  Any line with at
               least one estimate section stays in the window; a metric the
               line lacks simply contributes nothing to that metric's mean,
               instead of the line being skipped wholesale. *)
            if J.member "micro_ns_per_run" v = None && J.member "micro_throughput" v = None then
              None
            else Some v
        | exception J.Parse_error _ -> None)
      (List.filter (fun l -> String.trim l <> "") lines)
  in
  let entries = last_n window entries in
  match List.rev entries with
  | [] | [ _ ] ->
      Printf.sprintf "Micro trends: need at least 2 history runs with estimates (have %d)\n"
        (List.length entries)
  | latest :: prior_rev ->
      let prior = List.rev prior_rev in
      let section key e = match J.member key e with Some m -> J.obj_members m | None -> [] in
      let buf = Buffer.create 512 in
      Buffer.add_string buf
        (Printf.sprintf "Micro trends: latest vs mean of %d preceding run(s)\n\n" (List.length prior));
      Buffer.add_string buf
        (Printf.sprintf "%-28s  %14s  %14s  %8s\n" "metric" "window mean" "latest" "delta");
      (* [higher_better] flips the arrow: throughput rising is an
         improvement where ns-per-run rising is a regression. *)
      let render_section ~key ~fmt ~higher_better =
        List.iter
          (fun (name, v) ->
            match J.to_num v with
            | None -> ()
            | Some current ->
                let history =
                  List.filter_map
                    (fun e -> Option.bind (J.mem_path [ key; name ] e) J.to_num)
                    prior
                in
                let line =
                  match history with
                  | [] -> Printf.sprintf "%-28s  %14s  %14s  %8s\n" name "-" (fmt current) "new"
                  | _ ->
                      let mean =
                        List.fold_left ( +. ) 0.0 history /. float_of_int (List.length history)
                      in
                      let delta = if mean > 0.0 then (current -. mean) /. mean else 0.0 in
                      let arrow =
                        let worse = if higher_better then delta < -0.05 else delta > 0.05 in
                        let better = if higher_better then delta > 0.05 else delta < -0.05 in
                        if worse then "(slower)" else if better then "(faster)" else ""
                      in
                      Printf.sprintf "%-28s  %14s  %14s  %+7.1f%% %s\n" name (fmt mean)
                        (fmt current) (100.0 *. delta) arrow
                in
                Buffer.add_string buf line)
          (section key latest)
      in
      render_section ~key:"micro_ns_per_run"
        ~fmt:(fun v -> Printf.sprintf "%.1f ns" v)
        ~higher_better:false;
      render_section ~key:"micro_throughput"
        ~fmt:(fun v -> Printf.sprintf "%.3g /s" v)
        ~higher_better:true;
      Buffer.contents buf

(* -- Baseline derivation ------------------------------------------------ *)

let default_tolerances =
  J.Obj
    [
      ("micro_default_rel", J.Num 0.5);
      ("quick_factor", J.Num 4.0);
      ("micro_rel", J.Obj []);
      ("throughput_rel", J.Obj []);
    ]

(* A re-recorded baseline keeps the tolerances of the one it replaces
   (per-metric overrides included): each default member is taken from
   [previous] when set there, and members only [previous] has are kept. *)
let tolerances_of previous =
  let kept =
    match Option.bind previous (J.member "tolerances") with
    | Some t -> J.obj_members t
    | None -> []
  in
  let defaults = J.obj_members default_tolerances in
  J.Obj
    (List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k kept) ~default:v)) defaults
    @ List.filter (fun (k, _) -> not (List.mem_assoc k defaults)) kept)

let baseline_of_results ?previous results =
  let copy path = Option.map (fun v -> (List.nth path (List.length path - 1), v)) (J.mem_path path results) in
  let workload =
    List.filter_map copy [ [ "workload"; "fig9_digest" ]; [ "workload"; "fig9_metrics" ] ]
  in
  J.Obj
    (List.filter_map Fun.id
       [
         Some ("schema_version", J.Num (float_of_int schema_version));
         Some ("workload", J.Obj workload);
         Option.map (fun v -> ("micro_ns_per_run", v)) (J.member "micro_ns_per_run" results);
         Option.map (fun v -> ("micro_throughput", v)) (J.member "micro_throughput" results);
         Some ("tolerances", tolerances_of previous);
       ])
