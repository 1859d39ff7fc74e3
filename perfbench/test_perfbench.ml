(* The benchmark's own helpers: per-input-median rate, tail percentile,
   reference kernel, span self time and coverage. *)

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 2.0 (Measure.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check close "even" 2.5 (Measure.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_rate () =
  (* Batch 0's median 1.0, batch 1's 3.0: one round takes 4 s whatever the
     outliers. *)
  let times = [| [| 1.0; 100.0; 1.0 |]; [| 3.0; 2.0; 3.0; 50.0 |] |] in
  Alcotest.check close "median round time" 4.0 (Measure.round_time times);
  Alcotest.check close "rounds per s from medians" 0.25 (Measure.rounds_per_s times)

let test_normalise () =
  (* The host halves its speed at t = 3: every timed sample and reference
     run doubles, the normalised times do not move. *)
  let starts = Array.init 7 float_of_int in
  let refs = [| 1.0; 1.0; 1.0; 2.0; 2.0; 2.0; 2.0 |] in
  let times = Array.map (fun r -> 10.0 *. r) refs in
  let norm = Measure.normalise ~window:1.0 ~starts times refs in
  Array.iteri
    (fun i v -> if i <> 2 && i <> 3 then Alcotest.check close (Printf.sprintf "sample %d" i) 10.0 v)
    norm;
  (* One disturbed reference run is outvoted by its neighbours in time;
     references outside the window do not count. *)
  let spiky = [| 1.0; 1.0; 9.0; 1.0; 1.0; 50.0 |] in
  let starts = [| 0.0; 0.1; 0.2; 0.3; 0.4; 5.0 |] in
  let norm = Measure.normalise ~window:0.5 ~starts (Array.make 6 10.0) spiky in
  Alcotest.check close "spike ignored" 10.0 norm.(2);
  Alcotest.check close "alone in its window" 0.2 norm.(5)

let test_percentile () =
  let a = Array.init 200 (fun i -> float_of_int (200 - i)) in
  Alcotest.check close "p50" 100.0 (Measure.percentile a 50.0);
  Alcotest.check close "p95" 190.0 (Measure.percentile a 95.0);
  Alcotest.(check int) "beyond p95 of 200" 10 (Measure.beyond 200 95.0);
  Alcotest.(check int) "beyond p95 of 199" 9 (Measure.beyond 199 95.0);
  Alcotest.(check (option (float 0.0))) "200 samples reach p95" (Some 95.0) (Measure.highest_tail 200);
  Alcotest.(check (option (float 0.0))) "199 samples stop at p90" (Some 90.0) (Measure.highest_tail 199);
  Alcotest.(check (option (float 0.0))) "1000 samples reach p99" (Some 99.0) (Measure.highest_tail 1000);
  Alcotest.(check (option (float 0.0))) "19 samples reach nothing" None (Measure.highest_tail 19)

(* A recorder filled with fixed spans: (name, parent index, start, stop,
   words allocated inside), so the sums below are exact. *)
let fixed rows =
  let spans =
    Array.of_list
      (List.map
         (fun (name, parent, start, stop, words) ->
           { Spans.name; parent; start; stop; start_words = 0.0; stop_words = words })
         rows)
  in
  { Spans.spans; len = Array.length spans; open_ = -1 }

let test_self_time () =
  (* round [0, 10] holds a [1, 7], which holds b [2, 6]; a second b [7, 9]
     sits directly under round. *)
  let tbl =
    Spans.totals
      (fixed
         [
           ("round", -1, 0.0, 10.0, 100.0); ("a", 0, 1.0, 7.0, 60.0); ("b", 1, 2.0, 6.0, 50.0);
           ("b", 0, 7.0, 9.0, 30.0);
         ])
  in
  let t name = Spans.find tbl name in
  Alcotest.(check int) "b called twice" 2 (t "b").Spans.calls;
  Alcotest.check close "round self time" 2.0 (t "round").Spans.self_s;
  Alcotest.check close "a excludes its child" 2.0 (t "a").Spans.self_s;
  Alcotest.check close "b summed over calls" 6.0 (t "b").Spans.self_s;
  Alcotest.check close "a inclusive" 6.0 (t "a").Spans.wall_s;
  Alcotest.check close "round self words" 10.0 (t "round").Spans.self_words;
  Alcotest.check close "a self words" 10.0 (t "a").Spans.self_words;
  Alcotest.check close "coverage" 0.8 (Spans.coverage tbl ~root:"round")

let test_nesting () =
  (* Spans recorded through [Spans.span] nest as called, and self times add
     up to the root's wall time whatever the clock read. *)
  let s = Spans.create () in
  Spans.span s "round" (fun () ->
      Spans.span s "a" (fun () -> Spans.span s "b" ignore);
      Spans.span s "b" ignore);
  Alcotest.(check (list int)) "parents" [ -1; 0; 1; 0 ]
    (List.init s.Spans.len (fun i -> s.Spans.spans.(i).Spans.parent));
  let tbl = Spans.totals s in
  let t name = Spans.find tbl name in
  let total = (t "round").Spans.self_s +. (t "a").Spans.self_s +. (t "b").Spans.self_s in
  Alcotest.check close "self times partition the root" (t "round").Spans.wall_s total

let test_words () =
  let s = Spans.create () in
  Spans.span s "outer" (fun () ->
      Spans.span s "alloc" (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0.0))));
  let tbl = Spans.totals s in
  let w = (Spans.find tbl "alloc").Spans.self_words in
  Alcotest.(check bool) "array words counted" true (w >= 1000.0 && w < 1100.0);
  Alcotest.(check bool) "parent words exclude child" true ((Spans.find tbl "outer").Spans.self_words < 100.0)

let test_unknown_span () =
  let s = Spans.create () in
  Alcotest.(check int) "absent name reads zero" 0 (Spans.find (Spans.totals s) "x").Spans.calls;
  Alcotest.check close "no root, no coverage" 0.0 (Spans.coverage (Spans.totals s) ~root:"round")

let test_kernel () =
  (* The kernel works outside the OCaml heap, so the program's GC cannot
     change its speed, and it does the same work on every run. *)
  let n = Refk.kernel () in
  let w0 = Gc.minor_words () in
  let m = Refk.kernel () in
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "same work every run" n m;
  Alcotest.(check bool) "thousands of keys" true (n > 1000 && n <= 4000);
  Alcotest.check close "no words allocated" 0.0 (w1 -. w0)

let () =
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "per-batch rate" `Quick test_rate;
          Alcotest.test_case "reference normalisation" `Quick test_normalise;
          Alcotest.test_case "percentile with 10 beyond" `Quick test_percentile;
          Alcotest.test_case "reference kernel off the heap" `Quick test_kernel;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time and coverage" `Quick test_self_time;
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "self words" `Quick test_words;
          Alcotest.test_case "empty" `Quick test_unknown_span;
        ] );
    ]
