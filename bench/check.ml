(* CLI wrapper of the bench regression gate (see Check_core): compares a
   BENCH_RESULTS.json against a committed baseline and exits non-zero on
   breach, printing the per-metric diff.  [--write-baseline] derives a
   fresh committable baseline from a results file instead. *)

module Bench_json = Bench_support.Bench_json
module Check_core = Bench_support.Check_core

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load what path =
  match Bench_json.parse (read_file path) with
  | v -> v
  | exception Sys_error msg ->
      Printf.eprintf "error: cannot read %s file: %s\n%!" what msg;
      exit 2
  | exception Bench_json.Parse_error msg ->
      Printf.eprintf "error: %s file %s: %s\n%!" what path msg;
      exit 2

(* History lines for the trend summary; a missing or unreadable file is not
   an error (fresh checkouts have no history). *)
let read_history path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec lines acc =
        match input_line ic with
        | line -> lines (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Some (lines []))

let () =
  let results = ref "BENCH_RESULTS.json" in
  let baseline = ref "bench/BASELINE.json" in
  let quick = ref false in
  let write_baseline = ref "" in
  let history = ref "BENCH_HISTORY.jsonl" in
  let trend_window = ref 5 in
  let spec =
    [
      ("--results", Arg.Set_string results, "FILE results file (default BENCH_RESULTS.json)");
      ("--baseline", Arg.Set_string baseline, "FILE baseline file (default bench/BASELINE.json)");
      ( "--quick",
        Arg.Set quick,
        " scale micro tolerances by the baseline's quick_factor (noisy CI runners)" );
      ( "--write-baseline",
        Arg.Set_string write_baseline,
        "FILE derive a baseline from --results and write it to FILE, keeping the tolerances of \
         --baseline when that file exists, then exit" );
      ( "--history",
        Arg.Set_string history,
        "FILE history file for the trend summary (default BENCH_HISTORY.jsonl; absent file: no \
         summary)" );
      ( "--trend-window",
        Arg.Set_int trend_window,
        "N history runs the trend summary considers (default 5)" );
    ]
  in
  let usage =
    "check [--results FILE] [--baseline FILE] [--quick] [--write-baseline FILE] [--history FILE] \
     [--trend-window N]"
  in
  Arg.parse spec (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a))) usage;
  if !write_baseline <> "" then begin
    (* The baseline being replaced, when there is one, lends its
       tolerances (per-metric overrides included) to the new one. *)
    let previous = if Sys.file_exists !baseline then Some (load "baseline" !baseline) else None in
    let b = Check_core.baseline_of_results ?previous (load "results" !results) in
    let oc = open_out !write_baseline in
    output_string oc (Bench_json.to_string b);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" !write_baseline
  end
  else begin
    let report =
      Check_core.check ~quick:!quick ~baseline:(load "baseline" !baseline)
        ~results:(load "results" !results) ()
    in
    print_string (Check_core.render ~quick:!quick report);
    (* The trend summary rides along after the gate and never affects the
       exit code. *)
    Option.iter
      (fun lines ->
        print_newline ();
        print_string (Check_core.trend ~window:!trend_window lines))
      (read_history !history);
    exit (if Check_core.passed report then 0 else 1)
  end
