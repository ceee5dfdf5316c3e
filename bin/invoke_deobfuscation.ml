(* invoke-deobfuscation — command-line front end.

   Subcommands:
     deobfuscate   recover a script (file or stdin), print or write result
     score         print the obfuscation score and detected techniques
     tokens        dump the token stream
     ast           dump the AST
     run           execute a script in the behaviour sandbox, print events
     obfuscate     apply obfuscation techniques (for testing / corpora)
     keyinfo       extract URLs / IPs / ps1 paths / powershell commands
     compare       run every tool on a script and print each result *)

open Cmdliner

let read_input = function
  | None | Some "-" -> In_channel.input_all In_channel.stdin
  | Some path -> In_channel.with_open_bin path In_channel.input_all

let write_output output = function
  | None -> print_string output
  | Some path -> Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc output)

let input_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Input script (defaults to stdin).")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the result to $(docv).")

(* ---------- deobfuscate ---------- *)

module T = Pscommon.Telemetry

let deobfuscate_cmd =
  let run input output no_tracing no_blocklist no_multilayer no_rename
      no_reformat no_token_phase no_piece_cache no_partial no_dynamic chaos
      stats batch
      jobs timeout trace log_level log_format summary_flag verify_flag
      no_verify resume serve queue_cap cache_cap piece_cache_dir trace_sample
      metrics_out metrics_addr flight_dir client no_quarantine grace
      mem_soft_mb mem_hard_mb max_major_mb =
    Option.iter (fun l -> T.Log.set_level (Some l)) log_level;
    Option.iter T.Log.set_format log_format;
    (* the flight recorder is mode-independent: batch dumps on pool-task
       faults and diverged verdicts, serve additionally on recycle/deadline *)
    Option.iter (fun d -> T.Flight.set_sink (Some d)) flight_dir;
    (match
       match chaos with Some s -> Some s | None -> Sys.getenv_opt "INVOKE_DEOBF_CHAOS"
     with
    | None -> ()
    | Some spec -> (
        match Pscommon.Chaos.parse_spec spec with
        | Ok cfg -> Pscommon.Chaos.set (Some cfg)
        | Error msg ->
            Printf.eprintf "--chaos: %s\n" msg;
            exit 2));
    let options =
      {
        Deobf.Engine.token_phase = not no_token_phase;
        recovery =
          { Deobf.Recover.default_options with
            use_tracing = not no_tracing;
            use_blocklist = not no_blocklist;
            use_multilayer = not no_multilayer;
            use_piece_cache = not no_piece_cache;
            use_dynamic = not no_dynamic };
        rename = not no_rename;
        reformat = not no_reformat;
        max_iterations = Deobf.Engine.default_options.Deobf.Engine.max_iterations;
        partial = not no_partial;
      }
    in
    (match client with
    | None -> ()
    | Some addr -> (
        (* client mode: submit files to a running daemon over NDJSON,
           honouring its backpressure (retry_after_ms + jittered backoff) *)
        match Deobf.Serve.parse_bind addr with
        | Error msg ->
            Printf.eprintf "--client: %s\n" msg;
            exit 2
        | Ok bind ->
            let files =
              match input with
              | Some d when d <> "-" && Sys.file_exists d && Sys.is_directory d
                ->
                  Sys.readdir d |> Array.to_list |> List.sort String.compare
                  |> List.filter_map (fun f ->
                         let p = Filename.concat d f in
                         if Sys.is_directory p then None else Some p)
              | Some f when f <> "-" -> [ f ]
              | _ ->
                  Printf.eprintf
                    "deobfuscate --client requires a file or directory \
                     argument\n";
                  exit 2
            in
            let verify =
              if verify_flag then Some true
              else if no_verify then Some false
              else None
            in
            exit
              (Deobf.Client.run ?timeout_s:timeout ?verify ?out_dir:output
                 ~addr:bind files)));
    (match serve with
    | None -> ()
    | Some addr -> (
        (* daemon mode: serve NDJSON requests over a socket until
           SIGTERM/SIGINT or a shutdown request drains the server *)
        match Deobf.Serve.parse_bind addr with
        | Error msg ->
            Printf.eprintf "--serve: %s\n" msg;
            exit 2
        | Ok bind ->
            let metrics_addr =
              match metrics_addr with
              | None -> None
              | Some spec -> (
                  match Deobf.Serve.parse_bind spec with
                  | Ok b -> Some b
                  | Error msg ->
                      Printf.eprintf "--metrics-addr: %s\n" msg;
                      exit 2)
            in
            let base = Deobf.Serve.default_config bind in
            let cfg =
              { base with
                Deobf.Serve.jobs =
                  (match jobs with
                  | Some n -> max 1 n
                  | None -> Pscommon.Pool.recommended_jobs ());
                queue_cap = max 1 queue_cap;
                default_timeout_s =
                  Option.value timeout
                    ~default:base.Deobf.Serve.default_timeout_s;
                options;
                verify = verify_flag && not no_verify;
                cache_cap = max 1 cache_cap;
                piece_cache_dir;
                trace_dir =
                  (match trace with None | Some "" -> None | d -> d);
                trace_sample;
                metrics_out;
                metrics_addr;
                flight_dir;
                grace_s = (match grace with Some g -> Float.max 0.01 g | None -> base.Deobf.Serve.grace_s);
                mem_soft_mb;
                mem_hard_mb;
                max_major_bytes =
                  Option.map (fun mb -> mb * 1024 * 1024) max_major_mb;
                quarantine = not no_quarantine }
            in
            exit (Deobf.Serve.run cfg)));
    if batch then begin
      (* per-file isolation: a hanging or crashing sample is contained by
         its own deadline and recorded; the batch continues *)
      let dir =
        match input with
        | Some d when d <> "-" -> d
        | _ ->
            Printf.eprintf "deobfuscate --batch requires a directory argument\n";
            exit 2
      in
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "deobfuscate --batch: not a directory: %s\n" dir;
        exit 2
      end;
      let out_dir =
        match output with Some o -> o | None -> dir ^ "-deobfuscated"
      in
      let timeout_s = Option.value timeout ~default:30.0 in
      let jobs =
        match jobs with
        | Some n -> max 1 n
        | None -> Pscommon.Pool.recommended_jobs ()
      in
      (* bare --trace puts the per-file JSONL streams next to the outputs *)
      let trace_dir =
        match trace with
        | None -> None
        | Some "" -> Some out_dir
        | Some dir -> Some dir
      in
      let summary =
        Deobf.Batch.run_dir ~options ~timeout_s ~out_dir ?trace_dir
          ?trace_sample ~jobs ~verify:(not no_verify) ~resume
          ?piece_cache_dir dir
      in
      print_endline (Deobf.Batch.summary_to_json summary);
      T.Log.info (fun () ->
          Printf.sprintf "%d files: %d clean, %d degraded (reports in %s)"
            summary.Deobf.Batch.total summary.Deobf.Batch.clean
            summary.Deobf.Batch.degraded out_dir);
      if summary_flag then
        prerr_string (Deobf.Snapshot.to_text (Deobf.Batch.snapshot summary));
      (* exit 0 only when every file came through clean at full strength;
         2 signals that at least one file degraded, needed the retry
         ladder, or failed the semantic gate without a successful rollback,
         so callers scripting over corpora can detect it *)
      if summary.Deobf.Batch.degraded > 0
         || Deobf.Batch.diverged_count summary > 0
      then exit 2
    end
    else begin
      let src = read_input input in
      let file_trace =
        match trace with None -> None | Some path -> Some (path, T.create ())
      in
      (* each run gets a fresh cache, as it would by default; the last
         one is kept for the --summary snapshot *)
      let last_cache = ref None in
      let run_once ?(suppress = []) () =
        let cache = Deobf.Recover.Cache.create () in
        last_cache := Some cache;
        Deobf.Engine.run_guarded ~options
          ~timeout_s:(Option.value timeout ~default:infinity)
          ~cache ~suppress src
      in
      let compute () =
        let guarded = run_once () in
        if verify_flag then
          let g, o =
            Deobf.Verify.gate
              ~rerun:(fun ~suppress -> run_once ~suppress ())
              ~src guarded
          in
          (g, Some o)
        else (guarded, None)
      in
      let guarded, verify_outcome =
        match file_trace with
        | None -> compute ()
        | Some (_, tr) -> T.with_trace tr compute
      in
      (match file_trace with
      | None -> ()
      | Some ("", tr) -> prerr_string (T.to_jsonl tr)
      | Some (path, tr) ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (T.to_jsonl tr)));
      let result = guarded.Deobf.Engine.result in
      write_output result.Deobf.Engine.output output;
      (match verify_outcome with
      | None -> ()
      | Some o ->
          Printf.eprintf "verify: %s%s\n"
            (Deobf.Verify.verdict_name o.Deobf.Verify.verdict)
            (match Deobf.Verify.verdict_detail o.Deobf.Verify.verdict with
            | None -> ""
            | Some d -> " (" ^ d ^ ")"));
      List.iter
        (fun (site : Deobf.Engine.failure_site) ->
          T.Log.warn (fun () ->
              Printf.sprintf "contained failure in %s: %s" site.phase
                (Pscommon.Guard.failure_to_string site.failure)))
        guarded.Deobf.Engine.failures;
      if summary_flag then
        Option.iter
          (fun cache ->
            prerr_string
              (Deobf.Snapshot.to_text (Deobf.Snapshot.of_guarded ~cache guarded));
            Printf.eprintf "score: %d -> %d\n" (Deobf.Score.score src)
              (Deobf.Score.score result.Deobf.Engine.output))
          !last_cache;
      if stats then
        Printf.eprintf
          "pieces recovered: %d\nvariables substituted: %d\nlayers unwrapped: %d\npieces attempted: %d (blocked: %d, cache hits: %d)\niterations: %d\nchanged: %b\n"
          result.stats.Deobf.Recover.pieces_recovered
          result.stats.Deobf.Recover.variables_substituted
          result.stats.Deobf.Recover.layers_unwrapped
          result.stats.Deobf.Recover.pieces_attempted
          result.stats.Deobf.Recover.pieces_blocked
          result.stats.Deobf.Recover.cache_hits
          result.Deobf.Engine.iterations result.Deobf.Engine.changed
    end
  in
  let flag names doc = Arg.(value & flag & info names ~doc) in
  Cmd.v
    (Cmd.info "deobfuscate" ~doc:"Recover an obfuscated PowerShell script.")
    Term.(
      const run $ input_arg $ output_arg
      $ flag [ "no-tracing" ] "Disable variable tracing (ablation)."
      $ flag [ "no-blocklist" ] "Disable the command blocklist (ablation)."
      $ flag [ "no-multilayer" ] "Disable Invoke-Expression unwrapping (ablation)."
      $ flag [ "no-rename" ] "Keep randomised identifier names."
      $ flag [ "no-reformat" ] "Keep original whitespace."
      $ flag [ "no-token-phase" ] "Disable token-level (L1) recovery (ablation)."
      $ flag [ "no-piece-cache" ] "Disable the piece result cache (ablation)."
      $ flag [ "no-partial" ]
          "Disable partial-parse recovery: unparseable files are returned \
           unchanged instead of being segmented into recoverable regions."
      $ flag [ "no-dynamic" ]
          "Disable provenance-guided dynamic recovery of loop/conditional \
           regions (ablation): the output is exactly the static-only \
           pipeline's."
      $ Arg.(
          value
          & opt (some string) None
          & info [ "chaos" ] ~docv:"SEED:RATE"
              ~doc:
                "Deterministic fault injection for resilience testing: \
                 inject containment-taxonomy faults at named probe points \
                 with probability $(i,RATE), seeded by $(i,SEED).  Optional \
                 per-site overrides: SEED:RATE:site=rate,site=rate.  Also \
                 read from $(b,INVOKE_DEOBF_CHAOS) when the flag is absent.")
      $ flag [ "stats" ] "Print recovery statistics to stderr."
      $ flag [ "batch" ]
          "Treat FILE as a directory of samples: process each file in \
           crash-isolated fashion, writing recovered scripts, per-file \
           failure reports and batch_report.json to the output directory \
           (-o, default FILE-deobfuscated)."
      $ Arg.(
          value
          & opt (some int) None
          & info [ "j"; "jobs" ] ~docv:"N"
              ~doc:
                "Process $(docv) files in parallel in --batch mode \
                 (default: the number of cores).  Outputs are byte-identical \
                 to a sequential run.")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "timeout" ] ~docv:"SECONDS"
              ~doc:
                "Wall-clock budget per script; overruns degrade to partial \
                 recovery and are reported (default: unlimited, 30s in \
                 --batch mode).")
      $ Arg.(
          value
          & opt ~vopt:(Some "") (some string) None
          & info [ "trace" ] ~docv:"PATH"
              ~doc:
                "Record a span/event trace of the run as JSONL.  Single \
                 file: write to $(docv), or to stderr with bare $(b,--trace). \
                 In $(b,--batch) mode $(docv) is a directory receiving one \
                 <file>.trace.jsonl stream per input (bare $(b,--trace): the \
                 output directory).")
      $ Arg.(
          value
          & opt
              (some
                 (enum
                    [ ("error", T.Log.Error); ("warn", T.Log.Warn);
                      ("info", T.Log.Info); ("debug", T.Log.Debug) ]))
              None
          & info [ "log-level" ] ~docv:"LEVEL"
              ~doc:
                "Enable diagnostic logging to stderr at $(docv) and above \
                 (error|warn|info|debug; default: silent).")
      $ Arg.(
          value
          & opt (some (enum [ ("text", T.Log.Text); ("json", T.Log.Json) ]))
              None
          & info [ "log-format" ] ~docv:"FORMAT"
              ~doc:
                "Log line format: $(b,text) (the default, \"[level] msg\") \
                 or $(b,json) — one JSON object per line with ts, level, \
                 domain id, msg and structured fields, for log pipelines.")
      $ flag [ "summary" ]
          "Print a one-screen digest to stderr: scores, pieces \
           recovered/blocked, layers unwrapped, cache hit-rate, per-phase \
           milliseconds."
      $ flag [ "verify" ]
          "Single-file mode: run the semantic-equivalence gate — execute \
           original and result in the behaviour sandbox, compare canonical \
           effect logs, and on divergence bisect the edit journal and roll \
           the offending rewrites back.  Prints the verdict to stderr.  \
           (In --batch mode the gate is on by default; see --no-verify.)"
      $ flag [ "no-verify" ]
          "Batch mode: disable the semantic-equivalence gate (ablation). \
           Outputs are then emitted unverified and verdicts are null."
      $ flag [ "resume" ]
          "Batch mode: resume an interrupted run.  Reads manifest.jsonl \
           from the output directory and skips every file whose recorded \
           clean result matches the current input digest and options and \
           whose output file still exists; everything else is \
           (re)processed.  Outputs are byte-identical to an uninterrupted \
           run."
      $ Arg.(
          value
          & opt ~vopt:(Some "unix:invoke-deobf.sock") (some string) None
          & info [ "serve" ] ~docv:"ADDR"
              ~doc:
                "Run as a long-lived daemon on $(docv) (unix:PATH or \
                 tcp:HOST:PORT; bare $(b,--serve) binds \
                 unix:invoke-deobf.sock).  Speaks NDJSON: one JSON request \
                 per line (ops: deobfuscate, health, metrics, shutdown), \
                 one JSON response line per request.  Honours --jobs, \
                 --timeout (per-request default), --verify, --chaos, \
                 --trace DIR and --log-level.  Requests beyond --queue-cap \
                 are shed with an explicit overloaded response; \
                 SIGTERM/SIGINT drain gracefully (exit 0).")
      $ Arg.(
          value
          & opt int 64
          & info [ "queue-cap" ] ~docv:"N"
              ~doc:
                "Serve mode: admission-control bound on queued requests; \
                 beyond it requests are answered \
                 {\"status\":\"overloaded\",\"retry_after_ms\":...} instead \
                 of queueing unboundedly.")
      $ Arg.(
          value
          & opt int 2048
          & info [ "cache-cap" ] ~docv:"N"
              ~doc:
                "Serve mode: capacity of the process-shared warm piece \
                 cache (entries; shared by all workers, persists across \
                 requests).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "piece-cache-dir" ] ~docv:"DIR"
              ~doc:
                "Persist cacheable piece results to $(docv) (created if \
                 missing) and reload them on later runs, so a re-run over \
                 the same corpus — or a restarted daemon — starts with a \
                 warm piece cache.  Entries are content-addressed, written \
                 atomically, and guarded by a fingerprint of the recovery \
                 options; a corrupt or foreign entry loads as a miss.  \
                 Applies to --batch and --serve modes.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "trace-sample" ] ~docv:"N"
              ~doc:
                "With --trace DIR: serialize only every $(docv)-th trace \
                 (by input index in --batch mode, by request sequence in \
                 --serve mode).  Unsampled runs still trace into a \
                 reusable in-memory ring, shaving the serialization cost.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "metrics-out" ] ~docv:"FILE"
              ~doc:
                "Serve mode: write a final metrics snapshot (counters, \
                 gauges, latency histograms) to $(docv) when the daemon \
                 drains.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "metrics-addr" ] ~docv:"ADDR"
              ~doc:
                "Serve mode: expose a Prometheus scrape endpoint \
                 ($(b,GET /metrics), text exposition format 0.0.4) on \
                 $(docv) (unix:PATH or tcp:HOST:PORT), on its own listener \
                 so scrapes never contend with request admission.  Renders \
                 the live registry plus rolling-window aggregates (sliding \
                 p50/p90/p99 request latency, req/s, shed rate).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "flight-dir" ] ~docv:"DIR"
              ~doc:
                "Enable the flight recorder: each domain keeps a bounded \
                 in-memory ring of its most recent spans and events, and on \
                 a fault (worker recycle, blown deadline, chaos \
                 containment, diverged verify verdict) the ring is dumped \
                 to $(docv) as a JSONL black box carrying the failing \
                 request's trace id.  Zero serialization cost until a dump \
                 triggers.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "client" ] ~docv:"ADDR"
              ~doc:
                "Submit FILE (or every file in a directory FILE) to a \
                 running --serve daemon at $(docv) (unix:PATH or \
                 tcp:HOST:PORT) over NDJSON, one request in flight at a \
                 time.  Overloaded responses are honoured: the client \
                 sleeps the server's retry_after_ms hint under jittered \
                 exponential backoff and retries (bounded).  With -o DIR \
                 recovered outputs are written next to each input's \
                 basename.  Honours --timeout and --verify/--no-verify \
                 per request.  Exit 0 when every file was answered.")
      $ flag [ "no-quarantine" ]
          "Serve mode: disable the adaptive rule quarantine — transforms \
           repeatedly rolled back by the semantic gate keep running at \
           full strength instead of being circuit-broken and re-admitted \
           via half-open probes."
      $ Arg.(
          value
          & opt (some float) None
          & info [ "grace" ] ~docv:"SECONDS"
              ~doc:
                "Serve mode: watchdog patience past a request's deadline \
                 before its worker is declared wedged, the client answered \
                 with a structured error, and the worker domain replaced \
                 (default 2s).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "mem-soft" ] ~docv:"MB"
              ~doc:
                "Serve mode: soft memory watermark in MiB.  While the \
                 major heap sits above it, new requests are shed with \
                 reason \"memory\" and the piece cache drops its cold \
                 generations (default: off).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "mem-hard" ] ~docv:"MB"
              ~doc:
                "Serve mode: hard memory watermark in MiB.  Above it, \
                 workers additionally recycle between requests, releasing \
                 domain-local state (default: off).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "max-major-mb" ] ~docv:"MB"
              ~doc:
                "Serve mode: per-request major-allocation budget in MiB; \
                 a request that allocates past it degrades to a structured \
                 out-of-memory failure at its next checkpoint instead of \
                 growing the daemon's heap (runtime-wide accounting — a \
                 generous backstop, not an SLA; default: off)."))

(* ---------- score ---------- *)

let score_cmd =
  let run input =
    let src = read_input input in
    let d = Deobf.Score.detect src in
    Printf.printf "score: %d\n" (Deobf.Score.score_of_detection d);
    let l1, l2, l3 = Deobf.Score.levels d in
    Printf.printf "levels: %s%s%s\n"
      (if l1 then "L1 " else "")
      (if l2 then "L2 " else "")
      (if l3 then "L3" else "");
    List.iter (Printf.printf "technique: %s\n") (Deobf.Score.technique_names d)
  in
  Cmd.v
    (Cmd.info "score" ~doc:"Quantify the obfuscation of a script (paper §IV-B2).")
    Term.(const run $ input_arg)

(* ---------- tokens ---------- *)

let tokens_cmd =
  let run input =
    let src = read_input input in
    match Pslex.Lexer.tokenize src with
    | Error e ->
        Printf.eprintf "lex error at %d: %s\n" e.Pslex.Lexer.position e.Pslex.Lexer.message;
        exit 1
    | Ok toks ->
        List.iter
          (fun t ->
            Printf.printf "%-18s %-14s %S\n"
              (Pslex.Token.kind_name t.Pslex.Token.kind)
              (Format.asprintf "%a" Pscommon.Extent.pp t.Pslex.Token.extent)
              t.Pslex.Token.content)
          toks
  in
  Cmd.v (Cmd.info "tokens" ~doc:"Dump the token stream.") Term.(const run $ input_arg)

(* ---------- ast ---------- *)

let ast_cmd =
  let run input =
    let src = read_input input in
    match Psparse.Parser.parse src with
    | Error e ->
        Printf.eprintf "parse error at %d: %s\n" e.Psparse.Parser.position e.Psparse.Parser.message;
        exit 1
    | Ok ast ->
        let rec dump depth node =
          let text = Psast.Ast.text src node in
          let text =
            if String.length text > 60 then String.sub text 0 57 ^ "..." else text
          in
          Printf.printf "%s%s %S\n" (String.make (2 * depth) ' ')
            (Psast.Ast.kind_name node) text;
          List.iter (dump (depth + 1)) (Psast.Ast.children node)
        in
        dump 0 ast
  in
  Cmd.v (Cmd.info "ast" ~doc:"Dump the abstract syntax tree.") Term.(const run $ input_arg)

(* ---------- run (sandbox) ---------- *)

let sandbox_cmd =
  let run input =
    let src = read_input input in
    let report = Sandbox.run src in
    List.iter
      (fun ev -> Printf.printf "event: %s\n" (Pseval.Env.event_to_string ev))
      report.Sandbox.events;
    List.iter
      (fun v -> Printf.printf "output: %s\n" (Psvalue.Value.to_string v))
      report.Sandbox.output;
    match report.Sandbox.error with
    | Some e ->
        Printf.printf "error: %s\n" e;
        exit 2
    | None -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a script in the behaviour sandbox and print its events.")
    Term.(const run $ input_arg)

(* ---------- obfuscate ---------- *)

let obfuscate_cmd =
  let run input output technique seed layers =
    let src = read_input input in
    let rng = Pscommon.Rng.of_int seed in
    let result =
      match technique with
      | Some name -> (
          match Obfuscator.Technique.of_name name with
          | Some t -> Obfuscator.Obfuscate.apply rng t src
          | None ->
              Printf.eprintf "unknown technique %s; available: %s\n" name
                (String.concat ", "
                   (List.map Obfuscator.Technique.name Obfuscator.Technique.all));
              exit 1)
      | None ->
          if layers > 0 then Obfuscator.Obfuscate.multilayer rng layers src
          else fst (Obfuscator.Obfuscate.wild_mix rng src)
    in
    write_output result output
  in
  Cmd.v
    (Cmd.info "obfuscate"
       ~doc:"Obfuscate a script (single technique, wild mix, or stacked layers).")
    Term.(
      const run $ input_arg $ output_arg
      $ Arg.(value & opt (some string) None & info [ "t"; "technique" ] ~docv:"NAME"
               ~doc:"Apply a single named technique.")
      $ Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Deterministic seed.")
      $ Arg.(value & opt int 0 & info [ "layers" ] ~docv:"N" ~doc:"Stack $(docv) L3 layers."))

(* ---------- keyinfo ---------- *)

let keyinfo_cmd =
  let run input =
    let src = read_input input in
    let info = Keyinfo.extract src in
    List.iter (Printf.printf "ps1: %s\n") info.Keyinfo.ps1_files;
    List.iter (Printf.printf "powershell: %s\n") info.Keyinfo.powershell_commands;
    List.iter (Printf.printf "url: %s\n") info.Keyinfo.urls;
    List.iter (Printf.printf "ip: %s\n") info.Keyinfo.ips
  in
  Cmd.v
    (Cmd.info "keyinfo" ~doc:"Extract key indicators (URLs, IPs, ps1 paths).")
    Term.(const run $ input_arg)

(* ---------- report ---------- *)

let report_cmd =
  let run input output verify =
    let src = read_input input in
    write_output
      (Deobf.Report.to_json (Deobf.Report.analyze ~verify src) ^ "\n")
      output
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Deobfuscate and emit a JSON analysis report (scores, stats, indicators).")
    Term.(
      const run $ input_arg $ output_arg
      $ Arg.(
          value & flag
          & info [ "verify" ]
              ~doc:
                "Run the semantic-equivalence gate and include the verdict \
                 in the report."))

(* ---------- format ---------- *)

let format_cmd =
  let run input output =
    let src = read_input input in
    match Psparse.Parser.parse src with
    | Error e ->
        Printf.eprintf "parse error at %d: %s\n" e.Psparse.Parser.position
          e.Psparse.Parser.message;
        exit 1
    | Ok ast -> write_output (Psast.Printer.print ast) output
  in
  Cmd.v
    (Cmd.info "format" ~doc:"Re-render a script in canonical form.")
    Term.(const run $ input_arg $ output_arg)

(* ---------- generate-corpus ---------- *)

let corpus_cmd =
  let run dir count seed dynamic =
    let samples =
      if dynamic then Corpus.Generator.generate_dynamic ~seed ~count
      else Corpus.Generator.generate ~seed ~count
    in
    let written = Corpus.Dataset.write ~dir samples in
    Printf.printf "wrote %d samples (plus clean ground truth and manifest.json) to %s\n"
      written dir
  in
  Cmd.v
    (Cmd.info "generate-corpus"
       ~doc:"Generate a wild-style corpus with ground truth to a directory.")
    Term.(
      const run
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Output directory.")
      $ Arg.(value & opt int 100 & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of samples.")
      $ Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Deterministic seed.")
      $ Arg.(
          value & flag
          & info [ "dynamic" ]
              ~doc:
                "Dynamic-assembly samples only: loop-built strings, \
                 +=/-join accumulators, conditional payload selection — \
                 the shapes static tracing cannot fold."))

(* ---------- compare ---------- *)

let compare_cmd =
  let run input =
    let src = read_input input in
    List.iter
      (fun tool ->
        let out = tool.Baselines.Tool.deobfuscate src in
        Printf.printf "=== %s ===\n%s\n" tool.Baselines.Tool.name
          (String.trim out.Baselines.Tool.result))
      Baselines.All_tools.all
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run all five tools of the paper's comparison.")
    Term.(const run $ input_arg)

let main =
  Cmd.group
    (Cmd.info "invoke-deobfuscation" ~version:"1.0.0"
       ~doc:"AST-based, semantics-preserving PowerShell deobfuscation (DSN 2022 reproduction).")
    [ deobfuscate_cmd; score_cmd; tokens_cmd; ast_cmd; sandbox_cmd;
      obfuscate_cmd; keyinfo_cmd; compare_cmd; corpus_cmd; format_cmd;
      report_cmd ]

let () = exit (Cmd.eval main)
