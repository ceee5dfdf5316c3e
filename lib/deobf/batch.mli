(** Crash-isolated batch processing — the shape of the paper's Table II
    corpus runs and of any future service: one hanging or crashing sample is
    contained by its own deadline and recorded in a per-file JSON failure
    report, and the batch continues.  With [jobs > 1] the files run in
    parallel on a fixed-size domain pool ({!Pscommon.Pool}); outcomes stay
    in input order and outputs are byte-identical to a sequential run. *)

(** The degraded-mode retry ladder, strongest first.  When an attempt
    degrades for any reason a weaker mode could dodge (anything but a parse
    failure), the file is retried one rung down with a fresh deadline:
    {!Static} drops the dynamic recovery fixpoint (no piece execution),
    {!Token_only} additionally drops renaming and reformatting, and
    {!Passthrough} does not run the engine at all — the unconditional
    floor, so every file always yields an output and a classified report. *)
type mode = Full | Static | Token_only | Passthrough

val mode_name : mode -> string
(** ["full"], ["static"], ["token-only"], ["passthrough"] — the JSON tags. *)

val weaker : mode -> mode option
(** The next rung down, [None] below {!Passthrough}. *)

type outcome = {
  file : string;  (** input path *)
  output_file : string option;  (** where the recovered text was written *)
  wall_ms : float;
  phase_ms : (string * float) list;
      (** per-phase wall milliseconds from {!Engine.run_guarded} *)
  iterations : int;
  changed : bool;
  failures : Engine.failure_site list;
      (** empty when the file ran clean; accumulated across every ladder
          attempt, so a retried file shows its whole descent *)
  stats : Recover.stats;
  degraded_mode : mode;  (** the rung that produced the final output *)
  retries : int;  (** ladder steps taken; 0 means full strength *)
  regions_total : int;  (** {!Engine.guarded} partial-parse region count *)
  regions_recovered : int;
  verdict : Verify.verdict option;
      (** semantic-equivalence verdict; [None] when verification was off *)
  resumed : bool;
      (** answered from the resume journal — the previous run's output was
          kept and the pipeline did not run again *)
}

type summary = {
  total : int;
  clean : int;
      (** files with no contained failures {e and} no ladder retries —
          clean at full strength *)
  degraded : int;  (** files that degraded or walked the retry ladder *)
  wall_ms : float;
  jobs_requested : int;  (** the [jobs] the caller asked for *)
  jobs_effective : int;
      (** after clamping to {!Pscommon.Pool.recommended_jobs} — the pool
          size the run actually used *)
  cache_stats : Recover.Cache.stats;
      (** end-of-run snapshot of the shared piece cache *)
  outcomes : outcome list;  (** in processing order *)
}

type journal
(** Handle on the [manifest.jsonl] resume journal of one batch run; created
    internally by {!run_files} when there is an output directory. *)

val piece_cache_fingerprint :
  options:Engine.options option ->
  timeout_s:float option ->
  max_output_bytes:int option ->
  string
(** The version/options fingerprint guarding the persistent piece-cache
    tier ({!Recover.Cache.create}): a digest over the cache format version
    and every evaluation-relevant knob, so entries written by a run with
    different recovery options (or a future incompatible format) load as
    misses.  Used by {!run_files} and the serve daemon; exposed so other
    front ends pointing at the same cache directory stay compatible. *)

val run_source :
  ?options:Engine.options ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  ?cache:Recover.Cache.t ->
  ?verify:bool ->
  ?verify_opts:Verify.opts ->
  name:string ->
  string ->
  outcome * string
(** [run_source ~name src] is the shared request core between batch files
    and serve-daemon requests: walk the retry ladder on the source text,
    optionally run the {!Verify} gate on the winning rung, and return the
    outcome (with [file = name], no output file, [wall_ms] covering just
    the pipeline) alongside the recovered text.  [cache] supplies a
    caller-owned piece cache, so a long-running service keeps recovered
    pieces warm across requests; without it each call starts cold.  Never
    raises on malicious input — every degradation is a structured failure
    site in the outcome. *)

val process_file :
  ?options:Engine.options ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  ?cache:Recover.Cache.t ->
  ?out_dir:string ->
  ?trace_dir:string ->
  ?sampled:bool ->
  ?verify:bool ->
  ?verify_opts:Verify.opts ->
  ?journal:journal ->
  string ->
  outcome
(** Run one file through {!Engine.run_guarded} under its own deadline,
    descending the retry ladder on non-parse degradations.  Never raises:
    unreadable files and crashing samples come back as an outcome with
    failures, and anything escaping the per-file pipeline (including
    injected {!Pscommon.Chaos} pool faults) is contained by a backstop
    guard as a ["task"] failure site.  Under chaos injection the file is
    processed in a {!Pscommon.Chaos.with_scope} keyed by its basename, so
    faults replay identically across [--jobs] levels and traced/untraced
    runs.  With [out_dir], the recovered text is written
    to [out_dir/<basename>] and, when the file degraded, a failure report
    to [out_dir/<basename>.failures.json].  A failed output write is
    recorded as a ["write"] failure site.  With [trace_dir], the file runs
    under an ambient {!Pscommon.Telemetry} trace and the event stream is
    written to [trace_dir/<basename>.trace.jsonl] — one stream per input,
    even across pool domains.  With [sampled:false] (and a [trace_dir])
    the file still runs traced, but into a reusable per-domain scratch
    ring with no JSONL serialization — the sampling fast path.

    With [verify] (default off here, on in {!run_files}), the {!Verify}
    gate executes original and output in the sandbox after the ladder
    settles and the outcome carries the verdict; a divergence is rolled
    back by re-running the same rung with the offending edits suppressed.
    With [journal], the file is skipped when a matching clean ["done"]
    entry exists (resume), and ["started"]/["done"] entries are appended
    as it is processed. *)

val run_files :
  ?options:Engine.options ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  ?out_dir:string ->
  ?trace_dir:string ->
  ?trace_sample:int ->
  ?jobs:int ->
  ?verify:bool ->
  ?verify_opts:Verify.opts ->
  ?resume:bool ->
  ?piece_cache_dir:string ->
  string list ->
  summary
(** Process the given files, [jobs] at a time (default 1, sequential;
    clamped to {!Pscommon.Pool.recommended_jobs} — both the requested and
    effective levels are recorded in the summary).
    [out_dir] (and [trace_dir]) are created with mkdir-p semantics; if one
    cannot be created (e.g. the path names a regular file) every outcome
    carries a structured ["write"] failure instead of the batch crashing.
    The process-global {!Pscommon.Telemetry.Metrics} registry is reset at
    the start of the call, so a snapshot taken afterwards (and the
    [metrics.json] rollup from {!run_dir}) covers exactly this run.

    All files share one {!Recover.Cache} across every pool domain, so a
    decode piece recovered in one file is a cache hit in the next.  With
    [piece_cache_dir] (created mkdir-p; an unusable directory silently
    degrades to memory-only) cacheable piece results also persist across
    runs, guarded by a fingerprint of the evaluation-relevant options.

    [verify] (default on) runs the {!Verify} semantic gate on every file.
    With an [out_dir], the run keeps an append-only [manifest.jsonl]
    journal there (truncated at the start of a fresh run); [resume]
    (default off) loads it first and skips every file whose clean ["done"]
    entry matches the current input digest and options fingerprint and
    whose output file still exists — a restarted batch converges to the
    same output bytes without redoing finished work.

    [trace_sample n] (with a [trace_dir], [n > 1]) serializes only every
    n-th file's trace, by input index, so the selection is deterministic
    across [jobs] levels; unsampled files trace into a reusable scratch
    ring with no serialization cost. *)

val run_dir :
  ?options:Engine.options ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  ?out_dir:string ->
  ?trace_dir:string ->
  ?trace_sample:int ->
  ?jobs:int ->
  ?verify:bool ->
  ?verify_opts:Verify.opts ->
  ?resume:bool ->
  ?piece_cache_dir:string ->
  string ->
  summary
(** Process every regular file in a directory, in sorted order, except
    [*.json] / [*.jsonl]: the tool's own manifests, reports and traces
    (a [generate-corpus] directory, or a previous batch's output) are not
    scripts.  With [out_dir], also writes [out_dir/batch_report.json] and
    the run-level observability rollup [out_dir/metrics.json]. *)

val diverged_count : summary -> int
(** Files whose verdict is {!Verify.Diverged} — outputs kept but flagged
    untrusted; callers should treat any nonzero count as a failure. *)

val outcome_to_json : outcome -> string
val summary_to_json : summary -> string

val snapshot : summary -> Snapshot.t
(** The run-level rollup, with its batch-only [run] block; {!run_dir}
    writes it as [metrics.json] ({!Snapshot.to_json}).  The recovery and
    dynamic counters are summed over the outcomes, the cache figures are
    the shared cache's own, and the metrics registry covers exactly this
    run when taken right after {!run_files}/{!run_dir}, which reset it at
    the start of the run. *)
