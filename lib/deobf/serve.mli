(** Deobfuscation as a service: a hardened long-running daemon over a Unix
    or TCP socket speaking NDJSON — one JSON request object per line,
    exactly one JSON response line per request line.  Responses are
    matched by [id], {e not} by order: control ops are answered inline
    while deobfuscation requests queue, and with [jobs > 1] requests
    complete as workers finish them.

    {2 Protocol}

    Request fields (flat JSON object, one per line):
    {ul
    {- [op] — ["deobfuscate"] (the default when absent), ["health"],
       ["metrics"], or ["shutdown"];}
    {- [id] — echoed back verbatim (string or integer); defaults to a
       server-assigned sequence number;}
    {- [script] — the source text (JSON-escaped), or [path] — a file to
       read server-side;}
    {- [timeout_s] — per-request budget, capped at the server's
       [max_timeout_s];}
    {- [verify] — override the server's semantic-gate default;}
    {- [trace] — [true] inlines the request's span events as a [trace]
       array in the response (bounded ring, observation-only).}}

    Responses: [{"id":…, "status":"ok"|"degraded", "trace_id":…,
    "output":…, "report":{…}}] with the same per-file report object as
    batch mode
    (flattened to one line); [{"id":…, "status":"overloaded",
    "retry_after_ms":…}] when admission control sheds the request;
    [{"id":…, "status":"error", "kind":…, "detail":…}] for anything else —
    unreadable paths, malformed requests, contained faults.  Every request
    line is answered by exactly one of these.

    {2 Hardening}

    Worker domains ({!Pscommon.Pool.Service}) run each request through
    {!Batch.run_source} — the batch retry ladder and {!Verify} gate — under
    a {!Pscommon.Guard} ambient deadline that starts at {e admission}, so
    queue time counts against the request's budget and drain time is
    bounded.  Any failure is a structured error response; workers recycle,
    the daemon survives.  All workers share one warm bounded piece cache
    ({!Recover.Cache}) for the life of the process — a piece recovered for
    one request is a hit for every later one, whichever worker runs it —
    and with [piece_cache_dir] it persists across daemon restarts.  The
    ["metrics"] op answers with the run snapshot ({!Snapshot.of_cache}):
    cache, dynamic funnel, self-healing state ([selfheal]: worker
    counters, quarantined rules, memory) and the registry snapshot.

    {2 Self-healing}

    A supervisor domain watches per-worker heartbeats: a worker still busy
    past its request's deadline plus [grace_s] is declared {e wedged} —
    its client gets a structured [kind:"wedged"] error, the domain is
    abandoned and a fresh one installed, with exponential backoff on
    respawn failures.  A {!Pscommon.Memwatch} governor sheds admissions
    ([reason:"memory"]), shrinks caches, and recycles workers as the heap
    crosses the configured watermarks.  {!Quarantine} circuit-breaks
    transforms the semantic gate keeps rolling back.

    Chaos probe sites [serve.accept], [serve.read], [serve.write] and
    [serve.queue] inject socket-edge faults: accept/read faults delay (the
    kernel backlog and unconsumed bytes retry next select round), write
    faults are counted and retried, queue faults cost that one request an
    error response.  [serve.wedge] spins a worker in a bounded
    checkpoint-free loop (exercising the watchdog); [serve.respawn] fails
    the replacement spawn (exercising the backoff). *)

type bind = Unix_sock of string | Tcp of string * int

val parse_bind : string -> (bind, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or a bare path (treated as a Unix
    socket). *)

val bind_to_string : bind -> string

type config = {
  bind : bind;
  jobs : int;  (** worker domains *)
  queue_cap : int;  (** admission-control bound; beyond it requests shed *)
  default_timeout_s : float;  (** per-request budget when unspecified *)
  max_timeout_s : float;  (** cap on client-requested budgets *)
  max_request_bytes : int;
      (** a connection whose unterminated line exceeds this is answered
          with a ["too-large"] error and closed — a flood of bytes cannot
          grow memory *)
  max_output_bytes : int;
  options : Engine.options;
  verify : bool;  (** default semantic-gate setting; per-request overridable *)
  verify_opts : Verify.opts option;
  cache_cap : int;  (** process-shared piece-cache capacity *)
  piece_cache_dir : string option;
      (** persistent piece-cache tier shared with batch runs; entries are
          guarded by {!Batch.piece_cache_fingerprint} *)
  trace_dir : string option;
      (** write per-request traces here ([req-<seq>.trace.jsonl]) *)
  trace_sample : int option;
      (** with [trace_dir]: serialize only every n-th request's trace;
          the rest record into a reusable per-domain scratch ring *)
  metrics_out : string option;
      (** write the final run snapshot here on drain *)
  metrics_addr : bind option;
      (** serve a Prometheus scrape endpoint ([GET /metrics]) on this
          address, on its own listener domain — scrapes never contend
          with request admission.  Renders the registry snapshot plus
          the rolling-window aggregates ({!Pscommon.Telemetry.Window}) *)
  flight_dir : string option;
      (** enable the {!Pscommon.Telemetry.Flight} recorder and dump its
          per-domain ring here on worker recycle, blown deadline, or
          chaos queue fault *)
  grace_s : float;
      (** watchdog patience: a worker still busy past its request's
          deadline plus this grace is declared wedged — the request is
          answered with a structured [kind:"wedged"] error and the worker
          domain abandoned and replaced ({!Pscommon.Pool.Service}
          supervision) *)
  mem_soft_mb : int option;
      (** soft memory watermark ({!Pscommon.Memwatch}): past it new
          requests are shed with [status:"overloaded", reason:"memory"]
          and the piece cache drops its cold generations; [None] disables *)
  mem_hard_mb : int option;
      (** hard memory watermark: additionally, workers recycle between
          requests, releasing domain-local state; [None] disables *)
  max_major_bytes : int option;
      (** per-request major-allocation budget installed via
          {!Pscommon.Guard.protect}; an exhausted budget degrades the
          request to a structured out-of-memory failure.  Runtime-wide
          accounting — size it as a generous backstop, not an SLA *)
  quarantine : bool;
      (** adaptive rule quarantine ({!Quarantine}): transforms repeatedly
          rolled back by the semantic gate are skipped up front until a
          half-open probe re-admits them.  On by default in the daemon;
          [--no-quarantine] restores the always-run behaviour *)
}

val default_config : bind -> config
(** 1 job, queue 64, 30 s default / 300 s max budget, 8 MiB request cap,
    32 MiB output cap, verify off, cache 2048 (memory-only), no tracing,
    no scrape endpoint, flight recorder off, 2 s wedge grace, memory
    governor off, no allocation budget, quarantine on. *)

type server
(** A daemon started in a background domain by {!start}. *)

val start : config -> (server, string) result
(** Bind the socket (errors reported synchronously — address in use,
    bad path) and start serving in a spawned domain. *)

val stop : server -> unit
(** Initiate graceful drain: stop accepting and reading, finish or
    deadline-out queued work, flush telemetry.  Returns immediately;
    {!wait} observes completion. *)

val wait : server -> int
(** Join the serve loop and return its exit code (0 after a graceful
    drain). *)

val run : config -> int
(** Serve in the calling domain until SIGTERM/SIGINT (handlers installed
    here) or a ["shutdown"] request initiates drain.  Returns the process
    exit code: 0 after a graceful drain, 1 when the socket cannot be bound
    or the loop crashed. *)
