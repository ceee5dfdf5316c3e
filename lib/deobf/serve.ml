(** Deobfuscation as a service: a hardened long-running daemon.

    One listener domain multiplexes connections with [select] and parses
    NDJSON request lines; a {!Pscommon.Pool.Service} of worker domains
    runs each request through {!Batch.run_source} — the same retry
    ladder, fault containment and semantic gate as a batch file.  The
    architectural invariants:

    {ul
    {- {e admission control}: the worker queue is bounded; a request that
       does not fit is answered with an explicit ["overloaded"] response
       (with a [retry_after_ms] hint) instead of queueing unboundedly;}
    {- {e per-request budgets}: each request's deadline starts at admission
       and is installed as the {!Pscommon.Guard} ambient deadline around
       the whole pipeline, so every ladder rung inherits what is left of
       the request's budget — a request can time out, the daemon cannot;}
    {- {e fault containment}: any guard failure, chaos fault or worker
       exception becomes a structured error response; the worker recycles
       and the server never dies;}
    {- {e one response line per request line} — a client that sends [n]
       lines reads exactly [n] lines, whatever happened;}
    {- {e graceful drain}: on {!stop} (SIGTERM/SIGINT in {!run}, or the
       ["shutdown"] op) the listener stops accepting and reading, workers
       finish or deadline-out everything already queued, telemetry is
       flushed, and the loop exits 0.}} *)

module Guard = Pscommon.Guard
module Pool = Pscommon.Pool
module T = Pscommon.Telemetry
module Chaos = Pscommon.Chaos
module Memwatch = Pscommon.Memwatch

type bind = Unix_sock of string | Tcp of string * int

let bind_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let parse_bind spec =
  match String.index_opt spec ':' with
  | None -> Ok (Unix_sock spec)  (* a bare path *)
  | Some i -> (
      let scheme = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      match scheme with
      | "unix" when rest <> "" -> Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | Some j when j > 0 && j < String.length rest - 1 -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
              | _ -> Error ("invalid port: " ^ port))
          | _ -> Error ("expected tcp:HOST:PORT, got: " ^ spec))
      | _ -> Error ("expected unix:PATH or tcp:HOST:PORT, got: " ^ spec))

type config = {
  bind : bind;
  jobs : int;
  queue_cap : int;
  default_timeout_s : float;
  max_timeout_s : float;
  max_request_bytes : int;
  max_output_bytes : int;
  options : Engine.options;
  verify : bool;
  verify_opts : Verify.opts option;
  cache_cap : int;
  piece_cache_dir : string option;
  trace_dir : string option;
  trace_sample : int option;
  metrics_out : string option;
  metrics_addr : bind option;
  flight_dir : string option;
  grace_s : float;  (** watchdog patience past a request's deadline *)
  mem_soft_mb : int option;  (** shed admissions past this heap size *)
  mem_hard_mb : int option;  (** additionally recycle workers past this *)
  max_major_bytes : int option;  (** per-request major-allocation budget *)
  quarantine : bool;  (** adaptive rule quarantine (breakers on rollbacks) *)
}

let default_config bind =
  { bind; jobs = 1; queue_cap = 64; default_timeout_s = 30.0;
    max_timeout_s = 300.0; max_request_bytes = 8 * 1024 * 1024;
    max_output_bytes = 32 * 1024 * 1024; options = Engine.default_options;
    verify = false; verify_opts = None; cache_cap = 2048;
    piece_cache_dir = None; trace_dir = None; trace_sample = None;
    metrics_out = None; metrics_addr = None; flight_dir = None;
    grace_s = 2.0; mem_soft_mb = None; mem_hard_mb = None;
    max_major_bytes = None; quarantine = true }

(* ---------- metrics ---------- *)

let m_requests = T.Metrics.counter "serve.requests"
let m_request_ms = T.Metrics.histogram "serve.request_ms"
let m_shed = T.Metrics.counter "serve.shed"
let m_errors = T.Metrics.counter "serve.errors"
let m_connections = T.Metrics.counter "serve.connections"
let m_accept_faults = T.Metrics.counter "serve.accept_faults"
let m_read_faults = T.Metrics.counter "serve.read_faults"
let m_write_faults = T.Metrics.counter "serve.write_faults"
let m_queue_faults = T.Metrics.counter "serve.queue_faults"
let m_scrapes = T.Metrics.counter "serve.scrapes"
let m_wedge_faults = T.Metrics.counter "serve.wedge_faults"
let m_shed_memory = T.Metrics.counter "serve.shed_memory"

(* the admission EWMA, surfaced as a gauge so shed hints are observable *)
let m_ewma_ms = T.Metrics.gauge "serve.ewma_ms"

(* Rolling windows for the scrape endpoint: since-boot histograms answer
   "ever", these answer "the last minute" — sliding p50/p90/p99 over
   request latency, and req/s + shed/s rates whose window is the decay. *)
let w_request_ms = T.Window.window "serve.request_ms"
let w_shed = T.Window.window "serve.shed"

(* EWMA of request handling time, feeding the retry_after_ms hint in
   overload responses.  Process-wide and racy by design — a hint, not an
   SLA. *)
let avg_request_ms = Atomic.make 250.0

let note_request_ms ms =
  T.Metrics.observe m_request_ms ms;
  T.Window.observe w_request_ms ms;
  let old = Atomic.get avg_request_ms in
  (* a lost race loses one sample of smoothing, nothing else *)
  ignore (Atomic.compare_and_set avg_request_ms old ((0.8 *. old) +. (0.2 *. ms)));
  T.Metrics.set m_ewma_ms (int_of_float (Atomic.get avg_request_ms))

(* ---------- connections ---------- *)

type conn = {
  fd : Unix.file_descr;
  mutable pending : string;  (* bytes read but not yet newline-terminated *)
  send_mutex : Mutex.t;  (* listener (overload/health) and workers both write *)
  mutable closed : bool;
}

(* Deliver one response line.  The "serve.write" probe models a fault in
   the response path; containment here means the fault is {e counted} and
   the write still happens (one retry without the probe), so the
   one-line-per-request contract survives injection.  A real socket error
   (peer gone) closes the connection — the queued work for it still runs,
   its response is simply dropped on the floor like any dead client's. *)
let send conn line =
  if not conn.closed then begin
    Mutex.lock conn.send_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock conn.send_mutex)
      (fun () ->
        (try Chaos.probe "serve.write"
         with _ -> T.Metrics.incr m_write_faults);
        let data = line ^ "\n" in
        let n = String.length data in
        let rec go off =
          if off < n then
            go (off + Unix.write_substring conn.fd data off (n - off))
        in
        try go 0 with Unix.Unix_error _ | Sys_error _ -> conn.closed <- true)
  end

(* ---------- responses ---------- *)

let error_json ~id ~kind ~detail =
  T.Metrics.incr m_errors;
  Printf.sprintf "{\"id\": %s, \"status\": \"error\", \"kind\": %s, \"detail\": %s}"
    id
    (Report.json_string kind)
    (Report.json_string detail)

let overloaded_json ~id ~depth ~reason =
  T.Metrics.incr m_shed;
  if String.equal reason "memory" then T.Metrics.incr m_shed_memory;
  T.Window.observe w_shed 1.0;
  let retry =
    Float.max 10.0
      (Float.min 10_000.0
         (Atomic.get avg_request_ms *. float_of_int (depth + 1)))
  in
  Printf.sprintf
    "{\"id\": %s, \"status\": \"overloaded\", \"reason\": %s, \
     \"retry_after_ms\": %d}"
    id (Report.json_string reason)
    (int_of_float retry)

(* ---------- requests ---------- *)

type request = {
  rq_conn : conn;
  rq_line : string;
  rq_seq : int;
  rq_id : string;  (* already-rendered JSON value for the "id" field *)
  rq_tid : string;  (* trace id, allocated at admission *)
  rq_deadline : Guard.deadline;
  rq_timeout_s : float;
  rq_answered : bool Atomic.t;
      (* one-response-per-request CAS: the worker and the watchdog can both
         try to answer (the watchdog wins a wedge, the worker wins a late
         finish); exactly one send happens either way *)
}

let respond req line =
  if Atomic.compare_and_set req.rq_answered false true then
    send req.rq_conn line

(* the client's id is echoed verbatim (string or integer); without one the
   server's own sequence number keeps responses matchable *)
let id_of_line ~seq line =
  match Jsonl.string_field line "id" with
  | Some s -> Report.json_string s
  | None -> (
      match Jsonl.int_field line "id" with
      | Some n -> string_of_int n
      | None -> string_of_int seq)

(* One warm piece cache for the whole process, shared by every worker
   domain ({!Recover.Cache} is mutex-guarded): a decode piece recovered
   for one request is a hit for every later request, whichever worker
   runs it.  With [piece_cache_dir] the cache also persists across daemon
   restarts, guarded by the same options fingerprint as a batch run. *)
let make_cache cfg =
  Recover.Cache.create ~cap:cfg.cache_cap ?dir:cfg.piece_cache_dir
    ~fingerprint:
      (Batch.piece_cache_fingerprint ~options:(Some cfg.options)
         ~timeout_s:(Some cfg.default_timeout_s)
         ~max_output_bytes:(Some cfg.max_output_bytes))
    ()

(* per-domain scratch ring for unsampled traced requests, mirroring the
   batch sampling fast path *)
let scratch_trace : T.trace Domain.DLS.key =
  Domain.DLS.new_key (fun () -> T.create ())

(* Per-request tracing, two consumers: [trace_dir] serializes sampled
   requests to [req-<seq>.trace.jsonl]; a request whose line carries
   ["trace": true] additionally gets its events inlined in the response
   (recorded into a small dedicated ring so the inline field stays
   bounded).  Either way the trace is created/reset inside the request-id
   scope, so its trace_id is the request's. *)
let with_request_trace cfg seq ~inline f =
  match (cfg.trace_dir, inline) with
  | None, None -> f ()
  | _ ->
      let sampled =
        match cfg.trace_sample with Some n when n > 1 -> seq mod n = 0 | _ -> true
      in
      let trace =
        match inline with
        | Some tr -> tr
        | None ->
            if sampled then T.create ()
            else begin
              let t = Domain.DLS.get scratch_trace in
              T.reset t;
              t
            end
      in
      let v =
        T.with_trace trace (fun () ->
            T.span ~attrs:[ ("request", T.I seq) ] "serve.request" f)
      in
      (match cfg.trace_dir with
      | Some dir when sampled ->
          let path =
            Filename.concat dir (Printf.sprintf "req-%d.trace.jsonl" seq)
          in
          ignore
            (Guard.protect (fun () ->
                 Out_channel.with_open_bin path (fun oc ->
                     Out_channel.output_string oc (T.to_jsonl trace))))
      | _ -> ());
      v

(* The worker-side request handler.  Totalised twice over: the pipeline
   inside is {!Batch.run_source} (already total), the outer
   {!Guard.protect} installs the request's admission-time deadline as the
   ambient budget (every ladder rung's own deadline is min'd against it)
   and catches anything outside the pipeline, and the final [try] is the
   last-resort conversion of a response-rendering bug into an error
   response rather than a recycled-but-silent worker. *)
let handle cfg cache req =
  (* everything the request records — trace events, flight entries, its
     response — carries the trace id allocated at admission *)
  T.with_request_id req.rq_tid @@ fun () ->
  try
    let line = req.rq_line in
    let id = req.rq_id in
    T.Metrics.incr m_requests;
    let t0 = Unix.gettimeofday () in
    (* per-request trace toggle: a bounded dedicated ring whose events are
       inlined in the response *)
    let inline =
      if Jsonl.bool_field line "trace" = Some true then
        Some (T.create ~capacity:4096 ())
      else None
    in
    let response =
      Chaos.with_scope (Printf.sprintf "req-%d" req.rq_seq) @@ fun () ->
      (* the "serve.wedge" site models the failure the watchdog exists for:
         a worker stuck in a loop that never reaches a Guard checkpoint, so
         the cooperative deadline cannot fire.  The injected loop is
         {e bounded} (deadline + 3 grace windows — past the point where the
         supervisor must have declared the wedge) so chaos runs always
         terminate; a real wedge would spin forever and be abandoned. *)
      (match Chaos.probe "serve.wedge" with
      | () -> ()
      | exception _ ->
          T.Metrics.incr m_wedge_faults;
          let until = req.rq_deadline +. (3.0 *. cfg.grace_s) in
          while Unix.gettimeofday () < until do
            ignore (Sys.opaque_identity 0)
          done);
      with_request_trace cfg req.rq_seq ~inline @@ fun () ->
      let src =
        match Jsonl.string_field line "script" with
        | Some s -> Ok s
        | None -> (
            match Jsonl.string_field line "path" with
            | None -> Error ("bad-request", "missing \"script\" or \"path\"")
            | Some p -> (
                match
                  Guard.protect (fun () ->
                      Chaos.probe "batch.read";
                      In_channel.with_open_bin p In_channel.input_all)
                with
                | Ok s -> Ok s
                | Error f -> Error ("read-failed", Guard.failure_to_string f)))
      in
      match src with
      | Error (kind, detail) -> error_json ~id ~kind ~detail
      | Ok src -> (
          let verify =
            Option.value ~default:cfg.verify (Jsonl.bool_field line "verify")
          in
          match
            Guard.protect ~deadline:req.rq_deadline
              ?max_major_bytes:cfg.max_major_bytes (fun () ->
                Batch.run_source ~options:cfg.options
                  ~timeout_s:req.rq_timeout_s
                  ~max_output_bytes:cfg.max_output_bytes ~cache ~verify
                  ?verify_opts:cfg.verify_opts
                  ~name:(Printf.sprintf "req-%d" req.rq_seq)
                  src)
          with
          | Ok (outcome, output) ->
              let status =
                if outcome.Batch.failures = [] then "ok" else "degraded"
              in
              Printf.sprintf
                "{\"id\": %s, \"status\": %s, \"trace_id\": %s, \
                 \"output\": %s, \"report\": %s}"
                id
                (Report.json_string status)
                (Report.json_string req.rq_tid)
                (Report.json_string output)
                (Jsonl.oneline (Batch.outcome_to_json outcome))
          | Error failure ->
              (* a blown deadline is a flight-recorder trigger: dump the
                 spans of the request that ran out of budget *)
              (match failure with
              | Guard.Timeout -> ignore (T.Flight.dump ~reason:"deadline" ())
              | _ -> ());
              error_json ~id ~kind:(Guard.failure_label failure)
                ~detail:(Guard.failure_to_string failure))
    in
    let response =
      match inline with
      | None -> response
      | Some tr ->
          (* splice the inline trace into the already-rendered response *)
          let n = String.length response in
          if n > 0 && response.[n - 1] = '}' then
            String.sub response 0 (n - 1)
            ^ Printf.sprintf ", \"trace\": %s}" (T.events_to_json_array tr)
          else response
    in
    respond req response;
    note_request_ms ((Unix.gettimeofday () -. t0) *. 1000.0)
  with e ->
    respond req
      (error_json ~id:req.rq_id ~kind:"internal"
         ~detail:(Printexc.to_string e));
    (* re-raise so the service pool counts the recycle (and dumps the
       flight ring while this domain's entries are still the request's) *)
    raise e

(* ---------- listener-side ops ---------- *)

let health_json ~id ~started ~service ~draining cfg =
  Printf.sprintf
    "{\"id\": %s, \"status\": \"ok\", \"op\": \"health\", \"state\": %s, \
     \"queue_depth\": %d, \"inflight\": %d, \"jobs\": %d, \"queue_cap\": %d, \
     \"uptime_s\": %.1f}"
    id
    (Report.json_string (if draining then "draining" else "serving"))
    (Pool.Service.depth service)
    (Pool.Service.inflight service)
    cfg.jobs cfg.queue_cap
    (Unix.gettimeofday () -. started)

(* ---------- sockets ---------- *)

let open_socket = function
  | Unix_sock path ->
      (* a stale socket file from a previous run would make bind fail *)
      (try if Sys.file_exists path then Sys.remove path
       with Sys_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 64;
         Ok fd
       with e ->
         (try Unix.close fd with _ -> ());
         Error (Printf.sprintf "bind %s: %s" path (Printexc.to_string e)))
  | Tcp (host, port) -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        let addr =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        Unix.listen fd 64;
        Ok fd
      with e ->
        (try Unix.close fd with _ -> ());
        Error
          (Printf.sprintf "bind %s:%d: %s" host port (Printexc.to_string e)))

(* ---------- the metrics scrape endpoint ---------- *)

(* A deliberately minimal HTTP/1.1 GET handler on its own listener (and
   its own domain), so a Prometheus scrape never contends with request
   admission: the main loop's select set, accept backlog and worker queue
   are untouched by scrapes, and a slow scraper can at worst slow other
   scrapers.  One request per connection ([Connection: close]) keeps the
   loop allocation-free of connection state. *)

let http_response ~status body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: text/plain; version=0.0.4; \
     charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status (String.length body) body

let scrape_response head =
  let request_line =
    match String.index_opt head '\r' with
    | Some i -> String.sub head 0 i
    | None -> head
  in
  match String.split_on_char ' ' request_line with
  | "GET" :: path :: _
    when path = "/metrics" || String.starts_with ~prefix:"/metrics?" path ->
      T.Metrics.incr m_scrapes;
      http_response ~status:"200 OK" (T.render_prometheus ())
  | _ -> http_response ~status:"404 Not Found" "not found\n"

(* read the request head (bounded, short deadline), answer, close — total:
   a malformed or stalled scraper costs its own connection, nothing else *)
let serve_scrape fd =
  (try
     let buf = Buffer.create 512 in
     let chunk = Bytes.create 4096 in
     let deadline = Unix.gettimeofday () +. 2.0 in
     let rec read_head () =
       (* the request line is all we parse; stop at its newline *)
       if
         Buffer.length buf < 8192
         && not (String.contains (Buffer.contents buf) '\n')
       then begin
         let remaining = deadline -. Unix.gettimeofday () in
         if remaining > 0.0 then
           match Unix.select [ fd ] [] [] remaining with
           | [ _ ], _, _ -> (
               match Unix.read fd chunk 0 (Bytes.length chunk) with
               | 0 -> ()
               | n ->
                   Buffer.add_subbytes buf chunk 0 n;
                   read_head ()
               | exception Unix.Unix_error _ -> ())
           | _ -> ()
       end
     in
     read_head ();
     let response = scrape_response (Buffer.contents buf) in
     let data = Bytes.of_string response in
     let len = Bytes.length data in
     let rec write_all off =
       if off < len then
         match Unix.write fd data off (len - off) with
         | n when n > 0 -> write_all (off + n)
         | _ -> ()
     in
     write_all 0
   with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let metrics_loop stop listen_fd =
  while not (Atomic.get stop) do
    match Unix.select [ listen_fd ] [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [ _ ], _, _ -> (
        match Unix.accept listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ -> serve_scrape fd)
    | _ -> ()
  done;
  try Unix.close listen_fd with Unix.Unix_error _ -> ()

(* ---------- the serve loop ---------- *)

let serve_loop cfg stop listen_fd =
  (* a client that disconnects mid-response must cost an EPIPE errno, not
     a process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let started = Unix.gettimeofday () in
  (* enable the flight recorder before any worker spawns so every domain
     records from its first request *)
  Option.iter (fun dir -> T.Flight.set_sink (Some dir)) cfg.flight_dir;
  (* the memory governor and the rule quarantine are daemon-scoped policy:
     configure both before any worker spawns *)
  Memwatch.configure ?soft_mb:cfg.mem_soft_mb ?hard_mb:cfg.mem_hard_mb ();
  Memwatch.install_alarm ();
  Quarantine.set_enabled cfg.quarantine;
  let cache = make_cache cfg in
  (* the watchdog: answer a wedged request from the supervisor domain (the
     CAS in [respond] keeps the one-line-per-request contract if the worker
     somehow finishes late), recycle workers between requests while over
     the hard memory watermark *)
  let supervise =
    { Pool.Service.sv_grace_s = cfg.grace_s;
      sv_deadline_of = (fun req -> req.rq_deadline);
      sv_describe = (fun req -> Printf.sprintf "req-%d" req.rq_seq);
      sv_on_wedged =
        (fun req ->
          respond req
            (error_json ~id:req.rq_id
               ~kind:(Guard.failure_label Guard.Wedged)
               ~detail:(Guard.failure_to_string Guard.Wedged)));
      sv_should_recycle = (fun () -> Memwatch.level () = Memwatch.Hard) }
  in
  let service =
    Pool.Service.create ~jobs:cfg.jobs ~queue_cap:cfg.queue_cap ~supervise
      (handle cfg cache)
  in
  (* the scrape endpoint listens on its own socket in its own domain —
     scrapes never touch the admission path.  It gets its OWN stop flag:
     [stop] starts the drain, but the daemon must stay observable while
     it drains, so the scrape loop is stopped only after the drain is
     done *)
  let metrics_stop = Atomic.make false in
  let metrics_listener =
    match cfg.metrics_addr with
    | None -> None
    | Some addr -> (
        match open_socket addr with
        | Error e ->
            T.Log.warn (fun () -> "metrics endpoint: " ^ e);
            None
        | Ok fd ->
            T.Log.info (fun () ->
                "metrics endpoint on " ^ bind_to_string addr);
            Some (addr, Domain.spawn (fun () -> metrics_loop metrics_stop fd)))
  in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let seq = ref 0 in
  (* previous admission-time pressure level: cache shrinking happens on
     the Ok -> pressured crossing, not on every shed request *)
  let last_mem_level = ref Memwatch.Ok in
  let close_conn conn =
    conn.closed <- true;
    Hashtbl.remove conns conn.fd;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  in
  let accept_new () =
    match Chaos.probe "serve.accept" with
    | exception _ ->
        (* contained: the pending connection stays in the kernel backlog
           and select reports it again next round — delayed, not lost *)
        T.Metrics.incr m_accept_faults
    | () -> (
        match Unix.accept listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
            T.Metrics.incr m_connections;
            Hashtbl.replace conns fd
              { fd; pending = ""; send_mutex = Mutex.create (); closed = false })
  in
  let process_line conn line =
    if String.trim line <> "" then begin
      incr seq;
      let id = id_of_line ~seq:!seq line in
      let op =
        Option.value ~default:"deobfuscate" (Jsonl.string_field line "op")
      in
      match op with
      | "health" ->
          send conn
            (health_json ~id ~started ~service ~draining:(Atomic.get stop) cfg)
      | "metrics" ->
          send conn
            (Jsonl.oneline
               (Snapshot.to_json
                  ~head:[ ("id", id); ("status", "\"ok\""); ("op", "\"metrics\"") ]
                  (Snapshot.of_cache cache)))
      | "shutdown" ->
          send conn
            (Printf.sprintf "{\"id\": %s, \"status\": \"ok\", \"op\": \"shutdown\"}" id);
          Atomic.set stop true
      | "deobfuscate" -> (
          (* the memory governor gates admission before the queue does:
             over the soft watermark new work is shed with an explicit
             reason (work already admitted runs to completion), and the
             first crossing sheds the caches' cold generations too *)
          let mem_level = Memwatch.level () in
          if mem_level <> Memwatch.Ok then begin
            if !last_mem_level = Memwatch.Ok then Recover.Cache.shrink cache;
            last_mem_level := mem_level;
            send conn
              (overloaded_json ~id ~depth:(Pool.Service.depth service)
                 ~reason:"memory")
          end
          else begin
            last_mem_level := Memwatch.Ok;
          let timeout_s =
            Float.min cfg.max_timeout_s
              (Option.value ~default:cfg.default_timeout_s
                 (Jsonl.float_field line "timeout_s"))
          in
          let req =
            { rq_conn = conn; rq_line = line; rq_seq = !seq; rq_id = id;
              rq_tid = T.new_trace_id ();
              (* the budget starts at admission: time spent queued is part
                 of the request's deadline, which also bounds drain *)
              rq_deadline = Guard.deadline_after timeout_s;
              rq_timeout_s = timeout_s;
              rq_answered = Atomic.make false }
          in
          match Chaos.probe "serve.queue" with
          | exception e ->
              (* an injected queue fault costs this one request a
                 structured error, nothing more — and, as a containment
                 event, triggers a flight-recorder dump *)
              T.Metrics.incr m_queue_faults;
              ignore (T.Flight.dump ~reason:"chaos-queue-fault" ());
              send conn
                (error_json ~id ~kind:"queue-fault"
                   ~detail:(Printexc.to_string e))
          | () ->
              if not (Pool.Service.submit service req) then
                send conn
                  (overloaded_json ~id ~depth:(Pool.Service.depth service)
                     ~reason:"queue")
          end)
      | other ->
          send conn
            (error_json ~id ~kind:"bad-request" ~detail:("unknown op: " ^ other))
    end
  in
  let read_conn conn =
    match Chaos.probe "serve.read" with
    | exception _ ->
        (* contained: no bytes were consumed, so the request is intact and
           select re-fires next round — delayed, not lost *)
        T.Metrics.incr m_read_faults
    | () -> (
        let bytes = Bytes.create 65536 in
        match Unix.read conn.fd bytes 0 (Bytes.length bytes) with
        | exception Unix.Unix_error _ -> close_conn conn
        | 0 -> close_conn conn
        | n ->
            conn.pending <- conn.pending ^ Bytes.sub_string bytes 0 n;
            let rec drain_lines () =
              match String.index_opt conn.pending '\n' with
              | Some i ->
                  let line = String.sub conn.pending 0 i in
                  conn.pending <-
                    String.sub conn.pending (i + 1)
                      (String.length conn.pending - i - 1);
                  process_line conn line;
                  drain_lines ()
              | None ->
                  if String.length conn.pending > cfg.max_request_bytes then begin
                    incr seq;
                    send conn
                      (error_json ~id:(string_of_int !seq) ~kind:"too-large"
                         ~detail:
                           (Printf.sprintf "request line exceeds %d bytes"
                              cfg.max_request_bytes));
                    close_conn conn
                  end
            in
            drain_lines ())
  in
  T.Log.info (fun () -> "serving on " ^ bind_to_string cfg.bind);
  while not (Atomic.get stop) do
    let fds =
      listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    match Unix.select fds [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if Atomic.get stop then ()
            else if fd = listen_fd then accept_new ()
            else
              match Hashtbl.find_opt conns fd with
              | Some conn -> read_conn conn
              | None -> ())
          ready
  done;
  (* graceful drain: stop accepting and reading (the loop above is done),
     finish everything already queued — each request bounded by its own
     admission-time deadline — then flush telemetry and release sockets *)
  T.Log.info (fun () ->
      Printf.sprintf "draining: %d queued, %d in flight"
        (Pool.Service.depth service)
        (Pool.Service.inflight service));
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Pool.Service.shutdown service;
  (match cfg.metrics_out with
  | None -> ()
  | Some path ->
      ignore
        (Guard.protect (fun () ->
             Out_channel.with_open_bin path (fun oc ->
                 Out_channel.output_string oc
                   (Snapshot.to_json (Snapshot.of_cache cache));
                 Out_channel.output_char oc '\n'))));
  (* the quarantine flag is process-global: restore the disabled default
     so an embedding process (tests, benches) gets batch semantics back *)
  Quarantine.set_enabled false;
  T.Log.info (fun () ->
      Printf.sprintf "drained: %d request(s) served, %d shed, %d error(s)"
        (T.Metrics.counter_value m_requests)
        (T.Metrics.counter_value m_shed)
        (T.Metrics.counter_value m_errors));
  Hashtbl.iter (fun _ conn -> conn.closed <- true;
                 try Unix.close conn.fd with Unix.Unix_error _ -> ()) conns;
  Hashtbl.reset conns;
  (match cfg.bind with
  | Unix_sock path -> (try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ());
  (* only now stop the metrics listener: it kept serving scrapes through
     the whole drain above; release its socket last *)
  Atomic.set metrics_stop true;
  (match metrics_listener with
  | None -> ()
  | Some (addr, d) ->
      Domain.join d;
      (match addr with
      | Unix_sock path -> (try Sys.remove path with Sys_error _ -> ())
      | Tcp _ -> ()));
  0

(* the loop is expected total; this backstop turns an unexpected listener
   crash into exit 1 with the sockets released instead of a raw exception *)
let serve_total cfg stop listen_fd =
  try serve_loop cfg stop listen_fd
  with e ->
    T.Log.error (fun () -> "serve loop crashed: " ^ Printexc.to_string e);
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (match cfg.bind with
    | Unix_sock path -> (try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ());
    1

(* ---------- lifecycle ---------- *)

type server = { s_stop : bool Atomic.t; s_domain : int Domain.t }

let start cfg =
  match open_socket cfg.bind with
  | Error e -> Error e
  | Ok listen_fd ->
      let stop = Atomic.make false in
      Ok
        { s_stop = stop;
          s_domain = Domain.spawn (fun () -> serve_total cfg stop listen_fd) }

let stop s = Atomic.set s.s_stop true
let wait s = Domain.join s.s_domain

let run cfg =
  match open_socket cfg.bind with
  | Error e ->
      T.Log.error (fun () -> e);
      prerr_endline ("serve: " ^ e);
      1
  | Ok listen_fd ->
      let stop = Atomic.make false in
      let request_stop _ = Atomic.set stop true in
      (try
         Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
         Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
       with Invalid_argument _ | Sys_error _ -> ());
      serve_total cfg stop listen_fd
