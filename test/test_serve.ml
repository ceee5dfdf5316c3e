(* Tests for the serve daemon: NDJSON round-trips, bounded-queue admission
   control under flood, per-request deadline isolation, chaos containment
   at the socket edges, graceful drain, and the warm piece cache.  The
   standing contract: every request line is answered by exactly one
   response line (report, overloaded, or error) and the daemon never
   dies. *)

module Serve = Deobf.Serve
module Jsonl = Deobf.Jsonl
module Chaos = Pscommon.Chaos

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let with_chaos cfg f =
  Chaos.set (Some cfg);
  Fun.protect ~finally:(fun () -> Chaos.set None) f

let with_temp_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve-%s-%d" name (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

(* start a daemon on a fresh unix socket, run the test body, and always
   drain + join afterwards so no domain outlives the test *)
let with_server name cfg_of f =
  with_temp_dir name @@ fun dir ->
  let sock = Filename.concat dir "d.sock" in
  match Serve.start (cfg_of (Serve.Unix_sock sock)) with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok server ->
      let code =
        Fun.protect
          ~finally:(fun () -> Serve.stop server)
          (fun () -> f sock server)
        |> fun () -> Serve.wait server
      in
      check_i "graceful drain exits 0" 0 code

(* ---------- tiny NDJSON client ---------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

exception Closed

(* read until [n] complete lines arrived (or the deadline passes, letting
   the count assertions below produce a readable failure) *)
let read_lines ?(deadline_s = 60.0) fd n =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 65536 in
  let lines () =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  (try
     while
       List.length (lines ()) < n && Unix.gettimeofday () < deadline
     do
       match Unix.select [ fd ] [] [] 0.2 with
       | [], _, _ -> ()
       | _ -> (
           match Unix.read fd bytes 0 (Bytes.length bytes) with
           | 0 -> raise Closed
           | r -> Buffer.add_subbytes buf bytes 0 r
           | exception Unix.Unix_error _ ->
               (* a reset still leaves what already arrived in [buf] *)
               raise Closed)
     done
   with Closed -> ());
  lines ()

let request ?id ?op ?script ?timeout_s ?verify () =
  let field k v = Printf.sprintf "\"%s\": %s" k v in
  let fields =
    List.filter_map Fun.id
      [
        Option.map (fun i -> field "id" (Deobf.Report.json_string i)) id;
        Option.map (fun o -> field "op" (Deobf.Report.json_string o)) op;
        Option.map
          (fun s -> field "script" (Deobf.Report.json_string s))
          script;
        Option.map (fun t -> field "timeout_s" (Printf.sprintf "%g" t)) timeout_s;
        Option.map (fun v -> field "verify" (string_of_bool v)) verify;
      ]
  in
  "{" ^ String.concat ", " fields ^ "}\n"

let response_for lines id =
  match
    List.find_opt (fun l -> Jsonl.string_field l "id" = Some id) lines
  with
  | Some l -> l
  | None -> Alcotest.failf "no response for id %s in %d line(s)" id (List.length lines)

let status_of line =
  Option.value ~default:"?" (Jsonl.string_field line "status")

(* the decode-piece sample: its Invoke-Expression argument is a piece the
   engine executes and replaces, so the piece cache sees real traffic *)
let piece_script = "$x = 'he' + 'llo'; Invoke-Expression ('Write-Output ' + $x)"

(* a wall-clock bomb: an infinite loop the interpreter can only contain by
   deadline — exercises per-request budget isolation *)
let bomb_script = "$x = $(while (1 -lt 2) { 1 }; 'done')"

(* ---------- round trips ---------- *)

let test_roundtrip () =
  with_server "rt"
    (fun bind -> { (Serve.default_config bind) with Serve.jobs = 1 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"r1" ~script:piece_script ());
      let lines = read_lines fd 1 in
      let r = response_for lines "r1" in
      check_s "status ok" "ok" (status_of r);
      (match Jsonl.string_field r "output" with
      | Some out -> check_b "output changed" true (out <> piece_script)
      | None -> Alcotest.fail "missing output");
      check_b "report embedded" true
        (Jsonl.string_field r "file" = Some "req-1"))

let test_health_and_metrics () =
  with_server "hm"
    (fun bind -> { (Serve.default_config bind) with Serve.jobs = 1 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"h" ~op:"health" ());
      send_all fd (request ~id:"m" ~op:"metrics" ());
      let lines = read_lines fd 2 in
      let h = response_for lines "h" in
      check_s "health ok" "ok" (status_of h);
      check_s "health state" "serving"
        (Option.value ~default:"?" (Jsonl.string_field h "state"));
      check_b "health queue depth present" true
        (Jsonl.int_field h "queue_depth" <> None);
      let m = response_for lines "m" in
      check_s "metrics ok" "ok" (status_of m);
      check_b "metrics payload has counters" true
        (Jsonl.field_start m "counters" <> None))

let test_malformed_and_unknown () =
  with_server "bad"
    (fun bind -> { (Serve.default_config bind) with Serve.jobs = 1 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (* no script/path, an unknown op, and unparseable junk: one error
         response each, and the connection survives all three *)
      send_all fd (request ~id:"e1" ());
      send_all fd (request ~id:"e2" ~op:"frobnicate" ());
      send_all fd "this is not json\n";
      send_all fd (request ~id:"ok" ~op:"health" ());
      let lines = read_lines fd 4 in
      check_i "four responses" 4 (List.length lines);
      check_s "missing source is an error" "error"
        (status_of (response_for lines "e1"));
      check_s "unknown op is an error" "error"
        (status_of (response_for lines "e2"));
      check_s "daemon still serving" "ok"
        (status_of (response_for lines "ok")))

(* ---------- admission control ---------- *)

let test_overload_shed () =
  with_server "shed"
    (fun bind ->
      { (Serve.default_config bind) with Serve.jobs = 1; queue_cap = 2 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let n = 12 in
      let payload = Buffer.create 1024 in
      for i = 1 to n do
        Buffer.add_string payload
          (request ~id:(Printf.sprintf "f%d" i) ~script:bomb_script
             ~timeout_s:0.4 ())
      done;
      send_all fd (Buffer.contents payload);
      let lines = read_lines fd n in
      check_i "every request answered" n (List.length lines);
      let statuses =
        List.init n (fun i ->
            status_of (response_for lines (Printf.sprintf "f%d" (i + 1))))
      in
      List.iter
        (fun s ->
          check_b ("status classified: " ^ s) true
            (List.mem s [ "ok"; "degraded"; "overloaded"; "error" ]))
        statuses;
      let shed = List.length (List.filter (( = ) "overloaded") statuses) in
      check_b "queue bound sheds under flood" true (shed > 0);
      (* shed responses carry the backoff hint *)
      let shed_line =
        List.find (fun l -> status_of l = "overloaded") lines
      in
      check_b "retry_after_ms present" true
        (match Jsonl.int_field shed_line "retry_after_ms" with
        | Some ms -> ms >= 10 && ms <= 10_000
        | None -> false);
      (* the daemon survives the flood *)
      let fd2 = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd2) @@ fun () ->
      send_all fd2 (request ~id:"alive" ~op:"health" ());
      check_s "daemon alive after flood" "ok"
        (status_of (response_for (read_lines fd2 1) "alive")))

(* ---------- per-request deadline isolation ---------- *)

let test_deadline_isolation () =
  with_server "deadline"
    (fun bind -> { (Serve.default_config bind) with Serve.jobs = 2 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"bomb" ~script:bomb_script ~timeout_s:0.3 ());
      send_all fd (request ~id:"clean" ~script:piece_script ());
      let lines = read_lines fd 2 in
      check_i "both answered" 2 (List.length lines);
      let bomb = response_for lines "bomb" in
      (* the bomb's budget fired: either the ladder degraded it (report
         with failures) or the outer guard answered with a structured
         timeout — never silence, never a daemon crash *)
      check_b "bomb contained" true
        (List.mem (status_of bomb) [ "degraded"; "error" ]);
      let clean = response_for lines "clean" in
      check_s "neighbour unaffected" "ok" (status_of clean))

(* ---------- chaos containment at the socket edges ---------- *)

let serve_sites rate =
  [ ("serve.accept", rate); ("serve.read", rate); ("serve.write", rate);
    ("serve.queue", rate) ]

let test_chaos_flood () =
  (* the acceptance drill: all four serve.* probes firing at 10%, load at
     2x the queue bound — zero daemon crashes, every request answered,
     drain still exits 0 (checked by with_server) *)
  with_chaos { Chaos.seed = 7; rate = 0.0; site_rates = serve_sites 0.1 }
  @@ fun () ->
  with_server "chaos"
    (fun bind ->
      { (Serve.default_config bind) with Serve.jobs = 2; queue_cap = 4 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let n = 8 (* 2x queue_cap *) in
      let payload = Buffer.create 1024 in
      for i = 1 to n do
        Buffer.add_string payload
          (request ~id:(Printf.sprintf "c%d" i) ~script:piece_script ())
      done;
      send_all fd (Buffer.contents payload);
      let lines = read_lines fd n in
      check_i "every request answered under injection" n (List.length lines);
      for i = 1 to n do
        let s = status_of (response_for lines (Printf.sprintf "c%d" i)) in
        check_b
          (Printf.sprintf "c%d classified (%s)" i s)
          true
          (List.mem s [ "ok"; "degraded"; "overloaded"; "error" ])
      done)

let test_chaos_queue_fault_is_one_error () =
  (* a queue fault costs exactly the request it hit: rate 1.0 on
     serve.queue turns every deobfuscate request into a structured error,
     while control ops (never queued) still work *)
  with_chaos
    { Chaos.seed = 3; rate = 0.0; site_rates = [ ("serve.queue", 1.0) ] }
  @@ fun () ->
  with_server "qfault"
    (fun bind -> { (Serve.default_config bind) with Serve.jobs = 1 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"q" ~script:piece_script ());
      send_all fd (request ~id:"h" ~op:"health" ());
      let lines = read_lines fd 2 in
      check_s "queue fault is a structured error" "error"
        (status_of (response_for lines "q"));
      check_s "fault kind reported" "queue-fault"
        (Option.value ~default:"?"
           (Jsonl.string_field (response_for lines "q") "kind"));
      check_s "daemon unaffected" "ok"
        (status_of (response_for lines "h")))

(* ---------- graceful drain ---------- *)

let test_drain_finishes_inflight () =
  with_temp_dir "drain" @@ fun dir ->
  let sock = Filename.concat dir "d.sock" in
  let cfg =
    { (Serve.default_config (Serve.Unix_sock sock)) with Serve.jobs = 1 }
  in
  match Serve.start cfg with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (* a slow request keeps the single worker busy, and the trailing
         health op proves admission: request lines on one connection are
         processed in order, so once "hb" is answered, "w" was queued *)
      send_all fd (request ~id:"w" ~script:bomb_script ~timeout_s:0.5 ());
      send_all fd (request ~id:"hb" ~op:"health" ());
      let lines = read_lines fd 1 in
      check_s "work request admitted" "ok"
        (status_of (response_for lines "hb"));
      Serve.stop server;
      let code = Serve.wait server in
      check_i "drain exits 0" 0 code;
      let lines = lines @ read_lines ~deadline_s:5.0 fd 1 in
      (* the bomb was in flight at stop: drain waited out its deadline and
         still answered it (contained as degraded) before exiting *)
      check_s "in-flight request answered during drain" "degraded"
        (status_of (response_for lines "w"))

let test_shutdown_op () =
  with_temp_dir "shut" @@ fun dir ->
  let sock = Filename.concat dir "d.sock" in
  let metrics_out = Filename.concat dir "final-metrics.json" in
  let cfg =
    { (Serve.default_config (Serve.Unix_sock sock)) with
      Serve.jobs = 1;
      metrics_out = Some metrics_out }
  in
  match Serve.start cfg with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"r" ~script:piece_script ());
      send_all fd (request ~id:"bye" ~op:"shutdown" ());
      let lines = read_lines fd 2 in
      check_s "shutdown acknowledged" "ok"
        (status_of (response_for lines "bye"));
      check_s "queued work answered before exit" "ok"
        (status_of (response_for lines "r"));
      check_i "shutdown op drains to exit 0" 0 (Serve.wait server);
      (* telemetry flushed on drain *)
      check_b "metrics snapshot written" true (Sys.file_exists metrics_out);
      let snap =
        In_channel.with_open_bin metrics_out In_channel.input_all
      in
      check_b "snapshot counts the requests" true
        (match Jsonl.int_field snap "serve.requests" with
        | Some n -> n >= 1
        | None -> false)

(* ---------- warm piece cache ---------- *)

let test_warm_cache_identical_output () =
  with_server "warm"
    (fun bind -> { (Serve.default_config bind) with Serve.jobs = 1 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"cold" ~script:piece_script ());
      send_all fd (request ~id:"hot" ~script:piece_script ());
      let lines = read_lines fd 2 in
      let cold = response_for lines "cold"
      and hot = response_for lines "hot" in
      let out l =
        match Jsonl.string_field l "output" with
        | Some o -> o
        | None -> Alcotest.fail "missing output"
      in
      check_s "warm output byte-identical to cold" (out cold) (out hot);
      (* the second request was answered from the worker's warm cache *)
      check_b "second request hit the piece cache" true
        (match Jsonl.int_field hot "cache_hits" with
        | Some n -> n >= 1
        | None -> false);
      (* and both match a direct cold engine run — the daemon path changes
         transport, not results *)
      let direct =
        (Deobf.Engine.run_guarded ~timeout_s:30.0 piece_script)
          .Deobf.Engine.result
          .Deobf.Engine.output
      in
      check_s "daemon output equals direct engine output" direct (out cold))

(* ---------- one snapshot schema ---------- *)

(* the members of the JSON object that starts at [i], as (key, index of
   the value) in document order — enough of a parser for our own output *)
let members json i =
  let n = String.length json in
  let rec string_end j =
    if json.[j] = '\\' then string_end (j + 2)
    else if json.[j] = '"' then j
    else string_end (j + 1)
  in
  let rec value_start j =
    if json.[j] = ' ' || json.[j] = ':' then value_start (j + 1) else j
  in
  let rec go j depth expect_key acc =
    if j >= n || depth = 0 then List.rev acc
    else
      match json.[j] with
      | '"' ->
          let e = string_end (j + 1) in
          if depth = 1 && expect_key then
            go (e + 1) depth false
              ((String.sub json (j + 1) (e - j - 1), value_start (e + 1)) :: acc)
          else go (e + 1) depth false acc
      | '{' | '[' -> go (j + 1) (depth + 1) false acc
      | '}' | ']' -> go (j + 1) (depth - 1) false acc
      | ',' -> go (j + 1) depth true acc
      | _ -> go (j + 1) depth expect_key acc
  in
  go (i + 1) 1 true []

(* the sorted keys of a top-level object member; [] when absent *)
let object_keys json key =
  match List.assoc_opt key (members json 0) with
  | Some i when json.[i] = '{' -> List.sort compare (List.map fst (members json i))
  | _ -> []

let check_hit_rate what json =
  let cache =
    match List.assoc_opt "cache" (members json 0) with
    | Some i -> String.sub json i (String.index_from json i '}' - i + 1)
    | None -> Alcotest.failf "%s: no cache block" what
  in
  let get k =
    match Jsonl.float_field cache k with
    | Some v -> v
    | None -> Alcotest.failf "%s: no cache.%s" what k
  in
  let hits = get "hits" and lookups = get "lookups" in
  check_b (what ^ ": the cache saw hits") true (hits > 0.0 && lookups > hits);
  check_b
    (Printf.sprintf "%s: hit_rate %.3f = hits/lookups %.0f/%.0f" what
       (get "hit_rate") hits lookups)
    true
    (Float.abs (get "hit_rate" -. (hits /. lookups)) < 0.0006)

(* metrics.json, the daemon's metrics op and its --metrics-out file are
   one snapshot rendered by one printer: the same cache/dynamic/selfheal
   key sets, and one hit-rate definition *)
let test_one_snapshot_schema () =
  with_temp_dir "schema" @@ fun dir ->
  let corpus = Filename.concat dir "corpus" and out = Filename.concat dir "out" in
  Sys.mkdir corpus 0o755;
  let scripts =
    List.map
      (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.obfuscated)
      (Corpus.Generator.generate ~seed:7 ~count:6)
  in
  List.iteri
    (fun i src ->
      Out_channel.with_open_bin
        (Filename.concat corpus (Printf.sprintf "s%d.ps1" i))
        (fun oc -> Out_channel.output_string oc src))
    scripts;
  ignore (Deobf.Batch.run_dir ~timeout_s:30.0 ~out_dir:out ~jobs:1 corpus);
  let batch =
    Jsonl.oneline
      (In_channel.with_open_bin (Filename.concat out "metrics.json")
         In_channel.input_all)
  in
  let metrics_out = Filename.concat dir "final-metrics.json" in
  let op = ref "" in
  with_server "schema-d"
    (fun bind ->
      { (Serve.default_config bind) with
        Serve.jobs = 1;
        metrics_out = Some metrics_out })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let work = scripts @ [ piece_script; piece_script ] in
      List.iteri
        (fun i src -> send_all fd (request ~id:(string_of_int i) ~script:src ()))
        work;
      ignore (read_lines fd (List.length work));
      send_all fd (request ~id:"m" ~op:"metrics" ());
      op := response_for (read_lines fd 1) "m");
  let drained =
    Jsonl.oneline (In_channel.with_open_bin metrics_out In_channel.input_all)
  in
  List.iter
    (fun block ->
      let keys = object_keys batch block in
      check_b ("metrics.json has a " ^ block ^ " block") true (keys <> []);
      Alcotest.(check (list string))
        ("metrics op " ^ block ^ " keys") keys (object_keys !op block);
      Alcotest.(check (list string))
        ("--metrics-out " ^ block ^ " keys") keys (object_keys drained block))
    [ "cache"; "dynamic"; "selfheal" ];
  check_hit_rate "metrics.json" batch;
  check_hit_rate "metrics op" !op

let suite =
  [
    Alcotest.test_case "one snapshot schema and hit rate" `Quick
      test_one_snapshot_schema;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "health and metrics ops" `Quick test_health_and_metrics;
    Alcotest.test_case "malformed and unknown requests" `Quick
      test_malformed_and_unknown;
    Alcotest.test_case "overload sheds with retry hint" `Quick
      test_overload_shed;
    Alcotest.test_case "per-request deadline isolation" `Quick
      test_deadline_isolation;
    Alcotest.test_case "chaos flood: every request answered" `Quick
      test_chaos_flood;
    Alcotest.test_case "chaos queue fault costs one request" `Quick
      test_chaos_queue_fault_is_one_error;
    Alcotest.test_case "drain finishes in-flight work" `Quick
      test_drain_finishes_inflight;
    Alcotest.test_case "shutdown op flushes telemetry" `Quick
      test_shutdown_op;
    Alcotest.test_case "warm cache: byte-identical output" `Quick
      test_warm_cache_identical_output;
  ]
