(** The run-level rollup — the figures the paper's Table III recovery
    counts and Table IV behavioural consistency are read off — as one
    typed value with exactly two printers: {!to_json} (the batch
    [metrics.json], the daemon's [metrics] op and its [--metrics-out]
    file) and {!to_text} (the CLI's [--summary] digest).  The Prometheus
    scrape renders the same {!Pscommon.Telemetry.Metrics.snapshot}
    through its own printer.

    The cache hit rate has one meaning everywhere: piece-cache hits over
    piece-cache lookups ({!hit_rate}).  [pieces_attempted] and
    [cache_hits] ride along in the JSON [cache] block as the per-piece
    view, which counts blocked and uncacheable pieces too. *)

module T = Pscommon.Telemetry
module Memwatch = Pscommon.Memwatch

(** [level] is a {!Pscommon.Memwatch.level_name}; a [None] watermark is
    off. *)
type memory = {
  level : string;
  heap_bytes : int;
  soft_bytes : int option;
  hard_bytes : int option;
}

(** Worker churn ({!Pscommon.Pool.Service} counters), the rule
    quarantine's non-closed breakers as [(rule, state)], and the memory
    governor. *)
type selfheal = {
  recycled : int;
  recycled_mem : int;
  wedged : int;
  respawns : int;
  respawn_failures : int;
  quarantine_enabled : bool;
  quarantine : (string * string) list;
  memory : memory;
}

(** What only a batch has.  [failure_sites] is keyed ["phase/kind"] and
    [phase_ms_total] by phase, both sorted; [degraded_modes] has one entry
    per ladder rung, strongest first; [verdicts] counts verify verdicts
    plus ["off"]. *)
type run = {
  total : int;
  clean : int;
  degraded : int;
  wall_ms : float;
  failure_sites : (string * int) list;
  jobs_requested : int;
  jobs_effective : int;
  phase_ms_total : (string * float) list;
  degraded_modes : (string * int) list;
  retries_total : int;
  verdicts : (string * int) list;
  resumed : int;
  regions_total : int;
  regions_recovered : int;
}

type t = {
  run : run option;  (** [Some] only for a batch *)
  pieces : Recover.stats;  (** recovery counters over everything covered *)
  cache : Recover.Cache.stats;
  dynamic_rolled_back : int;  (** dynamic edits the verify gate undid *)
  selfheal : selfheal;
  metrics : T.Metrics.snapshot;
}

(* ---------- builders ---------- *)

let counter name = T.Metrics.counter_value (T.Metrics.counter name)

(** Join the caller's run, pieces and cache figures with the process
    state read now: the self-healing plane, the rolled-back dynamic edits
    and the metrics registry. *)
let make ?run ~pieces cache =
  let worker name = counter ("pool.service." ^ name) in
  let memory =
    { level = Memwatch.level_name (Memwatch.level ());
      heap_bytes = Memwatch.heap_bytes ();
      soft_bytes = Memwatch.soft_watermark_bytes ();
      hard_bytes = Memwatch.hard_watermark_bytes () }
  in
  let selfheal =
    { recycled = worker "recycled"; recycled_mem = worker "recycled_mem";
      wedged = worker "wedged"; respawns = worker "respawns";
      respawn_failures = worker "respawn_failures";
      quarantine_enabled = Quarantine.enabled ();
      quarantine = Quarantine.snapshot (); memory }
  in
  { run; pieces; cache;
    dynamic_rolled_back = counter "verify.dynamic_rolled_back";
    selfheal; metrics = T.Metrics.snapshot () }

(** A single file: its recovery stats and the cache its run used. *)
let of_guarded ~cache (g : Engine.guarded) =
  make ~pieces:g.Engine.result.Engine.stats (Recover.Cache.stats cache)

(** The serve daemon: it keeps no per-request outcomes, so its recovery
    counters are the metrics registry's, which every worker domain feeds
    (every request since the daemon started). *)
let of_cache cache =
  let c name = counter ("recover." ^ name) in
  let pieces =
    { (Recover.new_stats ()) with
      Recover.pieces_recovered = c "pieces_recovered";
      variables_substituted = c "variables_substituted";
      layers_unwrapped = c "layers_unwrapped";
      pieces_attempted = c "pieces_attempted";
      pieces_blocked = c "pieces_blocked"; cache_hits = c "cache_hits";
      dynamic_attempted = c "dynamic.attempted";
      dynamic_recovered = c "dynamic.recovered";
      dynamic_unverifiable = c "dynamic.unverifiable" }
  in
  make ~pieces (Recover.Cache.stats cache)

(** Cache hits / cache lookups; 0 when nothing was looked up. *)
let hit_rate t =
  let c = t.cache in
  if c.Recover.Cache.lookups = 0 then 0.0
  else
    float_of_int c.Recover.Cache.hits /. float_of_int c.Recover.Cache.lookups

(* ---------- JSON ---------- *)

(** Multi-line JSON object: the [run] fields (when present), then
    [cache], [dynamic], [selfheal] and [metrics].  [head] prepends
    already-rendered [(key, json)] fields — the daemon's
    [id]/[status]/[op] envelope. *)
let to_json ?(head = []) t =
  let obj fields =
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> T.json_string k ^ ": " ^ v) fields)
    ^ "}"
  in
  let i = string_of_int in
  let ints l = obj (List.map (fun (k, n) -> (k, i n)) l) in
  let opt_int = function None -> "null" | Some n -> i n in
  let p = t.pieces and c = t.cache and s = t.selfheal in
  let ms v = Printf.sprintf "%.1f" v in
  let run r =
    [ ("total", i r.total); ("clean", i r.clean); ("degraded", i r.degraded);
      ("wall_ms", ms r.wall_ms);
      ("failure_sites", ints r.failure_sites);
      ( "jobs",
        ints [ ("requested", r.jobs_requested); ("effective", r.jobs_effective) ] );
      ( "phase_ms_total",
        obj (List.map (fun (ph, v) -> (ph, ms v)) r.phase_ms_total) );
      ("degraded_modes", ints r.degraded_modes);
      ("retries_total", i r.retries_total);
      ("verify", ints r.verdicts);
      ("resumed", i r.resumed);
      ( "regions",
        ints [ ("total", r.regions_total); ("recovered", r.regions_recovered) ] ) ]
  in
  let cache =
    [ ("pieces_attempted", i p.Recover.pieces_attempted);
      ("cache_hits", i p.Recover.cache_hits);
      ("hit_rate", Printf.sprintf "%.3f" (hit_rate t));
      ("entries", i c.Recover.Cache.entries);
      ("lookups", i c.Recover.Cache.lookups);
      ("hits", i c.Recover.Cache.hits);
      ("evictions", i c.Recover.Cache.evictions);
      ("persistent_loads", i c.Recover.Cache.persistent_loads) ]
  and dynamic =
    [ ("attempted", p.Recover.dynamic_attempted);
      ("recovered", p.Recover.dynamic_recovered);
      ("rolled_back", t.dynamic_rolled_back);
      ("unverifiable", p.Recover.dynamic_unverifiable) ]
  and quarantine =
    [ ("enabled", string_of_bool s.quarantine_enabled);
      ( "rules",
        obj (List.map (fun (r, st) -> (r, T.json_string st)) s.quarantine) ) ]
  and memory =
    [ ("level", T.json_string s.memory.level);
      ("heap_bytes", i s.memory.heap_bytes);
      ("soft_bytes", opt_int s.memory.soft_bytes);
      ("hard_bytes", opt_int s.memory.hard_bytes) ]
  in
  let selfheal =
    [ ("recycled", i s.recycled); ("recycled_mem", i s.recycled_mem);
      ("wedged", i s.wedged); ("respawns", i s.respawns);
      ("respawn_failures", i s.respawn_failures);
      ("quarantine", obj quarantine); ("memory", obj memory) ]
  in
  let fields =
    head
    @ Option.fold ~none:[] ~some:run t.run
    @ [ ("cache", obj cache); ("dynamic", ints dynamic);
        ("selfheal", obj selfheal);
        ("metrics", T.Metrics.snapshot_to_json t.metrics) ]
  in
  Printf.sprintf "{\n%s\n}"
    (String.concat ",\n"
       (List.map (fun (k, v) -> "  " ^ T.json_string k ^ ": " ^ v) fields))

(* ---------- text ---------- *)

(** The [--summary] digest, newline-terminated. *)
let to_text t =
  let p = t.pieces and s = t.selfheal in
  let mib b = float_of_int b /. 1048576.0 in
  let run f = Option.fold ~none:[] ~some:(fun r -> [ f r ]) t.run in
  String.concat "\n"
    ([ (if t.run = None then "== summary ==" else "== batch summary ==") ]
    @ run (fun r ->
          Printf.sprintf "files: %d (%d clean, %d degraded) in %.1f ms"
            r.total r.clean r.degraded r.wall_ms)
    @ [ Printf.sprintf
          "pieces: %d recovered, %d blocked, %d attempted (cache hit-rate \
           %.1f%%)"
          p.Recover.pieces_recovered p.Recover.pieces_blocked
          p.Recover.pieces_attempted (100.0 *. hit_rate t);
        Printf.sprintf "layers unwrapped: %d, variables substituted: %d"
          p.Recover.layers_unwrapped p.Recover.variables_substituted;
        Printf.sprintf
          "dynamic: %d recovered of %d attempted, %d rolled back, %d \
           unverifiable"
          p.Recover.dynamic_recovered p.Recover.dynamic_attempted
          t.dynamic_rolled_back p.Recover.dynamic_unverifiable ]
    @ run (fun r ->
          "phase ms: "
          ^ String.concat ", "
              (List.map
                 (fun (ph, ms) -> Printf.sprintf "%s %.1f" ph ms)
                 r.phase_ms_total))
    @ [ Printf.sprintf
          "workers: %d recycled (%d under memory pressure), %d wedged, %d \
           respawns (%d failed)"
          s.recycled s.recycled_mem s.wedged s.respawns s.respawn_failures;
        (match s.quarantine with
        | [] ->
            Printf.sprintf "quarantine: %s, no open rules"
              (if s.quarantine_enabled then "on" else "off")
        | rules ->
            "quarantine: "
            ^ String.concat ", "
                (List.map (fun (rule, st) -> rule ^ "=" ^ st) rules));
        Printf.sprintf "memory: %s (heap %.1f MiB%s)" s.memory.level
          (mib s.memory.heap_bytes)
          (match s.memory.soft_bytes with
          | None -> ", watermarks off"
          | Some b -> Printf.sprintf ", soft %.0f MiB" (mib b)) ])
  ^ "\n"
