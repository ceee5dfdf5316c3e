(** Structured analysis reports.

    One call bundles what an analyst pipeline consumes: the deobfuscated
    script, recovery statistics, obfuscation scores before/after with the
    detected techniques, and the key indicators of the result.  [to_json]
    renders it without external dependencies. *)

type t = {
  output : string;
  changed : bool;
  score_before : int;
  score_after : int;
  techniques_before : string list;
  techniques_after : string list;
  pieces_recovered : int;
  variables_substituted : int;
  layers_unwrapped : int;
  pieces_attempted : int;
  pieces_blocked : int;
  cache_hits : int;
  iterations : int;
  wall_ms : float;
  phase_ms : (string * float) list;
  metrics : Pscommon.Telemetry.Metrics.snapshot;
  regions_total : int;
  regions_recovered : int;
  urls : string list;
  ips : string list;
  ps1_files : string list;
  powershell_commands : string list;
  verify : Verify.outcome option;
      (** semantic-equivalence verdict, when the gate ran *)
}

let analyze ?options ?(verify = false) src =
  let started = Pscommon.Guard.now () in
  (* guarded pipeline with no deadline: same phases and timings as batch,
     but a single file is allowed to run to completion *)
  let run ~suppress =
    Engine.run_guarded ?options ~timeout_s:infinity ~max_output_bytes:max_int
      ~suppress src
  in
  let guarded = run ~suppress:[] in
  let guarded, verify_outcome =
    if verify then
      let g, o = Verify.gate ~rerun:run ~src guarded in
      (g, Some o)
    else (guarded, None)
  in
  let result = guarded.Engine.result in
  let before = Score.detect src in
  let after = Score.detect result.Engine.output in
  let info = Keyinfo.extract result.Engine.output in
  {
    output = result.Engine.output;
    changed = result.Engine.changed;
    score_before = Score.score_of_detection before;
    score_after = Score.score_of_detection after;
    techniques_before = Score.technique_names before;
    techniques_after = Score.technique_names after;
    pieces_recovered = result.Engine.stats.Recover.pieces_recovered;
    variables_substituted = result.Engine.stats.Recover.variables_substituted;
    layers_unwrapped = result.Engine.stats.Recover.layers_unwrapped;
    pieces_attempted = result.Engine.stats.Recover.pieces_attempted;
    pieces_blocked = result.Engine.stats.Recover.pieces_blocked;
    cache_hits = result.Engine.stats.Recover.cache_hits;
    iterations = result.Engine.iterations;
    wall_ms = (Pscommon.Guard.now () -. started) *. 1000.0;
    phase_ms = guarded.Engine.timings;
    metrics = Pscommon.Telemetry.Metrics.snapshot ();
    regions_total = guarded.Engine.regions_total;
    regions_recovered = guarded.Engine.regions_recovered;
    urls = info.Keyinfo.urls;
    ips = info.Keyinfo.ips;
    ps1_files = info.Keyinfo.ps1_files;
    powershell_commands = info.Keyinfo.powershell_commands;
    verify = verify_outcome;
  }

let json_escape = Pscommon.Telemetry.json_escape
let json_string = Pscommon.Telemetry.json_string

let json_list items = "[" ^ String.concat ", " (List.map json_string items) ^ "]"

let to_json t =
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"changed\": %b," t.changed;
      Printf.sprintf "  \"score_before\": %d," t.score_before;
      Printf.sprintf "  \"score_after\": %d," t.score_after;
      Printf.sprintf "  \"techniques_before\": %s," (json_list t.techniques_before);
      Printf.sprintf "  \"techniques_after\": %s," (json_list t.techniques_after);
      Printf.sprintf "  \"pieces_recovered\": %d," t.pieces_recovered;
      Printf.sprintf "  \"variables_substituted\": %d," t.variables_substituted;
      Printf.sprintf "  \"layers_unwrapped\": %d," t.layers_unwrapped;
      Printf.sprintf "  \"pieces_attempted\": %d," t.pieces_attempted;
      Printf.sprintf "  \"pieces_blocked\": %d," t.pieces_blocked;
      Printf.sprintf "  \"cache_hits\": %d," t.cache_hits;
      Printf.sprintf "  \"iterations\": %d," t.iterations;
      Printf.sprintf "  \"wall_ms\": %.1f," t.wall_ms;
      Printf.sprintf "  \"phase_ms\": {%s},"
        (String.concat ", "
           (List.map
              (fun (p, ms) -> Printf.sprintf "%s: %.1f" (json_string p) ms)
              t.phase_ms));
      Printf.sprintf "  \"metrics\": %s,"
        (Pscommon.Telemetry.Metrics.snapshot_to_json t.metrics);
      Printf.sprintf "  \"regions_total\": %d," t.regions_total;
      Printf.sprintf "  \"regions_recovered\": %d," t.regions_recovered;
      Printf.sprintf "  \"urls\": %s," (json_list t.urls);
      Printf.sprintf "  \"ips\": %s," (json_list t.ips);
      Printf.sprintf "  \"ps1_files\": %s," (json_list t.ps1_files);
      Printf.sprintf "  \"powershell_commands\": %s," (json_list t.powershell_commands);
      Printf.sprintf "  \"verify\": %s,"
        (match t.verify with
        | None -> "null"
        | Some v ->
            Printf.sprintf
              "{\"verdict\": %s, \"detail\": %s, \"rolled_back\": %d, \
               \"sandbox_runs\": %d, \"verify_ms\": %.1f}"
              (json_string (Verify.verdict_name v.Verify.verdict))
              (match Verify.verdict_detail v.Verify.verdict with
              | None -> "null"
              | Some d -> json_string d)
              (List.length v.Verify.suppressed)
              v.Verify.sandbox_runs v.Verify.verify_ms);
      Printf.sprintf "  \"output\": %s" (json_string t.output);
      "}";
    ]
