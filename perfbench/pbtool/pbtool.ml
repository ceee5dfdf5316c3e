(* Helper executable for perfbench/run.py (see perfbench/NOTES.md).

     pbtool gen --kind wild|hard|dynamic --seed S --count N --dir D
       D/orig/sample_NNNN.ps1   obfuscated script (the benchmark input)
       D/clean/sample_NNNN.ps1  the generator's clean template

     pbtool quality --dir D --out O [--every N] [--shard I/K]
       scores the outputs O/<name> of every N-th script (of those, every
       K-th from the I-th, with a shard) against D/clean and D/orig; one
       JSON object on stdout

     pbtool layers --dir D --seconds T --prefix M --spans FILE --scratch W
       the traced run: calls each layer's public function in-process on the
       scripts of D/orig for at least T seconds and at least the first M
       scripts, records a span around every call, writes the spans to FILE
       and prints the per-layer table as one JSON object.  Counts cover
       exactly the first M scripts, so they repeat from run to run; times
       cover every traced script.

   Nothing here runs inside a timed end-to-end section: quality scoring
   (Keyinfo, Score, the sandbox oracle) is kept out of every timing. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("pbtool: " ^ s);
      exit 2)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let list_scripts dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ps1")
  |> List.sort String.compare

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let json_str s = Deobf.Report.json_string s

(* ---------------------------------------------------------------- gen *)

let gen ~kind ~seed ~count ~dir =
  let samples =
    match kind with
    | "wild" -> Corpus.Generator.generate ~seed ~count
    | "hard" -> Corpus.Generator.generate_hard ~seed ~count
    | "dynamic" -> Corpus.Generator.generate_dynamic ~seed ~count
    | k -> die "unknown corpus kind %S" k
  in
  List.iter mkdir [ dir; Filename.concat dir "orig"; Filename.concat dir "clean" ];
  List.iteri
    (fun i (s : Corpus.Generator.sample) ->
      let name = Printf.sprintf "sample_%04d.ps1" i in
      write_file (Filename.concat (Filename.concat dir "orig") name) s.obfuscated;
      write_file (Filename.concat (Filename.concat dir "clean") name) s.clean)
    samples

(* ------------------------------------------------------------ quality *)

(* The oracle compares effect logs without [var:] lines: the obfuscator adds
   variables the template lacks, and dynamic recovery emits loop counters,
   neither of which is behaviour. *)
let behaviour log =
  List.filter (fun l -> not (String.starts_with ~prefix:"var:" l)) log

(* [Keyinfo.extract] is quadratic in the length of a run of path characters:
   its .ps1 pattern rescans the run from every start.  An output that keeps
   an undecoded payload can hold a run of 300 000 of them, more than an
   hour of extraction.  No indicator is that long, so runs longer than
   [max_run] are blanked before extraction, and the outputs this touched
   are counted. *)
let max_run = 2048

let path_char c =
  match Char.lowercase_ascii c with
  | 'a' .. 'z' | '0' .. '9' | '_' | '-' | '\\' | '/' | ':' | '.' | '$' | '%' -> true
  | _ -> false

let blank_long_runs s =
  let b = Bytes.of_string s and n = String.length s in
  let blanked = ref false and i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j < n && path_char s.[!j] do incr j done;
    if !j - !i > max_run then begin
      Bytes.fill b !i (!j - !i) ' ';
      blanked := true
    end;
    i := max (!j) (!i + 1)
  done;
  (Bytes.to_string b, !blanked)

let quality ~dir ~out ~every ~shard ~shards =
  let names =
    list_scripts (Filename.concat dir "orig")
    |> List.filteri (fun i _ -> i mod every = 0)
    |> List.filteri (fun i _ -> i mod shards = shard)
  in
  let n = ref 0 and missing = ref 0 in
  let oracle_match = ref 0 and template_errors = ref 0 in
  let equivalent = ref 0 in
  let ki_found = ref 0 and ki_total = ref 0 in
  let residual = ref 0 in
  let keyinfo_blanked = ref 0 in
  let oracle_misses = ref [] in
  List.iter
    (fun name ->
      let out_path = Filename.concat out name in
      if not (Sys.file_exists out_path) then incr missing
      else begin
        incr n;
        let output = read_file out_path in
        let clean = read_file (Filename.concat (Filename.concat dir "clean") name) in
        let orig = read_file (Filename.concat (Filename.concat dir "orig") name) in
        let out_log = Sandbox.run_for_verify output in
        (match (out_log, Sandbox.run_for_verify clean) with
        | Ok a, Ok b when behaviour a = behaviour b -> incr oracle_match
        | _, Error _ ->
            incr template_errors;
            oracle_misses := name :: !oracle_misses
        | _ -> oracle_misses := name :: !oracle_misses);
        (match (out_log, Sandbox.run_for_verify orig) with
        | Ok a, Ok b when a = b -> incr equivalent
        | _ -> ());
        let truth = Keyinfo.extract clean in
        let searched, blanked = blank_long_runs output in
        if blanked then incr keyinfo_blanked;
        let got = Keyinfo.intersection ~ground_truth:truth (Keyinfo.extract searched) in
        ki_found := !ki_found + Keyinfo.count got;
        ki_total := !ki_total + Keyinfo.count truth;
        residual := !residual + Deobf.Score.score output
      end)
    names;
  Printf.printf
    "{\"scripts\": %d, \"missing\": %d, \"oracle_match\": %d, \
     \"template_errors\": %d, \"effects_equal_input\": %d, \
     \"keyinfo_found\": %d, \"keyinfo_total\": %d, \"keyinfo_blanked\": %d, \
     \"residual_sum\": %d, \"oracle_misses\": [%s]}\n"
    !n !missing !oracle_match !template_errors !equivalent !ki_found !ki_total
    !keyinfo_blanked !residual
    (String.concat ", " (List.rev_map json_str !oracle_misses))

(* ------------------------------------------------------------- layers *)

type span = {
  id : int;
  name : string;
  parent : int;
  script : string;
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0

(* Off while an untraced twin of a script runs: no spans, no counts. *)
let tracing = ref true

let with_span ~parent ~script name f =
  if not !tracing then f (-1)
  else begin
    let id = !next_id in
    incr next_id;
    let t0 = Unix.gettimeofday () in
    let r = f id in
    let t1 = Unix.gettimeofday () in
    spans := { id; name; parent; script; t0; t1 } :: !spans;
    r
  end

(* Sums over traced scripts: [counts] over the first-pass prefix only,
   [times] over all of them. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32
let times : (string, float) Hashtbl.t = Hashtbl.create 16
let in_prefix = ref true

let add tbl name v =
  Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0)

let count name v = if !tracing && !in_prefix then add counts name v

(* digest of the prefix's verified outputs, in script order *)
let outputs = Buffer.create 4096

let engine_phases = [ "parse"; "recovery"; "dynamic"; "rename"; "reformat"; "check" ]

(* Words allocated so far: minor plus major minus promoted, so that blocks
   too large for the minor heap (big scripts, payload buffers) count too. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Batch's own per-file budget, so every layer sees the CLI's settings. *)
let timeout_s = 30.0

(* The process-wide reference-log memo would answer the second and later
   verify calls on a script from memory; a real batch never repeats a
   script, so the traced run switches it off. *)
let verify_opts = { Deobf.Verify.default_opts with use_ref_cache = false }

let layer_pass ~scratch ~path ~script src =
  with_span ~parent:(-1) ~script "script" @@ fun root ->
  let sp name f = with_span ~parent:root ~script name (fun _ -> f ()) in
  (match sp "pslex.tokenize" (fun () -> Pslex.Lexer.tokenize src) with
  | Ok toks -> count "pslex.tokens" (float_of_int (List.length toks))
  | Error _ -> ());
  ignore (sp "psparse.parse" (fun () -> Psparse.Parser.parse src));
  let tp = sp "token_phase.run" (fun () -> Deobf.Token_phase.run src) in
  ignore (sp "rename.rename" (fun () -> Deobf.Rename.rename tp));
  ignore (sp "rename.reformat" (fun () -> Deobf.Rename.reformat tp));
  let a0 = allocated () in
  let g =
    sp "engine.run_guarded" (fun () -> Deobf.Engine.run_guarded ~timeout_s src)
  in
  count "engine.alloc_kw" ((allocated () -. a0) /. 1000.0);
  let r = g.Deobf.Engine.result in
  let st = r.Deobf.Engine.stats in
  count "engine.iterations" (float_of_int r.Deobf.Engine.iterations);
  if !tracing then
    List.iter (fun (k, ms) -> add times ("engine.timing." ^ k) ms) g.Deobf.Engine.timings;
  List.iter
    (fun (k, v) -> count k (float_of_int v))
    [ ("recover.pieces_attempted", st.Deobf.Recover.pieces_attempted);
      ("recover.pieces_recovered", st.pieces_recovered);
      ("recover.pieces_blocked", st.pieces_blocked);
      ("recover.layers_unwrapped", st.layers_unwrapped);
      ("recover.edits", st.edits_recorded);
      ("recover.dynamic_attempted", st.dynamic_attempted);
      ("recover.dynamic_recovered", st.dynamic_recovered) ];
  let a1 = allocated () in
  let g', o =
    sp "verify.gate" (fun () ->
        Deobf.Verify.gate ~opts:verify_opts
          ~rerun:(fun ~suppress -> Deobf.Engine.run_guarded ~timeout_s ~suppress src)
          ~src g)
  in
  count "verify.alloc_kw" ((allocated () -. a1) /. 1000.0);
  if !tracing && !in_prefix then begin
    Buffer.add_string outputs script;
    Buffer.add_char outputs '\000';
    Buffer.add_string outputs g'.Deobf.Engine.result.Deobf.Engine.output;
    Buffer.add_char outputs '\000'
  end;
  count "verify.sandbox_runs" (float_of_int o.Deobf.Verify.sandbox_runs);
  count "verify.rollbacks"
    (match o.Deobf.Verify.verdict with
    | Deobf.Verify.Rolled_back k -> float_of_int k
    | _ -> 0.0);
  ignore
    (sp "sandbox.run_for_verify" (fun () -> Sandbox.run_for_verify r.Deobf.Engine.output));
  ignore
    (sp "batch.run_source" (fun () ->
         Deobf.Batch.run_source ~timeout_s ~verify:true ~verify_opts ~name:script src));
  ignore
    (sp "batch.process_file" (fun () ->
         Deobf.Batch.process_file ~timeout_s ~out_dir:scratch ~verify:true
           ~verify_opts path))

let span_stats name =
  List.fold_left
    (fun (sum, n) s -> if s.name = name then (sum +. (s.t1 -. s.t0), n + 1) else (sum, n))
    (0.0, 0) !spans

let layers ~dir ~seconds ~prefix ~spans_file ~scratch =
  mkdir scratch;
  let orig = Filename.concat dir "orig" in
  let names = Array.of_list (list_scripts orig) in
  if Array.length names = 0 then die "no scripts in %s" orig;
  let prefix = max 1 (min prefix (Array.length names)) in
  let start = Unix.gettimeofday () in
  let twin_traced = ref 0.0 and twin_untraced = ref 0.0 in
  let scripts = ref 0 in
  let i = ref 0 in
  while !scripts < prefix || Unix.gettimeofday () -. start < seconds do
    in_prefix := !i < prefix;
    let name = names.(!i mod Array.length names) in
    let path = Filename.concat orig name in
    let src = read_file path in
    let run traced =
      tracing := traced;
      let t0 = Unix.gettimeofday () in
      layer_pass ~scratch ~path ~script:name src;
      tracing := true;
      Unix.gettimeofday () -. t0
    in
    (* every fourth script also runs untraced, alternating which goes
       first, to price the span recording itself *)
    if !i mod 4 = 0 then begin
      let untraced_first = !i mod 8 = 0 in
      let u1 = if untraced_first then run false else 0.0 in
      let t = run true in
      let u2 = if untraced_first then 0.0 else run false in
      twin_traced := !twin_traced +. t;
      twin_untraced := !twin_untraced +. u1 +. u2
    end
    else ignore (run true);
    incr scripts;
    incr i
  done;
  let n = float_of_int !scripts in
  let np = float_of_int prefix in
  let rows = ref [] in
  let row name unit value cnt = rows := (name, unit, value, cnt) :: !rows in
  let mean_ms span =
    let sum, c = span_stats span in
    (sum *. 1000.0 /. float_of_int (max 1 c), c)
  in
  let sum tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:0.0 in
  let per_script key = sum counts key /. np in
  let run_ms, run_n = mean_ms "engine.run_guarded" in
  row "engine.run_ms" "ms" run_ms run_n;
  row "engine.iterations" "count/script" (per_script "engine.iterations") prefix;
  List.iter
    (fun p ->
      row (Printf.sprintf "engine.phase.%s_ms" p) "ms"
        (sum times ("engine.timing." ^ p) /. n) !scripts)
    engine_phases;
  let timed = Hashtbl.fold (fun _ v acc -> acc +. v) times 0.0 in
  row "engine.unattributed_ms" "ms" (run_ms -. (timed /. n)) !scripts;
  List.iter
    (fun k -> row k "count/script" (per_script k) prefix)
    [ "recover.pieces_attempted"; "recover.pieces_recovered";
      "recover.pieces_blocked"; "recover.layers_unwrapped"; "recover.edits";
      "recover.dynamic_attempted"; "recover.dynamic_recovered";
      "pslex.tokens"; "verify.sandbox_runs"; "verify.rollbacks" ];
  row "engine.alloc_kw" "kw/script" (per_script "engine.alloc_kw") prefix;
  row "verify.alloc_kw" "kw/script" (per_script "verify.alloc_kw") prefix;
  List.iter
    (fun (metric, span) ->
      let v, c = mean_ms span in
      row metric "ms" v c)
    [ ("pslex.tokenize_ms", "pslex.tokenize"); ("psparse.parse_ms", "psparse.parse");
      ("token_phase.run_ms", "token_phase.run"); ("verify.gate_ms", "verify.gate");
      ("sandbox.run_ms", "sandbox.run_for_verify");
      ("rename.rename_ms", "rename.rename"); ("rename.reformat_ms", "rename.reformat");
      ("batch.run_source_ms", "batch.run_source") ];
  let src_ms, src_n = mean_ms "batch.run_source" in
  let file_ms, _ = mean_ms "batch.process_file" in
  row "batch.io_ms" "ms" (file_ms -. src_ms) src_n;
  row "bench.trace_overhead_pct" "%"
    (100.0 *. (!twin_traced -. !twin_untraced) /. Float.max 1e-9 !twin_untraced)
    ((!scripts + 3) / 4);
  (* spans, oldest first, times in ms from the start of the run *)
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "[";
  List.iteri
    (fun k s ->
      if k > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "{\"id\": %d, \"name\": %s, \"parent\": %d, \"script\": %s, \
         \"start_ms\": %.3f, \"end_ms\": %.3f}"
        s.id (json_str s.name) s.parent (json_str s.script)
        ((s.t0 -. start) *. 1000.0) ((s.t1 -. start) *. 1000.0))
    (List.rev !spans);
  Buffer.add_string buf "]\n";
  write_file spans_file (Buffer.contents buf);
  Printf.printf "{\"scripts\": %d, \"prefix\": %d, \"digest\": %s, \"metrics\": {%s}}\n"
    !scripts prefix
    (json_str (Digest.to_hex (Digest.string (Buffer.contents outputs))))
    (String.concat ", "
       (List.rev_map
          (fun (name, unit, v, c) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s, \"count\": %d}"
              (json_str name) (json_num v) (json_str unit) c)
          !rows))

(* --------------------------------------------------------------- main *)

let () =
  let args = Array.to_list Sys.argv in
  let opt key =
    let rec go = function
      | k :: v :: _ when k = key -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let req key = match opt key with Some v -> v | None -> die "missing %s" key in
  let int key = match int_of_string_opt (req key) with Some n -> n | None -> die "%s: not an integer" key in
  match args with
  | _ :: "gen" :: _ ->
      gen ~kind:(req "--kind") ~seed:(int "--seed") ~count:(int "--count")
        ~dir:(req "--dir")
  | _ :: "quality" :: _ ->
      let shard, shards =
        match opt "--shard" with
        | None -> (0, 1)
        | Some s -> (
            match String.split_on_char '/' s |> List.map int_of_string_opt with
            | [ Some i; Some k ] when k > 0 && i >= 0 && i < k -> (i, k)
            | _ -> die "--shard: expected I/K")
      in
      let every = match opt "--every" with None -> 1 | Some _ -> max 1 (int "--every") in
      quality ~dir:(req "--dir") ~out:(req "--out") ~every ~shard ~shards
  | _ :: "layers" :: _ ->
      layers ~dir:(req "--dir")
        ~seconds:(Option.value (float_of_string_opt (req "--seconds")) ~default:1.0)
        ~prefix:(int "--prefix") ~spans_file:(req "--spans")
        ~scratch:(req "--scratch")
  | _ -> die "usage: pbtool (gen|quality|layers) ..."
