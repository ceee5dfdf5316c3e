(** Key-information extraction (paper §IV-C2, Fig 5).

    Four types of indicators valuable to analysts: [.ps1] script paths,
    [powershell] child invocations, URLs, and IP addresses.  Deobfuscation
    effectiveness is measured by how many of these become visible in a
    tool's output. *)

open Pscommon

type t = {
  ps1_files : string list;
  powershell_commands : string list;
  urls : string list;
  ips : string list;
}

(* compiled eagerly at module init: racing Lazy.force from parallel batch
   domains is unsafe, and the compiled automata are shared read-only *)
let url_re =
  Regexen.Regex.compile {|https?://[a-z0-9\.\-]+(:\d+)?[a-z0-9\./\-_%\?=&\+~]*|}

let ip_re = Regexen.Regex.compile {|\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b|}
let powershell_re = Regexen.Regex.compile {|\bpowershell(\.exe)?\b|}

let matches_of re src =
  List.map (fun m -> Regexen.Regex.matched_text src m) (Regexen.Regex.find_all re src)
  |> List.sort_uniq Strcase.compare

(* [.ps1] paths.  A match of [[path-char]+\.ps1\b] lies inside one maximal
   run of path characters and starts where the run starts (a match starting
   later could be extended back to it), so each run is matched once,
   anchored.  Searching the whole text instead retries at every start
   inside a run, which is quadratic in its length. *)
let path_run_re = Regexen.Regex.compile {|[a-z0-9_\-\\/:\.\$%]+|}
let ps1_re = Regexen.Regex.compile {|^[a-z0-9_\-\\/:\.\$%]+\.ps1\b|}

let ps1_paths src =
  Regexen.Regex.find_all path_run_re src
  |> List.concat_map (fun m -> matches_of ps1_re (Regexen.Regex.matched_text src m))
  |> List.sort_uniq Strcase.compare

let valid_ip s =
  String.split_on_char '.' s
  |> List.for_all (fun octet ->
         match int_of_string_opt octet with
         | Some n -> n >= 0 && n <= 255
         | None -> false)

let extract src =
  let urls = matches_of url_re src in
  let ips = List.filter valid_ip (matches_of ip_re src) in
  (* IPs inside extracted URLs still count as one indicator each, as the
     paper counts them separately *)
  let ps1_files = ps1_paths src in
  let powershell_commands = matches_of powershell_re src in
  { ps1_files; powershell_commands; urls; ips }

let count t =
  List.length t.ps1_files + List.length t.powershell_commands + List.length t.urls
  + List.length t.ips

let empty = { ps1_files = []; powershell_commands = []; urls = []; ips = [] }

(** Indicators of [sub] that are present in [super] (used to compare a
    tool's output against the manual ground truth). *)
let intersection ~ground_truth t =
  let inter a b = List.filter (fun x -> List.exists (Strcase.equal x) b) a in
  {
    ps1_files = inter ground_truth.ps1_files t.ps1_files;
    powershell_commands = inter ground_truth.powershell_commands t.powershell_commands;
    urls = inter ground_truth.urls t.urls;
    ips = inter ground_truth.ips t.ips;
  }

let pp fmt t =
  Format.fprintf fmt "ps1:%d powershell:%d urls:%d ips:%d"
    (List.length t.ps1_files)
    (List.length t.powershell_commands)
    (List.length t.urls) (List.length t.ips)
