(** PowerDrive re-implementation (Ugarte et al., DIMVA 2019).

    Mechanism: regex cleaning rules — backtick removal, merging of
    concatenated string literals, multi-line collapse — plus a single round
    of IEX overriding.

    Documented failure modes reproduced here: the multi-line → one-line
    transform joins statements without separators and regularly breaks
    syntax (paper Fig 8(b)); the concatenation regex merges quoted fragments
    without regard for context; only one override layer is peeled. *)

(* regexes are compiled eagerly at module init so that parallel domains
   share them read-only instead of racing to force a lazy *)
let tick_re = Regexen.Regex.compile "`"

(* 'abc' + 'def'  →  'abcdef'  (repeatedly) *)
let concat_re = Regexen.Regex.compile {|'([^']*)'\s*\+\s*'([^']*)'|}

let merge_concats script =
  let rec fix s iters =
    if iters = 0 then s
    else
      let s' = Regexen.Regex.replace concat_re ~template:"'$1$2'" s in
      if String.equal s' s then s else fix s' (iters - 1)
  in
  fix script 64

let collapse_lines script =
  (* PowerDrive's one-line normalisation: newlines become spaces, with no
     statement separator inserted *)
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) script

let apply_rules script =
  script
  |> Regexen.Regex.replace tick_re ~template:""
  |> merge_concats
  |> collapse_lines

let deobfuscate script =
  let cleaned = apply_rules script in
  (* single-layer overriding *)
  let outcome = Override.run_with_override cleaned in
  let result =
    match outcome.Override.captured with
    | [] -> cleaned
    | payloads -> merge_concats (String.concat " " payloads)
  in
  { Tool.result; simulated_seconds = Tool.simulated_cost outcome.Override.events }

let tool = { Tool.name = "PowerDrive"; deobfuscate }
