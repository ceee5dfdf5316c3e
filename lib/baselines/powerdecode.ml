(** PowerDecode re-implementation (Malandrone et al., ITASEC 2021).

    Mechanism: regex recovery rules for string concatenation and
    [.Replace(...)] chains, plus overriding functions driven by a
    "Unary Syntax Tree Model" loop that keeps peeling layers while the
    script shape is [<decoder>(<payload>)] — which makes it the strongest
    of the three regex tools on multi-layer samples (paper Table III) while
    still missing obfuscated IEX spellings.

    Ticks are {e not} removed (Table II: ticking ✗). *)

open Pscommon

(* regexes are compiled eagerly at module init so that parallel domains
   share them read-only instead of racing to force a lazy *)
let concat_re = Regexen.Regex.compile {|'([^']*)'\s*\+\s*'([^']*)'|}

let merge_concats script =
  let rec fix s iters =
    if iters = 0 then s
    else
      let s' = Regexen.Regex.replace concat_re ~template:"'$1$2'" s in
      if String.equal s' s then s else fix s' (iters - 1)
  in
  fix script 64

(* 'text'.Replace('a','b') with literal arguments *)
let replace_re =
  Regexen.Regex.compile {|'([^']*)'\.replace\('([^']*)','([^']*)'\)|}

let resolve_replaces script =
  let rec fix s iters =
    if iters = 0 then s
    else
      let s' =
        Regexen.Regex.replace_f replace_re
          ~f:(fun subj m ->
            let g i = Option.value ~default:"" (Regexen.Regex.group_text subj m i) in
            let text = g 1 and needle = g 2 and repl = g 3 in
            if needle = "" then Regexen.Regex.matched_text subj m
            else "'" ^ Strcase.replace_all ~needle ~replacement:repl text ^ "'")
          s
      in
      if String.equal s' s then s else fix s' (iters - 1)
  in
  fix script 16

let apply_rules script = resolve_replaces (merge_concats script)

let deobfuscate script =
  let cleaned = apply_rules script in
  (* Unary Syntax Tree Model: keep peeling while a layer emerges *)
  let final, _layers, events = Override.peel_layers ~max_layers:16 cleaned in
  let final = apply_rules final in
  { Tool.result = final; simulated_seconds = Tool.simulated_cost events }

let tool = { Tool.name = "PowerDecode"; deobfuscate }
