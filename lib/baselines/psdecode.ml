(** PSDecode re-implementation (R3MRUM/PSDecode).

    Mechanism: a set of text-replacement rules (strip every backtick,
    normalise a few cmdlet spellings), then execute the script with literal
    [Invoke-Expression]/[IEX] overridden to print its argument; each print
    is a layer, and the last layer is the result.

    Documented failure modes reproduced here: backticks are stripped
    {e everywhere} (including inside strings, which corrupts "`t" escapes);
    only literal IEX spellings are overridden; execution of the sample
    triggers its real side effects and crashes lose all later layers. *)

(* compiled eagerly at module init: parallel domains share it read-only *)
let strip_ticks_re = Regexen.Regex.compile "`"

let apply_rules script =
  (* PSDecode's `$Script -replace '``'` — strips ALL backticks *)
  Regexen.Regex.replace strip_ticks_re ~template:"" script

let deobfuscate script =
  let cleaned = apply_rules script in
  let final, _layers, events = Override.peel_layers cleaned in
  { Tool.result = final; simulated_seconds = Tool.simulated_cost events }

let tool = { Tool.name = "PSDecode"; deobfuscate }
