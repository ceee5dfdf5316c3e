(* Machine-speed reference for perfbench/run.py (see perfbench/NOTES.md).

   One run of a fixed workload shaped like the deobfuscator's: a fresh
   process builds a heap of boxed strings, then mixes random reads, string
   allocation, replacement (work for the garbage collector) and hashtable
   updates.  run.py times it from spawn to exit, as it times the CLI, so
   the two see the same machine: CPU, caches, memory and process start-up.
   The amount of work is fixed: run.py's nominal speed is calibrated on it. *)

let () =
  let steps = 200_000 in
  let size = 1 lsl 17 in
  let heap = Array.init size (fun i -> string_of_int i) in
  let table = Hashtbl.create 4096 in
  let sum = ref 0 and x = ref 12345 in
  for _ = 1 to steps do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land (size - 1) in
    sum := !sum + String.length heap.(i);
    if !x land 7 = 0 then heap.(i) <- string_of_int !x;
    if !x land 63 = 0 then Hashtbl.replace table (!x land 4095) [ !x ]
  done;
  Printf.printf "%d %d\n" !sum (Hashtbl.length table)
