(** Memory-pressure governor: Gc-alarm-driven heap watermarks feeding
    admission control.  See the interface for the contract. *)

type level = Ok | Soft | Hard

let level_name = function Ok -> "ok" | Soft -> "soft" | Hard -> "hard"
let level_rank = function Ok -> 0 | Soft -> 1 | Hard -> 2

(* watermarks in bytes; max_int means "never" (the disabled default) *)
let soft_bytes = Atomic.make max_int
let hard_bytes = Atomic.make max_int

(* test/bench hook: chaos for the governor — force a level regardless of
   the real heap, so pressure paths are exercisable deterministically.
   0 = no override, otherwise 1 + rank. *)
let override = Atomic.make 0

let set_override lv =
  Atomic.set override (match lv with None -> 0 | Some l -> 1 + level_rank l)

let m_heap = Telemetry.Metrics.gauge "mem.heap_bytes"
let m_level = Telemetry.Metrics.gauge "mem.level"
let m_alarms = Telemetry.Metrics.counter "mem.alarms"

let word_bytes = Sys.word_size / 8

let heap_bytes () =
  let s = Gc.quick_stat () in
  s.Gc.heap_words * word_bytes

let configure ?soft_mb ?hard_mb () =
  let to_bytes = function
    | None -> max_int
    | Some mb when mb <= 0 -> max_int
    | Some mb -> mb * 1024 * 1024
  in
  Atomic.set soft_bytes (to_bytes soft_mb);
  Atomic.set hard_bytes (to_bytes hard_mb)

let soft_watermark_bytes () =
  match Atomic.get soft_bytes with b when b = max_int -> None | b -> Some b

let hard_watermark_bytes () =
  match Atomic.get hard_bytes with b when b = max_int -> None | b -> Some b

let level_of_bytes bytes =
  if bytes >= Atomic.get hard_bytes then Hard
  else if bytes >= Atomic.get soft_bytes then Soft
  else Ok

let level () =
  let lv =
    match Atomic.get override with
    | 1 -> Ok
    | 2 -> Soft
    | 3 -> Hard
    | _ ->
        let bytes = heap_bytes () in
        Telemetry.Metrics.set m_heap bytes;
        level_of_bytes bytes
  in
  Telemetry.Metrics.set m_level (level_rank lv);
  lv

(* The Gc alarm runs at the end of each major cycle in the installing
   domain — exactly when [heap_words] is freshest — and refreshes the
   scrape gauges so pressure is observable even when nobody is calling
   {!level}.  Idempotent per process; the alarm itself must never raise
   (it runs inside the GC). *)
let alarm_installed = Atomic.make false

let install_alarm () =
  if Atomic.compare_and_set alarm_installed false true then
    ignore
      (Gc.create_alarm (fun () ->
           try
             Telemetry.Metrics.incr m_alarms;
             let bytes = heap_bytes () in
             Telemetry.Metrics.set m_heap bytes;
             Telemetry.Metrics.set m_level (level_rank (level_of_bytes bytes))
           with _ -> ()))
