(** Memory-pressure governor: heap watermarks feeding admission control.

    The serve daemon (and anything else that wants load-dependent
    behaviour) asks {!level} at admission time and acts on the answer:
    {ul
    {- [Ok] — under the soft watermark: admit normally;}
    {- [Soft] — past the soft watermark: shed new work explicitly
       (["overloaded"] with [reason:"memory"]) and shrink caches, so
       pressure relieves without touching work already admitted;}
    {- [Hard] — past the hard watermark: additionally recycle worker
       domains between requests, releasing domain-local state.}}

    Watermarks compare against the major heap ([Gc.quick_stat.heap_words]),
    which in OCaml 5 is runtime-wide — one governor covers every domain.
    A {!install_alarm} Gc alarm refreshes the [mem.heap_bytes] /
    [mem.level] gauges at the end of each major cycle so the scrape
    endpoint sees pressure even between {!level} calls.  Watermarks
    default to "never": a process that does not configure them is
    unaffected. *)

type level = Ok | Soft | Hard

val level_name : level -> string
(** ["ok"], ["soft"], ["hard"]. *)

val configure : ?soft_mb:int -> ?hard_mb:int -> unit -> unit
(** Set the watermarks in MiB.  Omitted, zero or negative values disable
    that watermark.  Callable at any time; stored atomically. *)

val soft_watermark_bytes : unit -> int option
val hard_watermark_bytes : unit -> int option

val heap_bytes : unit -> int
(** Current major-heap size in bytes (runtime-wide). *)

val level : unit -> level
(** Current pressure level (honouring any {!set_override}); also refreshes
    the [mem.heap_bytes] and [mem.level] gauges. *)

val set_override : level option -> unit
(** Test/bench hook — chaos for the governor: force the reported level
    regardless of the real heap, so pressure shedding and worker recycling
    are exercisable deterministically.  [None] restores real measurement. *)

val install_alarm : unit -> unit
(** Install the end-of-major-cycle Gc alarm that keeps the gauges fresh.
    Idempotent; the alarm never raises. *)
