(** Tracing overhead: the check behind [bench/main.exe trace-check].

    The acceptance budget for the {!Plr_trace.Trace} instrumentation is
    that a {e disabled} sink costs the Table-1 suites under 2%.  The
    instrumentation is per chunk (never per element), so the check
    measures the cost of one disabled trace point directly and converts
    it to an implied per-element cost at the default chunking. *)

type overhead = {
  site_ns : float;  (** one disabled begin/end pair, nanoseconds *)
  per_elem_ns : float;  (** implied cost per element at default chunking *)
  baseline_ns_per_elem : float;  (** measured multicore lp2 ns/elem *)
  overhead_frac : float;  (** [per_elem_ns /. baseline_ns_per_elem] *)
}

val trace_overhead : ?n:int -> ?domains:int -> unit -> overhead
(** Microbenchmark a disabled trace point (the sink must be off) against
    the measured lp2 multicore baseline on [n] elements (default 2^18).
    The acceptance check is [overhead_frac < 0.02]; CI runs it non-fatally
    via [bench/main.exe trace-check]. *)

val render_overhead : Format.formatter -> overhead -> unit
