(** The process-wide glibc allocation policy, set once at start-up.

    When this library initialises, it calls glibc's [mallopt] to raise
    the mmap threshold to 256 MiB and the trim threshold to 512 MiB.  A
    freed 2^22-element output (32 MiB, above glibc's largest dynamic
    threshold) then stays in the arena, and the next output reuses its
    pages instead of mapping and faulting in fresh ones.  The library is
    linked whole ([-linkall]), so the policy holds in every program that
    links it, before [main] and with or without a domain pool.

    The policy is process-wide: an embedding host's own [malloc]s up to
    256 MiB come from the arenas too, and up to 512 MiB of freed memory
    stays mapped.  A host that wants otherwise calls [mallopt] itself
    after start-up.  Domains other than the main one allocate from glibc
    heaps capped at 64 MiB, so their larger blocks are still mmapped.
    Where the C library is not glibc, nothing is set
    (docs/performance.md, "Allocator policy"). *)

type status =
  | Applied  (** glibc took both thresholds. *)
  | Refused  (** glibc refused at least one of them. *)
  | Not_glibc  (** Not built against glibc: nothing was set. *)

val status : status
(** What start-up did.  Read-only: the library offers no setter. *)
