type status = Applied | Refused | Not_glibc

(* 256 MiB.  glibc's dynamic mmap threshold rises with freed blocks but
   stops at 32 MiB, and a 2^22-element output is 32 MiB plus its header:
   every such block would be mmapped fresh, faulted in page by page, and
   unmapped when the GC frees it.  Above this size a block is still
   mmapped. *)
let mmap_threshold = 256 * 1024 * 1024

(* 512 MiB.  [free] returns the arena's top to the OS only when more than
   this is free there, so a freed output block stays mapped and faulted
   in, and the next output reuses its pages. *)
let trim_threshold = 512 * 1024 * 1024

external apply : int -> int -> int = "plr_alloc_apply" [@@noalloc]

let status =
  match apply mmap_threshold trim_threshold with
  | 0 -> Applied
  | 1 -> Refused
  | _ -> Not_glibc
