/* dlopen/dlsym bindings and the kernel-call trampolines for the PLR JIT.
 *
 * Handles and function pointers cross the FFI as nativeint (0 = null).
 * The chunked trampoline releases the OCaml runtime lock for the duration
 * of the kernel: its data lives in Bigarrays, whose payload is off the
 * OCaml heap and never moves.  The direct trampoline runs on OCaml arrays
 * and keeps the lock.
 */

#include <dlfcn.h>
#include <stdint.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>

CAMLprim value plr_jit_stub_dlopen(value path)
{
  CAMLparam1(path);
  char buf[4096];
  size_t len = caml_string_length(path);
  if (len >= sizeof(buf)) CAMLreturn(caml_copy_nativeint(0));
  /* copy out: dlopen may release the runtime elsewhere; keep it simple
     and work from a C copy of the path */
  memcpy(buf, String_val(path), len);
  buf[len] = '\0';
  void *h = dlopen(buf, RTLD_NOW | RTLD_LOCAL);
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

CAMLprim value plr_jit_stub_dlerror(value unit)
{
  CAMLparam1(unit);
  const char *e = dlerror();
  CAMLreturn(caml_copy_string(e ? e : "unknown dlopen/dlsym error"));
}

CAMLprim value plr_jit_stub_dlsym(value handle, value name)
{
  CAMLparam2(handle, name);
  void *h = (void *)Nativeint_val(handle);
  void *fn = h ? dlsym(h, String_val(name)) : NULL;
  CAMLreturn(caml_copy_nativeint((intnat)fn));
}

CAMLprim value plr_jit_stub_dlclose(value handle)
{
  void *h = (void *)Nativeint_val(handle);
  if (h) dlclose(h);
  return Val_unit;
}

/* void kernel(const T *x, T *y, int64_t n[, int64_t m]) — T is int64_t
 * or double; the trampolines only move pointers, so one cast covers both
 * element types. */
typedef void (*plr_run_fn)(const void *, void *, int64_t);
typedef void (*plr_run_chunked_fn)(const void *, void *, int64_t, int64_t);

CAMLprim value plr_jit_stub_call_run_chunked(value fn, value x, value y,
                                             value n, value m)
{
  CAMLparam5(fn, x, y, n, m);
  plr_run_chunked_fn f = (plr_run_chunked_fn)Nativeint_val(fn);
  const void *xs = Caml_ba_data_val(x);
  void *ys = Caml_ba_data_val(y);
  int64_t len = Long_val(n);
  int64_t chunk = Long_val(m);
  caml_release_runtime_system();
  f(xs, ys, len, chunk);
  caml_acquire_runtime_system();
  CAMLreturn(Val_unit);
}

/* The call directly on OCaml array payloads: a float array is a
 * flat block of doubles, an int array a flat block of tagged words (the
 * int kernels emit a `_tagged` entry that untags on load and retags on
 * store).  The runtime lock is deliberately NOT released here — with
 * this thread never reaching a safepoint during the call, no GC can run,
 * so the arrays cannot move while native code holds their pointers. */
CAMLprim value plr_jit_stub_call_run_direct(value fn, value x, value y, value n)
{
  plr_run_fn f = (plr_run_fn)Nativeint_val(fn);
  f((const void *)x, (void *)y, (int64_t)Long_val(n));
  return Val_unit;
}
