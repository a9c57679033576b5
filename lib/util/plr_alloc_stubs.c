/* The process-wide glibc allocation policy behind Plr_util.Alloc.
 *
 * plr_alloc_apply sets glibc's mmap and trim thresholds with mallopt and
 * answers 0 when glibc took both, 1 when it refused either, and 2 where
 * the C library is not glibc, which has neither knob: nothing is set.
 */

#include <caml/mlvalues.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

CAMLprim value plr_alloc_apply(value mmap_threshold, value trim_threshold)
{
#ifdef __GLIBC__
  int mmap_ok = mallopt(M_MMAP_THRESHOLD, Int_val(mmap_threshold));
  int trim_ok = mallopt(M_TRIM_THRESHOLD, Int_val(trim_threshold));
  return Val_int(mmap_ok && trim_ok ? 0 : 1);
#else
  (void)mmap_threshold;
  (void)trim_threshold;
  return Val_int(2);
#endif
}
