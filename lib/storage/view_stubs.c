/* C stub for the mmap read path.
 *
 * prt_view_madvise_random: best-effort MADV_RANDOM advice on the
 * mapping.  Query descent touches pages in index order, not file
 * order, so read-ahead is wasted work.  Silently a no-op where the
 * platform lacks madvise or MADV_RANDOM.
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

CAMLprim value prt_view_madvise_random(value vmap)
{
#if defined(MADV_RANDOM)
  madvise(Caml_ba_data_val(vmap), caml_ba_byte_size(Caml_ba_array_val(vmap)),
          MADV_RANDOM);
#else
  (void)vmap;
#endif
  return Val_unit;
}
