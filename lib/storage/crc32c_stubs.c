/* CRC-32C (Castagnoli, reflected polynomial 0x82F63B78): the one
 * checksum kernel behind Page.crc32c (bytes) and View.crc32c (the
 * float64 file mapping), so page trailers, WAL and manifest frames and
 * wire frames are all computed here.
 *
 * Two paths give the same value:
 *
 * - On x86-64 with SSE4.2, the CPU's crc32 instruction: bytewise up to
 *   8-byte alignment, then 8 bytes per step, then the tail bytewise.
 *   The function is compiled for SSE4.2 on its own (target attribute),
 *   not the whole file, and is called only when CPUID reports the
 *   instruction; the CPU is checked once, when the library is loaded.
 * - Everywhere else, slicing-by-8 over one table: table[k] advances a
 *   byte's contribution past k further bytes, so one step folds 8
 *   bytes, read as two little-endian 32-bit words assembled byte by
 *   byte (the same value on either byte order).
 *
 * The kernel checks no bounds: the OCaml callers check the range, and
 * call it as [@@noalloc] externals, so no GC runs (or moves the buffer)
 * during a call. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#if defined(__x86_64__)
#define PRT_CRC_HW 1
#include <nmmintrin.h>
#endif

static uint32_t crc_table[8][256];
static int use_hw = 0;

__attribute__((constructor)) static void prt_crc32c_init(void)
{
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    crc_table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t prev = crc_table[k - 1][n];
      crc_table[k][n] = (prev >> 8) ^ crc_table[0][prev & 0xFF];
    }
#ifdef PRT_CRC_HW
  __builtin_cpu_init();
  use_hw = __builtin_cpu_supports("sse4.2");
#endif
}

static inline uint32_t le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24);
}

static uint32_t crc_table_path(uint32_t c, const unsigned char *p, size_t n)
{
  while (n >= 8) {
    uint32_t lo = le32(p) ^ c, hi = le32(p + 4);
    c = crc_table[7][lo & 0xFF] ^ crc_table[6][(lo >> 8) & 0xFF]
        ^ crc_table[5][(lo >> 16) & 0xFF] ^ crc_table[4][lo >> 24]
        ^ crc_table[3][hi & 0xFF] ^ crc_table[2][(hi >> 8) & 0xFF]
        ^ crc_table[1][(hi >> 16) & 0xFF] ^ crc_table[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) c = crc_table[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  return c;
}

#ifdef PRT_CRC_HW
__attribute__((target("sse4.2"))) static uint32_t crc_hw_path(uint32_t c, const unsigned char *p,
                                                              size_t n)
{
  while (n > 0 && ((uintptr_t)p & 7) != 0) {
    c = _mm_crc32_u8(c, *p++);
    n--;
  }
  uint64_t c64 = c;
  while (n >= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    c64 = _mm_crc32_u64(c64, w);
    p += 8;
    n -= 8;
  }
  c = (uint32_t)c64;
  while (n-- > 0) c = _mm_crc32_u8(c, *p++);
  return c;
}
#endif

static intnat crc32c(const unsigned char *p, size_t n)
{
#ifdef PRT_CRC_HW
  if (use_hw) return (intnat)(crc_hw_path(0xFFFFFFFFu, p, n) ^ 0xFFFFFFFFu);
#endif
  return (intnat)(crc_table_path(0xFFFFFFFFu, p, n) ^ 0xFFFFFFFFu);
}

/* Native entry points take and return untagged ints; the bytecode ones
 * unwrap their arguments and call them. */

intnat prt_crc32c_bytes(value buf, intnat pos, intnat len)
{
  return crc32c(Bytes_val(buf) + pos, (size_t)len);
}

intnat prt_crc32c_map(value map, intnat pos, intnat len)
{
  return crc32c((const unsigned char *)Caml_ba_data_val(map) + pos, (size_t)len);
}

/* The table path alone, whatever the CPU: the tests check it against
 * the bitwise reference on hosts where the hardware path is taken. */
intnat prt_crc32c_bytes_table(value buf, intnat pos, intnat len)
{
  return (intnat)(crc_table_path(0xFFFFFFFFu, Bytes_val(buf) + pos, (size_t)len) ^ 0xFFFFFFFFu);
}

value prt_crc32c_bytes_byte(value buf, value pos, value len)
{
  return Val_long(prt_crc32c_bytes(buf, Long_val(pos), Long_val(len)));
}

value prt_crc32c_map_byte(value map, value pos, value len)
{
  return Val_long(prt_crc32c_map(map, Long_val(pos), Long_val(len)));
}

value prt_crc32c_bytes_table_byte(value buf, value pos, value len)
{
  return Val_long(prt_crc32c_bytes_table(buf, Long_val(pos), Long_val(len)));
}
