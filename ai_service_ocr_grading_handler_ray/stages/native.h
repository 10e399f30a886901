/* Declarations shared by the three kernel sources (html_native.c,
 * pdf_native.c, extract_native.c), which native.py compiles into one
 * library.  The cffi declarations in native.py repeat the exported ones;
 * NATIVE_INTERNAL ones are called only from within the library. */

#ifndef NATIVE_H
#define NATIVE_H

#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Not exported from the library: calls within it can then be inlined. */
#define NATIVE_INTERNAL __attribute__((visibility("hidden")))

/* The skip-ahead scans use SSE2, the x86-64 baseline: no -march, whose
 * CPU flags the library's cache key does not cover.  -DXB_NO_SIMD builds
 * the scalar loops alone, for the tests to compare. */
#if defined(__SSE2__) && !defined(XB_NO_SIMD)
#include <emmintrin.h>
#define NATIVE_SSE2 1
#endif

/* ---- html_native.c ------------------------------------------------------ */

/* A growing output buffer; `oom` sticks once an allocation failed. */
typedef struct { char *p; size_t len, cap; int oom; } hx_buf;

NATIVE_INTERNAL int hx_reserve(hx_buf *b, size_t extra);

/* Append s[0..n): inline while it fits, which it mostly does. */
static inline void hx_put(hx_buf *b, const void *s, size_t n)
{
    if (n && (n <= b->cap - b->len || hx_reserve(b, n))) {
        memcpy(b->p + b->len, s, n);
        b->len += n;
    }
}

/* Append one page's text and title to `text` and `title`; returns the
 * number of kept blocks, or -1 when out of memory. */
NATIVE_INTERNAL int64_t hx_append(const char *doc, size_t n, int64_t min_len, int64_t max_link_pct,
                                  hx_buf *text, hx_buf *title);
/* Every code point of the UTF-8 s[0..n) is str.isspace (also when n == 0). */
NATIVE_INTERNAL int hx_blank(const char *s, size_t n);

/* ---- pdf_native.c ------------------------------------------------------- */

/* Memory px_extract reuses from one row of a batch to the next. */
typedef struct { hx_buf glyphs, chars, spans, work, count; } px_scratch;

enum { PX_OK = 0, PX_DECLINED = 1, PX_NOMEM = -1 };

/* Lay out the page of the glyph JSON body[0..n): its text is appended to
 * `text` and its block count stored in *n_blocks on PX_OK; nothing is
 * appended on PX_DECLINED (outside the decoder's subset) or PX_NOMEM. */
NATIVE_INTERNAL int px_extract(const char *body, size_t n, px_scratch *sc, hx_buf *text,
                               int64_t *n_blocks);
NATIVE_INTERNAL void px_scratch_free(px_scratch *sc);

/* ---- extract_native.c --------------------------------------------------- */

typedef struct {
    char *text;
    size_t text_len;
    char *title;
    size_t title_len;
} xb_text;

/* kinds[i] == -1: sniff the row's kind and write its code there */
int xb_extract(const int64_t *offsets, const char *data, int64_t n, int8_t *kinds,
               const int64_t *min_len, const int64_t *max_link_pct, int64_t *text_off,
               int64_t *title_off, int32_t *n_blocks, int8_t *status, uint8_t *is_blank,
               uint8_t *flagged, char *sha_hex, xb_text *out);
void xb_free(void *p);
void xb_sha256_hex(const char *s, size_t n, char *hex);
void xb_sha256_hex_portable(const char *s, size_t n, char *hex);

#endif
