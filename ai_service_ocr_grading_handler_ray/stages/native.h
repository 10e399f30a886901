/* What the three kernel sources (html_native.c, pdf_native.c,
 * extract_native.c) share, each stated once; native.py compiles them into
 * one library.
 * - UTF-8: the well-formed sequences, decoding and encoding (utf8_len,
 *   utf8_dec, utf8_enc), and the digit tests.  No kernel spells out a
 *   UTF-8 byte range of its own.
 * - The library's exports: native.py hands cffi the block between the
 *   NATIVE_EXPORTS markers, so the binding is this header.
 *   NATIVE_INTERNAL functions are called only from within the library.
 * - The payload kind codes (XB_HTML, XB_PDF, ..., XB_SNIFF) and the status
 *   codes (XB_S_OK, ...) are not here: native.py generates them into
 *   pdf_native_tables.h from classify.KINDS, native.SNIFF and
 *   native.BATCH_STATUSES. */

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

/* ---- UTF-8 and digits ---------------------------------------------------- */

/* The length of the well-formed UTF-8 sequence at s[0..avail), avail >= 1,
 * or 0 when none starts there: the sequences bytes.decode("utf-8")
 * accepts, so no overlong forms, surrogates or code points above
 * U+10FFFF. */
static inline size_t utf8_len(const unsigned char *s, size_t avail)
{
    unsigned char c = s[0], lo = 0x80, hi = 0xBF;
    size_t len, k;
    if (c < 0x80)
        return 1;
    if (c >= 0xC2 && c <= 0xDF) {
        len = 2;
    } else if (c >= 0xE0 && c <= 0xEF) {
        len = 3;
        lo = c == 0xE0 ? 0xA0 : 0x80;
        hi = c == 0xED ? 0x9F : 0xBF;
    } else if (c >= 0xF0 && c <= 0xF4) {
        len = 4;
        lo = c == 0xF0 ? 0x90 : 0x80;
        hi = c == 0xF4 ? 0x8F : 0xBF;
    } else {
        return 0;
    }
    if (avail < len || s[1] < lo || s[1] > hi)
        return 0;
    for (k = 2; k < len; k++)
        if ((s[k] & 0xC0) != 0x80)
            return 0;
    return len;
}

/* Decode the code point at s[0..avail), avail >= 1, into *cp and return
 * its length.  A byte that starts no well-formed sequence is U+FFFD, one
 * byte long. */
static inline size_t utf8_dec(const unsigned char *s, size_t avail, uint32_t *cp)
{
    static const unsigned char lead_bits[5] = {0, 0x7F, 0x1F, 0x0F, 0x07};
    size_t len = utf8_len(s, avail), k;
    if (!len) {
        *cp = 0xFFFD;
        return 1;
    }
    *cp = s[0] & lead_bits[len];
    for (k = 1; k < len; k++)
        *cp = *cp << 6 | (s[k] & 0x3Fu);
    return len;
}

/* Encode the code point cp <= U+10FFFF into out[0..4); returns its length. */
static inline size_t utf8_enc(uint32_t cp, unsigned char *out)
{
    static const unsigned char lead[5] = {0, 0, 0xC0, 0xE0, 0xF0};
    size_t len = cp < 0x80 ? 1 : cp < 0x800 ? 2 : cp < 0x10000 ? 3 : 4, k;
    for (k = len - 1; k > 0; k--, cp >>= 6)
        out[k] = (unsigned char)(0x80 | (cp & 0x3F));
    out[0] = (unsigned char)(lead[len] | cp);
    return len;
}

static inline int is_digit(unsigned char c) { return (unsigned char)(c - '0') < 10; }
static inline int is_xdigit(unsigned char c) { return is_digit(c) || (unsigned char)((c | 0x20) - 'a') < 6; }
/* The value of the hex digit c. */
static inline unsigned xdigit_value(unsigned char c) { return is_digit(c) ? c - '0' : (c | 0x20) - 'a' + 10; }

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

/* ---- the exports (extract_native.c) ------------------------------------- */

/* cffi parses what lies between the two markers: comments are fine there,
 * preprocessor lines are not. */
/* NATIVE_EXPORTS_BEGIN */
typedef struct {
    char *text;
    size_t text_len;
    char *title;
    size_t title_len;
} xb_text;

/* kinds[i] == XB_SNIFF: sniff the row's kind and write its code there */
int xb_extract(const int64_t *offsets, const char *data, int64_t n, int8_t *kinds,
               const int64_t *min_len, const int64_t *max_link_pct, int64_t *text_off,
               int64_t *title_off, int32_t *n_blocks, int8_t *status, uint8_t *is_blank,
               uint8_t *flagged, char *sha_hex, xb_text *out);
void xb_free(void *p);
void xb_sha256_hex(const char *s, size_t n, char *hex);
void xb_sha256_hex_portable(const char *s, size_t n, char *hex);
/* NATIVE_EXPORTS_END */

#endif
