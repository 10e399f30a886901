/* Declarations shared by the three kernel sources (html_native.c,
 * pdf_native.c, extract_native.c), which native.py compiles into one
 * library.  The cffi declarations in native.py repeat the exported ones;
 * NATIVE_INTERNAL ones are called only from within the library. */

#ifndef NATIVE_H
#define NATIVE_H

#include <stddef.h>
#include <stdint.h>

/* Not exported from the library: calls within it can then be inlined. */
#define NATIVE_INTERNAL __attribute__((visibility("hidden")))

/* ---- html_native.c ------------------------------------------------------ */

/* A growing output buffer; `oom` sticks once an allocation failed. */
typedef struct { char *p; size_t len, cap; int oom; } hx_buf;

NATIVE_INTERNAL int hx_reserve(hx_buf *b, size_t extra);
NATIVE_INTERNAL void hx_put(hx_buf *b, const void *s, size_t n);
/* Append one page's text and title to `text` and `title`; returns the
 * number of kept blocks, or -1 when out of memory. */
NATIVE_INTERNAL int64_t hx_append(const char *doc, size_t n, int64_t min_len, int64_t max_link_pct,
                                  hx_buf *text, hx_buf *title);
/* Every code point of the UTF-8 s[0..n) is str.isspace (also when n == 0). */
NATIVE_INTERNAL int hx_blank(const char *s, size_t n);

/* ---- pdf_native.c ------------------------------------------------------- */

typedef struct {
    int32_t x, y, w, h;
    uint32_t off, len; /* the glyph's text: chars[off .. off + len) */
} px_glyph;

typedef struct {
    px_glyph *glyphs;
    int64_t n_glyphs;
    char *chars;
    char *text;
    size_t text_len;
    int64_t n_blocks;
} px_page;

enum { PX_OK = 0, PX_DECLINED = 1, PX_NOMEM = -1 };

NATIVE_INTERNAL int px_extract(const char *body, size_t n, px_page *page);
NATIVE_INTERNAL void px_free(px_page *page);

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
