/* Native Stage-A batch: one call sniffs, extracts and digests a whole batch.
 *
 * xb_extract walks a batch's payload column as Arrow lays out large_binary
 * (int64 offsets into one data buffer), with one kind code and one pair
 * of HTML thresholds per row, and does for each row what
 * stages/extract.py's per-row path does in Python:
 * - kind -1: sniff the payload's kind as classify.classify_payload_kind
 *   does and write its code back into `kinds`;
 * - html: hx_append (html_native.c) when the payload is valid UTF-8;
 * - pdf: px_extract (pdf_native.c) on the glyph JSON after the marker;
 * - blank and error: an empty text;
 * then the row's status, is_blank (every code point str.isspace) and the
 * lowercase hex SHA-256 of its UTF-8 text.  Texts and titles go to two
 * growing buffers, addressed by int64 offsets; the other outputs go to the
 * caller's arrays, one entry per row (64 bytes for a digest).
 *
 * Some rows are flagged and left empty, and the caller extracts them in
 * Python: kind XB_PYTHON (images: OCR), HTML that is not valid UTF-8
 * (Python's errors="replace" decode is the one definition of its repair),
 * and PDFs without the glyph marker or that px_extract declines.
 *
 * The SHA-256 follows FIPS 180-4; the build gains no library.  On x86-64
 * with GCC or Clang a second block function uses the SHA extensions
 * (SHA-NI), chosen once at load time when the CPU has them.
 * pdf_native_tables.h carries payloads.py's magic bytes and glyph marker
 * and classify.py's sniff window.
 */

#include <stdlib.h>
#include <string.h>

#include "native.h"
#include "pdf_native_tables.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define XB_SHA_NI 1
#endif

/* kind codes: the order of classify.KINDS; XB_SNIFF asks for the sniff */
enum { XB_SNIFF = -1, XB_HTML = 0, XB_PDF = 1, XB_PYTHON = 2, XB_BLANK = 3, XB_ERROR = 4 };
/* status codes: the order of native.BATCH_STATUSES */
enum { XB_S_OK = 0, XB_S_BLANK = 1, XB_S_ERROR = 2 };

/* ---- SHA-256 (FIPS 180-4) ---------------------------------------------- */

static const uint32_t K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define ROR(x, k) (((x) >> (k)) | ((x) << (32 - (k))))

#define S0(x) (ROR(x, 2) ^ ROR(x, 13) ^ ROR(x, 22))
#define S1(x) (ROR(x, 6) ^ ROR(x, 11) ^ ROR(x, 25))
#define G0(x) (ROR(x, 7) ^ ROR(x, 18) ^ ((x) >> 3))
#define G1(x) (ROR(x, 17) ^ ROR(x, 19) ^ ((x) >> 10))
/* one round; the caller rotates the names instead of the values */
#define ROUND(a, b, c, d, e, f, g, h, i)                                        \
    do {                                                                        \
        uint32_t t1 = h + S1(e) + ((e & f) ^ (~e & g)) + K[i] + w[i];           \
        d += t1;                                                                \
        h = t1 + S0(a) + ((a & b) ^ (a & c) ^ (b & c));                         \
    } while (0)

static void sha256_block(uint32_t s[8], const unsigned char *p)
{
    uint32_t w[64], a = s[0], b = s[1], c = s[2], d = s[3], e = s[4], f = s[5], g = s[6], h = s[7];
    int i;
    for (i = 0; i < 16; i++)
        w[i] = (uint32_t)p[4 * i] << 24 | (uint32_t)p[4 * i + 1] << 16 | (uint32_t)p[4 * i + 2] << 8 |
               p[4 * i + 3];
    for (; i < 64; i++)
        w[i] = w[i - 16] + G0(w[i - 15]) + w[i - 7] + G1(w[i - 2]);
    for (i = 0; i < 64; i += 8) {
        ROUND(a, b, c, d, e, f, g, h, i);
        ROUND(h, a, b, c, d, e, f, g, i + 1);
        ROUND(g, h, a, b, c, d, e, f, i + 2);
        ROUND(f, g, h, a, b, c, d, e, i + 3);
        ROUND(e, f, g, h, a, b, c, d, i + 4);
        ROUND(d, e, f, g, h, a, b, c, i + 5);
        ROUND(c, d, e, f, g, h, a, b, i + 6);
        ROUND(b, c, d, e, f, g, h, a, i + 7);
    }
    s[0] += a, s[1] += b, s[2] += c, s[3] += d, s[4] += e, s[5] += f, s[6] += g, s[7] += h;
}

/* `blocks` 64-byte blocks at p into the state s */
typedef void sha256_blocks_fn(uint32_t s[8], const unsigned char *p, size_t blocks);

static void sha256_blocks_portable(uint32_t s[8], const unsigned char *p, size_t blocks)
{
    for (; blocks; blocks--, p += 64)
        sha256_block(s, p);
}

#ifdef XB_SHA_NI
/* The same with the SHA extensions.  The state lives in two registers as
 * ABEF and CDGH; each sha256rnds2 runs two rounds, and message group g
 * (words 4g..4g+3) comes from groups g-4..g-1 by sha256msg1/msg2. */
__attribute__((target("sha,sse4.1"))) static void sha256_blocks_ni(uint32_t s[8],
                                                                  const unsigned char *p,
                                                                  size_t blocks)
{
    const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    __m128i dcba = _mm_loadu_si128((const __m128i *)&s[0]);
    __m128i hgfe = _mm_loadu_si128((const __m128i *)&s[4]);
    __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1), efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8), cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; blocks; blocks--, p += 64) {
        __m128i abef0 = abef, cdgh0 = cdgh, msg[4], m;
        int g;
#pragma GCC unroll 16
        for (g = 0; g < 16; g++) {
            if (g < 4) {
                msg[g] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16 * g)), bswap);
            } else { /* slot g & 3 holds group g-4 until it is replaced */
                m = _mm_sha256msg1_epu32(msg[g & 3], msg[(g + 1) & 3]);
                m = _mm_add_epi32(m, _mm_alignr_epi8(msg[(g + 3) & 3], msg[(g + 2) & 3], 4));
                msg[g & 3] = _mm_sha256msg2_epu32(m, msg[(g + 3) & 3]);
            }
            m = _mm_add_epi32(msg[g & 3], _mm_loadu_si128((const __m128i *)&K[4 * g]));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(m, 0x0E));
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }
    {
        __m128i feba = _mm_shuffle_epi32(abef, 0x1B), dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128((__m128i *)&s[0], _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128((__m128i *)&s[4], _mm_alignr_epi8(dchg, feba, 8));
    }
}
#endif

/* the block function of this CPU, chosen once when the library loads */
static sha256_blocks_fn *sha256_blocks = sha256_blocks_portable;

#ifdef XB_SHA_NI
__attribute__((constructor)) static void pick_sha256_blocks(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"))
        sha256_blocks = sha256_blocks_ni;
}
#endif

/* hashlib.sha256(s[0..n)).hexdigest() into hex[0..64) */
static void sha256_hex(const char *s, size_t n, char *hex, sha256_blocks_fn *blocks)
{
    static const char digits[] = "0123456789abcdef";
    uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    unsigned char tail[128];
    size_t full = n - n % 64, rest = n % 64, end = rest < 56 ? 64 : 128, i;
    uint64_t bits = (uint64_t)n << 3;

    blocks(h, (const unsigned char *)s, full / 64);
    if (rest)
        memcpy(tail, s + full, rest);
    tail[rest] = 0x80;
    memset(tail + rest + 1, 0, end - 8 - rest - 1);
    for (i = 0; i < 8; i++)
        tail[end - 1 - i] = (unsigned char)(bits >> (8 * i));
    blocks(h, tail, end / 64);
    for (i = 0; i < 32; i++) {
        unsigned char byte = (unsigned char)(h[i / 4] >> (24 - 8 * (i % 4)));
        hex[2 * i] = digits[byte >> 4];
        hex[2 * i + 1] = digits[byte & 15];
    }
}

void xb_sha256_hex(const char *s, size_t n, char *hex) { sha256_hex(s, n, hex, sha256_blocks); }

/* for tests: the portable path, whatever the CPU */
void xb_sha256_hex_portable(const char *s, size_t n, char *hex)
{
    sha256_hex(s, n, hex, sha256_blocks_portable);
}

/* ---- one row -------------------------------------------------------------- */

/* bytes.decode("utf-8") would succeed: no overlong forms, surrogates or
 * code points above U+10FFFF. */
static int utf8_valid(const unsigned char *s, size_t n)
{
    size_t i = 0;
    while (i < n) {
        unsigned char c = s[i], lo = 0x80, hi = 0xBF;
        size_t len, k;
        if (c < 0x80) { /* ASCII: eight bytes at a time */
            uint64_t w;
            for (i++; n - i >= 8; i += 8) {
                memcpy(&w, s + i, 8);
                if (w & 0x8080808080808080u)
                    break;
            }
            continue;
        }
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
        if (n - i < len || s[i + 1] < lo || s[i + 1] > hi)
            return 0;
        for (k = 2; k < len; k++)
            if ((s[i + k] & 0xC0) != 0x80)
                return 0;
        i += len;
    }
    return 1;
}

/* payloads._glyph_body: the glyph JSON follows the first marker of a
 * payload that starts with the PDF magic.  NULL when there is none. */
static const char *glyph_body(const char *doc, size_t n)
{
    size_t magic = sizeof PX_PDF_MAGIC - 1, marker = sizeof PX_GLYPH_MARKER - 1, i;
    if (n < magic || memcmp(doc, PX_PDF_MAGIC, magic) != 0)
        return NULL;
    for (i = 0; n - i >= marker; i++) {
        const char *q = memchr(doc + i, PX_GLYPH_MARKER[0], n - i - marker + 1);
        if (!q)
            return NULL;
        i = (size_t)(q - doc);
        if (memcmp(q, PX_GLYPH_MARKER, marker) == 0)
            return q + marker;
    }
    return NULL;
}

/* classify.classify_payload_kind of one payload: empty is blank; then the
 * PDF magic, the PNG magic or RIFF....WEBP (an image), a '<' in the first
 * XB_HTML_WINDOW bytes (HTML); anything else is an error. */
static int8_t sniff(const char *doc, size_t n)
{
#define HAS(at, lit) (n >= (at) + sizeof lit - 1 && memcmp(doc + (at), lit, sizeof lit - 1) == 0)
    if (n == 0)
        return XB_BLANK;
    if (HAS(0, PX_PDF_MAGIC))
        return XB_PDF;
    if (HAS(0, XB_PNG_MAGIC) || (HAS(0, XB_WEBP_RIFF) && HAS(XB_WEBP_TAG_AT, XB_WEBP_TAG)))
        return XB_PYTHON;
    if (memchr(doc, '<', n < XB_HTML_WINDOW ? n : XB_HTML_WINDOW))
        return XB_HTML;
    return XB_ERROR;
#undef HAS
}

/* Lay out one PDF row into `text`: PX_OK, PX_DECLINED or PX_NOMEM. */
static int pdf_row(const char *doc, size_t n, hx_buf *text, int64_t *kept)
{
    const char *body = glyph_body(doc, n);
    px_page page;
    int rc;
    if (!body)
        return PX_DECLINED;
    rc = px_extract(body, n - (size_t)(body - doc), &page);
    if (rc == PX_OK) {
        hx_put(text, page.text, page.text_len);
        *kept = page.n_blocks;
    }
    px_free(&page);
    return rc;
}

/* ---- the batch ------------------------------------------------------------ */

int xb_extract(const int64_t *offsets, const char *data, int64_t n, int8_t *kinds,
               const int64_t *min_len, const int64_t *max_link_pct, int64_t *text_off,
               int64_t *title_off, int32_t *n_blocks, int8_t *status, uint8_t *is_blank,
               uint8_t *flagged, char *sha_hex, xb_text *out)
{
    hx_buf text = {NULL, 0, 0, 0}, title = {NULL, 0, 0, 0};
    int64_t i;

    memset(out, 0, sizeof *out);
    hx_reserve(&text, 64); /* the caller gets buffers even when they stay empty */
    hx_reserve(&title, 64);
    text_off[0] = title_off[0] = 0;
    for (i = 0; i < n && !text.oom && !title.oom; i++) {
        const char *doc = data + offsets[i];
        size_t len = (size_t)(offsets[i + 1] - offsets[i]), start = text.len;
        int64_t kept = 0;
        int st = XB_S_ERROR, flag = 0, rc;

        if (kinds[i] == XB_SNIFF)
            kinds[i] = sniff(doc, len);
        switch (kinds[i]) {
        case XB_HTML:
            if (!utf8_valid((const unsigned char *)doc, len)) {
                flag = 1;
                break;
            }
            kept = hx_append(doc, len, min_len[i], max_link_pct[i], &text, &title);
            if (kept < 0)
                goto oom;
            st = text.len > start ? XB_S_OK : XB_S_BLANK;
            break;
        case XB_PDF:
            rc = pdf_row(doc, len, &text, &kept);
            if (rc == PX_NOMEM)
                goto oom;
            flag = rc == PX_DECLINED;
            st = text.len > start ? XB_S_OK : XB_S_BLANK;
            break;
        case XB_BLANK:
            st = XB_S_BLANK;
            break;
        case XB_ERROR:
            break;
        default:
            flag = 1;
        }
        flagged[i] = (uint8_t)flag;
        status[i] = (int8_t)st;
        n_blocks[i] = (int32_t)kept;
        is_blank[i] = (uint8_t)hx_blank(text.p + start, text.len - start);
        sha256_hex(text.p + start, text.len - start, sha_hex + 64 * i, sha256_blocks);
        text_off[i + 1] = (int64_t)text.len;
        title_off[i + 1] = (int64_t)title.len;
    }
    if (text.oom || title.oom)
        goto oom;
    out->text = text.p;
    out->text_len = text.len;
    out->title = title.p;
    out->title_len = title.len;
    return 0;
oom:
    free(text.p);
    free(title.p);
    return -1;
}

void xb_free(void *p) { free(p); }
