/* Native main-content HTML extractor, hx_append: the production HTML
 * engine.  Its only caller is xb_extract (extract_native.c), once per
 * valid-UTF-8 HTML row of a batch; html_extract.extract_html_fused reaches
 * it as a one-row batch.
 *
 * One pass over a UTF-8 page tokenizes it by the WHATWG rules that
 * html_extract.py's module docstring lists (RAWTEXT script/style, RCDATA
 * title/textarea closed only by their own ASCII case-insensitive end tag,
 * the attribute states, bogus comments, comments, eof-in-tag, character
 * references as html.unescape decodes them) and classifies blocks as it
 * goes (skip / boiler / link depths, the attribute-boiler stack, integer
 * min_len / max_link_pct thresholds, str.split() normalisation).  Lengths
 * are counted in code points, as len() counts them.  Its oracle is
 * html_extract.extract_html_with_title, written separately from the same
 * rules; the tests fuzz the two against each other.
 *
 * The function is total: any byte string is accepted, every read is
 * bounded by the input length and every write goes through a growing
 * buffer.  UTF-8 is decoded and encoded by native.h's utf8_dec and
 * utf8_enc; a byte that starts no well-formed sequence would be read as
 * one U+FFFD, but xb_extract flags rows that are not valid UTF-8 and never
 * passes any.
 *
 * Fast paths.  The scalar loops are the one definition: each fast path
 * only skips input that its loop would treat the same way, and hands back
 * to the loop at the first byte it does not handle.
 * - word_run: a run of single-spaced ASCII words (no '&', control or
 *   non-ASCII byte and no second space) goes to the sink as one word,
 *   scanned 16 bytes at a time with SSE2 (reading ahead up to the end of
 *   the document, never past it).
 * - tag_lookup: one probe of a hash table built from HX_TAGS when the
 *   library loads, keyed on the length and the lowercase first and last
 *   characters.
 * - hx_put (native.h) appends inline while the buffer has room.
 * extract_native.c's UTF-8 check skips ASCII 16 bytes at a time the same
 * way.  -DXB_NO_SIMD builds the scalar loops alone; the tests compare the
 * two builds.
 *
 * html_native_tables.h is generated by native.py from the running
 * Python: the tag sets and boiler words of html_extract.py, the
 * html.entities.html5 table, html._invalid_charrefs and
 * html._invalid_codepoints, and the str.isspace and re.IGNORECASE facts
 * of its Unicode database.
 */

#include <stdlib.h>
#include <string.h>

#include "native.h"

#define HX_BLOCK 1u
#define HX_SKIP 2u
#define HX_BOILER 4u
#define HX_VOID 8u
#define HX_RAWTEXT 16u
#define HX_A 32u
#define HX_TITLE 64u
#define HX_BR 128u

typedef struct { const char *name; unsigned char len; unsigned char flags; } hx_tag;
typedef struct { const char *name; unsigned char len; const char *value; unsigned char value_len; } hx_entity;
typedef struct { uint32_t cp; const char *value; unsigned char value_len; } hx_charref;
typedef struct { uint32_t cp; char letter; } hx_fold;

#include "html_native_tables.h"

/* ---- growing output buffer ------------------------------------------- */

int hx_reserve(hx_buf *b, size_t extra)
{
    size_t cap;
    char *p;
    if (b->oom)
        return 0;
    if (extra <= b->cap - b->len)
        return 1;
    if (extra > SIZE_MAX - b->len) {
        b->oom = 1;
        return 0;
    }
    cap = b->cap ? b->cap : 64;
    while (cap - b->len < extra)
        cap = cap > SIZE_MAX / 2 ? SIZE_MAX : cap * 2;
    p = realloc(b->p, cap);
    if (!p) {
        b->oom = 1;
        return 0;
    }
    b->p = p;
    b->cap = cap;
    return 1;
}

/* ---- Unicode ---------------------------------------------------------- */

static int in_sorted(const uint32_t *xs, size_t n, uint32_t cp)
{
    size_t lo = 0, hi = n;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (xs[mid] == cp)
            return 1;
        if (xs[mid] < cp)
            lo = mid + 1;
        else
            hi = mid;
    }
    return 0;
}

/* str.isspace(), which is also the regex \s */
static int is_space(uint32_t cp)
{
    if (cp < 0x80)
        return HX_ASCII_SPACE[cp];
    return in_sorted(HX_SPACES, HX_N_SPACES, cp);
}

/* Does cp match the lowercase ASCII letter c under re.IGNORECASE? */
static int letter_match(uint32_t cp, char c)
{
    size_t i;
    if (cp < 0x80)
        return (cp | 0x20u) == (unsigned char)c;
    for (i = 0; i < HX_N_FOLDS; i++)
        if (HX_FOLDS[i].cp == cp && HX_FOLDS[i].letter == c)
            return 1;
    return 0;
}

static int is_alpha(unsigned char c) { return (unsigned char)((c | 0x20) - 'a') < 26; }

/* ---- normalising text sink -------------------------------------------- */

/* Appends " ".join(s.split()) of everything fed to it to `buf`, with
 * `lead` written before the first character.  Of the current piece,
 * piece_chars + piece_words - 1 (0 without words) is
 * len(" ".join(piece.split())): a run of single-spaced words fed as one
 * word counts its spaces as characters instead of its gaps as words. */
typedef struct {
    hx_buf *buf;
    const char *lead;
    size_t lead_len;
    int64_t len;
    int started, pending, in_word;
    int64_t piece_chars, piece_words;
} hx_sink;

static void sink_reset(hx_sink *k, hx_buf *buf, const char *lead, size_t lead_len)
{
    memset(k, 0, sizeof *k);
    k->buf = buf;
    k->lead = lead;
    k->lead_len = lead_len;
}

/* Feed `chars` non-space code points, UTF-8 `bytes[0..n)`. */
static void sink_word(hx_sink *k, const void *bytes, size_t n, int64_t chars)
{
    if (!k->started) {
        hx_put(k->buf, k->lead, k->lead_len);
        k->started = 1;
    } else if (k->pending) {
        hx_put(k->buf, " ", 1);
        k->len++;
    }
    k->pending = 0;
    hx_put(k->buf, bytes, n);
    k->len += chars;
    k->piece_chars += chars;
    if (!k->in_word) {
        k->piece_words++;
        k->in_word = 1;
    }
}

static void sink_cp(hx_sink *k, uint32_t cp, const void *bytes, size_t n)
{
    if (is_space(cp)) {
        k->pending = k->started;
        k->in_word = 0;
        return;
    }
    sink_word(k, bytes, n, 1);
}

static void sink_utf8(hx_sink *k, const char *s, size_t n)
{
    const unsigned char *u = (const unsigned char *)s;
    size_t i = 0;
    while (i < n) {
        uint32_t cp;
        size_t l = utf8_dec(u + i, n - i, &cp);
        sink_cp(k, cp, u + i, l);
        i += l;
    }
}

/* ---- html.unescape ------------------------------------------------------ */

static const hx_entity *entity_find(const unsigned char *s, size_t n)
{
    size_t lo = 0, hi = HX_N_ENTITIES;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        const hx_entity *e = &HX_ENTITIES[mid];
        int c = memcmp(e->name, s, e->len < n ? e->len : n);
        if (c == 0)
            c = (e->len > n) - (e->len < n);
        if (c == 0)
            return e;
        if (c < 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    return NULL;
}

static void emit_numeric(hx_sink *k, uint32_t num)
{
    size_t lo = 0, hi = HX_N_INVALID_CHARREFS;
    unsigned char tmp[4];
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (HX_INVALID_CHARREFS[mid].cp == num) {
            sink_utf8(k, HX_INVALID_CHARREFS[mid].value, HX_INVALID_CHARREFS[mid].value_len);
            return;
        }
        if (HX_INVALID_CHARREFS[mid].cp < num)
            lo = mid + 1;
        else
            hi = mid;
    }
    if ((num >= 0xD800 && num <= 0xDFFF) || num > 0x10FFFF)
        num = 0xFFFD;
    else if (in_sorted(HX_INVALID_CODEPOINTS, HX_N_INVALID_CODEPOINTS, num))
        return;
    sink_cp(k, num, tmp, utf8_enc(num, tmp));
}

/* s[i] == '&'.  Decode the character reference html.unescape would
 * match at i (regex &(#[0-9]+;?|#[xX][0-9a-fA-F]+;?|[^\t\n\f <&#;]{1,32};?))
 * into the sink and return the position scanning resumes at.  Text that
 * html.unescape copies unchanged (an unmatched '&', the tail after a
 * longest-prefix entity) is left to the caller's scan: it holds no '&'. */
static size_t charref(hx_sink *k, const unsigned char *s, size_t i, size_t limit)
{
    size_t j = i + 1, r, x, ascii, count = 0;
    int all_ascii = 1;
    const hx_entity *e;

    if (j < limit && s[j] == '#') {
        size_t d = j + 1;
        uint32_t num = 0;
        int hex = 0;
        if (d + 1 < limit && (s[d] == 'x' || s[d] == 'X') && is_xdigit(s[d + 1])) {
            hex = 1;
            d++;
        } else if (!(d < limit && is_digit(s[d]))) {
            goto literal;
        }
        for (; d < limit && (hex ? is_xdigit(s[d]) : is_digit(s[d])); d++)
            if (num <= 0x10FFFF)
                num = num * (hex ? 16u : 10u) + xdigit_value(s[d]);
        if (d < limit && s[d] == ';')
            d++;
        emit_numeric(k, num);
        return d;
    }

    /* named: up to 32 code points, then an optional ';' */
    r = j;
    ascii = 0;
    while (r < limit && count < 32) {
        uint32_t cp;
        size_t l = utf8_dec(s + r, limit - r, &cp);
        if (cp == '\t' || cp == '\n' || cp == '\f' || cp == ' ' || cp == '<' || cp == '&' ||
            cp == '#' || cp == ';')
            break;
        if (cp >= 0x80)
            all_ascii = 0;
        if (all_ascii)
            ascii++;
        r += l;
        count++;
    }
    if (count == 0)
        goto literal;
    if (r < limit && s[r] == ';') {
        r++;
        count++;
        if (all_ascii)
            ascii++;
    }
    /* the names are ASCII, so only the ASCII head of the match can hit */
    if (all_ascii && (e = entity_find(s + j, r - j)) != NULL) {
        sink_utf8(k, e->value, e->value_len);
        return r;
    }
    for (x = (count - 1 < ascii ? count - 1 : ascii); x >= 2; x--) {
        if ((e = entity_find(s + j, x)) != NULL) {
            sink_utf8(k, e->value, e->value_len);
            return j + x;
        }
    }
literal:
    sink_cp(k, '&', "&", 1);
    return i + 1;
}

/* ASCII that is neither '&' nor str.isspace: text the sink copies as it is. */
static int word_byte(unsigned char c) { return c < 0x80 && c != '&' && !HX_ASCII_SPACE[c]; }

/* The end of the run of words of word bytes, joined by one ' ' each, that
 * starts at the word byte s[i] and ends at or before b on a word byte:
 * text that " ".join(run.split()) leaves as it is.  With SSE2, 16 bytes at
 * a time (read up to n, the end of the document) pass up to the first one
 * that is '&', a control, a space or non-ASCII, not counting a space
 * followed by none of those, or up to b; the byte loop decides at every
 * byte where that stops. */
static size_t word_run(const unsigned char *s, size_t i, size_t b, size_t n)
{
    size_t l = i + 1;
#ifndef NATIVE_SSE2
    (void)n; /* only the chunks read ahead of b */
#endif
    for (;;) {
#ifdef NATIVE_SSE2
        while (n - l >= 16) {
            __m128i v = _mm_loadu_si128((const __m128i *)(s + l));
            /* signed: bytes >= 0x80 are below ' ' + 1 too; bit 16 or the
             * bit of b stops the chunk */
            unsigned odd = (unsigned)_mm_movemask_epi8(_mm_or_si128(
                               _mm_cmplt_epi8(v, _mm_set1_epi8(' ' + 1)),
                               _mm_cmpeq_epi8(v, _mm_set1_epi8('&')))) |
                           1u << (b - l < 16 ? b - l : 16);
            unsigned gap = (unsigned)_mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(' ')));
            unsigned k;
            odd &= ~(gap & ~(odd >> 1)); /* a space passes before a passing byte */
            k = (unsigned)__builtin_ctz(odd);
            l += k;
            if (k < 16)
                break;
        }
#endif
        if (l < b && word_byte(s[l]))
            l++;
        else if (b - l >= 2 && s[l] == ' ' && word_byte(s[l + 1]))
            l += 2;
        else
            return l;
    }
}

/* Feed html.unescape(s[a..b)) to the sink as one piece; s[b..n) may be
 * read. */
static void emit_text(hx_sink *k, const unsigned char *s, size_t a, size_t b, size_t n)
{
    size_t i = a;
    k->piece_chars = k->piece_words = 0;
    k->in_word = 0;
    while (i < b) {
        uint32_t cp;
        size_t l;
        if (s[i] == '&') {
            i = charref(k, s, i, b);
            continue;
        }
        if (word_byte(s[i])) { /* a run of ASCII words, in one copy */
            l = word_run(s, i, b, n);
            sink_word(k, s + i, l - i, (int64_t)(l - i));
            i = l;
            continue;
        }
        l = utf8_dec(s + i, b - i, &cp);
        sink_cp(k, cp, s + i, l);
        i += l;
    }
}

/* ---- extractor state ----------------------------------------------------- */

typedef struct {
    const unsigned char *s;
    size_t n;
    int64_t min_len, max_link_pct;
    hx_buf *out, *title;
    hx_buf value; /* an attribute value with its character references decoded */
    hx_sink blk, ttl;
    size_t blk_start;
    int64_t n_kept, link_chars, skip, boiler, link;
    int cur_boiler;
    int *stack;
    size_t depth, stack_cap;
    int oom;
} hx_state;

/* ---- tokenizer ------------------------------------------------------------ */

static int has_at(const unsigned char *s, size_t i, size_t n, const char *lit)
{
    size_t len = strlen(lit);
    return len <= n - i && memcmp(s + i, lit, len) == 0;
}

/* What ends a tag name (space, '/', '>'), an attribute name (those and
 * '=') and an unquoted attribute value (space, '>').  CR is space here:
 * WHATWG's input preprocessing turns it into LF. */
#define HX_T_SPACE 1u
#define HX_T_SLASH 2u
#define HX_T_GT 4u
#define HX_T_EQ 8u
static const unsigned char HX_TAGCH[256] = {
    ['\t'] = HX_T_SPACE, ['\n'] = HX_T_SPACE, ['\f'] = HX_T_SPACE, ['\r'] = HX_T_SPACE,
    [' '] = HX_T_SPACE, ['/'] = HX_T_SLASH, ['>'] = HX_T_GT, ['='] = HX_T_EQ,
};

/* The first position at or after `i` whose HX_TAGCH bits meet `stop`, or n. */
static size_t span(const unsigned char *s, size_t i, size_t n, unsigned stop)
{
    while (i < n && !(HX_TAGCH[s[i]] & stop))
        i++;
    return i;
}

static size_t skip_tag_space(const unsigned char *s, size_t i, size_t n)
{
    while (i < n && (HX_TAGCH[s[i]] & HX_T_SPACE))
        i++;
    return i;
}

/* After the first '>' at or after `from`, or n: the end of a bogus
 * comment or a doctype. */
static size_t gt_end(const unsigned char *s, size_t from, size_t n)
{
    const unsigned char *q = from < n ? memchr(s + from, '>', n - from) : NULL;
    return q ? (size_t)(q - s) + 1 : n;
}

/* The end of a comment whose "<!--" ends at `from`: after the first "-->"
 * or "--!>", at once for "<!-->" and "<!--->", or n. */
static size_t comment_end(const unsigned char *s, size_t from, size_t n)
{
    size_t p = from;
    if (p < n && s[p] == '>')
        return p + 1;
    if (p + 1 < n && s[p] == '-' && s[p + 1] == '>')
        return p + 2;
    while (p + 2 < n) {
        const unsigned char *q = memchr(s + p, '-', n - p - 2);
        size_t j;
        if (!q)
            break;
        j = (size_t)(q - s);
        if (s[j + 1] == '-' && (s[j + 2] == '>' || (s[j + 2] == '!' && j + 3 < n && s[j + 3] == '>')))
            return j + 3 + (s[j + 2] == '!');
        p = j + 1;
    }
    return n;
}

/* The start of the first "</" + `name` (ASCII case-insensitive) followed by
 * space, '/' or '>' at or after `from`, or n: the end of a raw-text
 * element's content. */
static size_t find_close(const unsigned char *s, size_t from, size_t n, const char *name, size_t len)
{
    size_t p = from;
    while (p < n) {
        const unsigned char *q = memchr(s + p, '<', n - p);
        size_t i, k;
        if (!q)
            break;
        i = (size_t)(q - s);
        if (n - i > len + 2 && s[i + 1] == '/') {
            for (k = 0; k < len && (s[i + 2 + k] | 0x20) == (unsigned char)name[k]; k++)
                ;
            if (k == len && (HX_TAGCH[s[i + 2 + len]] & (HX_T_SPACE | HX_T_SLASH | HX_T_GT)))
                return i;
        }
        p = i + 1;
    }
    return n;
}

/* _BOILER_ATTR.search(value): some piece between [\s_-] delimiters is a
 * boiler word under re.IGNORECASE. */
static int boiler_value(const unsigned char *s, size_t a, size_t b)
{
    uint32_t seg[HX_BOILER_WORD_MAX];
    size_t i = a, len = 0, w, c;
    int too_long = 0;
    for (;;) {
        uint32_t cp = ' ';
        size_t l = 0;
        if (i < b)
            l = utf8_dec(s + i, b - i, &cp);
        if (i >= b || is_space(cp) || cp == '_' || cp == '-') {
            if (!too_long && len)
                for (w = 0; w < HX_N_BOILER_WORDS; w++) {
                    const char *word = HX_BOILER_WORDS[w];
                    if (strlen(word) != len)
                        continue;
                    for (c = 0; c < len && letter_match(seg[c], word[c]); c++)
                        ;
                    if (c == len)
                        return 1;
                }
            if (i >= b)
                return 0;
            len = 0;
            too_long = 0;
        } else if (len < HX_BOILER_WORD_MAX) {
            seg[len++] = cp;
        } else {
            too_long = 1;
        }
        i += l;
    }
}

/* boiler_value of the attribute value s[a..b) with its character
 * references decoded.  The decoded value goes through a sink, which
 * collapses and trims spaces: that cannot change a [\s_-]-delimited match. */
static int boiler_attr(hx_state *st, size_t a, size_t b)
{
    hx_sink k;
    if (!memchr(st->s + a, '&', b - a))
        return boiler_value(st->s, a, b);
    st->value.len = 0;
    sink_reset(&k, &st->value, "", 0);
    emit_text(&k, st->s, a, b, st->n);
    if (st->value.oom) {
        st->oom = 1;
        return 0;
    }
    return boiler_value((const unsigned char *)st->value.p, 0, st->value.len);
}

/* 1, 2 or 4 when the attribute name s[a..b) is id, class or role in any
 * ASCII case, else 0. */
static unsigned attr_kind(const unsigned char *s, size_t a, size_t b)
{
    static const char *const names[] = {"id", "class", "role"};
    unsigned k = b - a == 2 ? 0 : b - a == 5 ? 1 : b - a == 4 ? 2 : 3;
    size_t i;
    if (k == 3)
        return 0;
    for (i = 0; i < b - a; i++)
        if ((s[a + i] | 0x20) != (unsigned char)names[k][i])
            return 0;
    return 1u << k;
}

/* The attribute states from `i`, just past a tag name: the position after
 * the tag's '>', or SIZE_MAX at EOF (eof-in-tag).  With `want`, *boiler
 * says whether an id, class or role attribute has a boilerplate value; a
 * repeated attribute is dropped, so the first of each name decides. */
static size_t scan_attrs(hx_state *st, size_t i, int want, int *self_closing, int *boiler)
{
    const unsigned char *s = st->s;
    size_t n = st->n;
    unsigned seen = 0, kind;
    *self_closing = *boiler = 0;
    for (;;) {
        size_t ns, ne, vs, ve;
        /* before attribute name: a '/' not before '>' is dropped */
        while (i < n && ((HX_TAGCH[s[i]] & HX_T_SPACE) || (s[i] == '/' && !(i + 1 < n && s[i + 1] == '>'))))
            i++;
        if (i >= n)
            return SIZE_MAX;
        if (s[i] == '>')
            return i + 1;
        if (s[i] == '/') {
            *self_closing = 1;
            return i + 2;
        }
        ns = i; /* the name's first character may be '=' */
        ne = i = span(s, i + 1, n, HX_T_SPACE | HX_T_SLASH | HX_T_GT | HX_T_EQ);
        vs = ve = i = skip_tag_space(s, i, n);
        if (i < n && s[i] == '=') {
            i = skip_tag_space(s, i + 1, n);
            if (i < n && (s[i] == '"' || s[i] == '\'')) {
                const unsigned char *q = memchr(s + i + 1, s[i], n - i - 1);
                if (!q)
                    return SIZE_MAX;
                vs = i + 1;
                ve = (size_t)(q - s);
                i = ve + 1;
            } else {
                vs = i;
                ve = i = span(s, i, n, HX_T_SPACE | HX_T_GT);
            }
        }
        if (want && !*boiler && (kind = attr_kind(s, ns, ne) & ~seen) != 0) {
            seen |= kind;
            *boiler = boiler_attr(st, vs, ve);
        }
    }
}

/* HX_TAGS by tag_hash of the name, with linear probing: 1 + the index in
 * HX_TAGS, or 0 for an empty slot.  Built when the library loads. */
#define HX_TAG_SLOTS 128u
_Static_assert(HX_N_TAGS < HX_TAG_SLOTS / 2, "the tag table stays at most half full");
static unsigned char hx_tag_slot[HX_TAG_SLOTS];

static unsigned char lower(unsigned char c) { return c >= 'A' && c <= 'Z' ? c | 0x20 : c; }

/* A hash of the tag name whose lowercase first and last characters are
 * `first` and `last`. */
static unsigned tag_hash(unsigned char first, unsigned char last, size_t len)
{
    return (first * 7u + last * 3u + (unsigned)len * 5u) & (HX_TAG_SLOTS - 1);
}

__attribute__((constructor)) static void hx_tags_init(void)
{
    unsigned t, h;
    for (t = 0; t < HX_N_TAGS; t++) {
        const hx_tag *tag = &HX_TAGS[t];
        for (h = tag_hash((unsigned char)tag->name[0], (unsigned char)tag->name[tag->len - 1], tag->len);
             hx_tag_slot[h]; h = (h + 1) & (HX_TAG_SLOTS - 1))
            ;
        hx_tag_slot[h] = (unsigned char)(t + 1);
    }
}

/* The tag named s[a..a+len) in any ASCII case: its flags and index in
 * HX_TAGS, or 0.  A name starts with an ASCII letter (next_tag). */
static unsigned tag_lookup(const unsigned char *s, size_t a, size_t len, int *id)
{
    size_t i;
    unsigned h, slot;
    if (len > HX_TAG_MAX)
        return 0;
    for (h = tag_hash(lower(s[a]), lower(s[a + len - 1]), len); (slot = hx_tag_slot[h]) != 0;
         h = (h + 1) & (HX_TAG_SLOTS - 1)) {
        const hx_tag *t = &HX_TAGS[slot - 1];
        if (t->len != len)
            continue;
        for (i = 0; i < len && (unsigned char)t->name[i] == lower(s[a + i]); i++)
            ;
        if (i == len) {
            *id = (int)(slot - 1);
            return t->flags;
        }
    }
    return 0;
}

/* One piece of markup: s[start..end), end n at EOF.  `tag` is 0 for
 * anything dropped (a comment, a bogus comment, a doctype, "</>", a tag
 * cut off by EOF). */
typedef struct {
    size_t start, end;
    unsigned flags; /* tag_lookup's */
    int tag, id, closer, self_closing, boiler;
} hx_tok;

/* The first piece of markup at or after `from`, or 0 when the rest is text
 * ('<' before anything but an ASCII letter, '!', '?' or '/', and "</" at
 * EOF, are text). */
static int next_tag(hx_state *st, size_t from, hx_tok *t)
{
    const unsigned char *s = st->s;
    size_t n = st->n, p = from;
    while (p < n) {
        const unsigned char *q = memchr(s + p, '<', n - p);
        size_t i, k, name;
        int want;
        if (!q)
            return 0;
        i = (size_t)(q - s);
        t->start = i;
        t->tag = 0;
        if (i + 1 < n && (s[i + 1] == '!' || s[i + 1] == '?')) {
            t->end = has_at(s, i + 1, n, "!--") ? comment_end(s, i + 4, n) : gt_end(s, i + 2, n);
            return 1;
        }
        t->closer = i + 1 < n && s[i + 1] == '/';
        k = i + 1 + (size_t)t->closer;
        if (k < n && is_alpha(s[k])) {
            name = k;
            k = span(s, k, n, HX_T_SPACE | HX_T_SLASH | HX_T_GT);
            t->id = -1;
            t->flags = tag_lookup(s, name, k - name, &t->id);
            want = !t->closer && !st->skip && !(t->flags & (HX_VOID | HX_TITLE | HX_SKIP));
            t->end = scan_attrs(st, k, want, &t->self_closing, &t->boiler);
            t->tag = t->end != SIZE_MAX;
            if (!t->tag)
                t->end = n;
            return 1;
        }
        if (t->closer && k < n) {
            t->end = s[k] == '>' ? k + 1 : gt_end(s, k, n);
            return 1;
        }
        p = i + 1;
    }
    return 0;
}

/* ---- classifier ------------------------------------------------------------ */

static void block_begin(hx_state *st)
{
    st->blk_start = st->out->len;
    sink_reset(&st->blk, st->out, "\n\n", st->n_kept ? 2 : 0);
    st->link_chars = 0;
}

static void flush(hx_state *st)
{
    int64_t tl = st->blk.len;
    if (tl > 0 && !st->cur_boiler && tl >= st->min_len &&
        (__int128)st->link_chars * 100 <= (__int128)tl * st->max_link_pct)
        st->n_kept++;
    else if (!st->out->oom)
        st->out->len = st->blk_start;
    block_begin(st);
}

/* One run of text (between two pieces of markup) joins the block. */
static void emit_data(hx_state *st, size_t a, size_t b)
{
    if (a >= b || st->skip)
        return;
    emit_text(&st->blk, st->s, a, b, st->n);
    if (st->link)
        st->link_chars += st->blk.piece_chars + (st->blk.piece_words ? st->blk.piece_words - 1 : 0);
}

static void push_boiler(hx_state *st, int id)
{
    if (st->depth == st->stack_cap) {
        size_t cap = st->stack_cap ? st->stack_cap * 2 : 16;
        int *p = cap < SIZE_MAX / sizeof *p ? realloc(st->stack, cap * sizeof *p) : NULL;
        if (!p) {
            st->oom = 1;
            return;
        }
        st->stack = p;
        st->stack_cap = cap;
    }
    st->stack[st->depth++] = id;
}

static void end_tag(hx_state *st, unsigned f, int id)
{
    if (f & HX_TITLE)
        return;
    if (f & HX_SKIP) {
        if (st->skip)
            st->skip--;
        return;
    }
    if (st->skip)
        return;
    if ((f & HX_A) && st->link)
        st->link--;
    if (f & HX_BLOCK) {
        flush(st);
        if ((f & HX_BOILER) && st->boiler)
            st->boiler--;
        if (st->depth && st->stack[st->depth - 1] == id)
            st->depth--;
        st->cur_boiler = st->boiler > 0 || st->depth > 0;
    }
}

static void start_tag(hx_state *st, unsigned f, int id, int boiler)
{
    if (f & HX_TITLE)
        return;
    if (f & HX_SKIP) {
        st->skip++;
        return;
    }
    if (st->skip)
        return;
    if (f & HX_A)
        st->link++;
    if (f & HX_BLOCK) {
        flush(st);
        if (f & HX_BOILER)
            st->boiler++;
        if (boiler)
            push_boiler(st, id);
        st->cur_boiler = st->boiler > 0 || st->depth > 0;
    } else if (boiler) {
        st->cur_boiler = 1;
    }
}

int64_t hx_append(const char *doc, size_t n, int64_t min_len, int64_t max_link_pct, hx_buf *text,
                  hx_buf *title)
{
    hx_state st;
    size_t pos = 0;

    memset(&st, 0, sizeof st);
    st.s = (const unsigned char *)doc;
    st.n = doc ? n : 0;
    st.min_len = min_len;
    st.max_link_pct = max_link_pct;
    st.out = text;
    st.title = title;
    hx_reserve(text, st.n / 2 + 16);
    block_begin(&st);
    sink_reset(&st.ttl, title, "", 0);

    while (pos < st.n) {
        hx_tok t;
        unsigned f;
        if (!next_tag(&st, pos, &t)) {
            emit_data(&st, pos, st.n);
            break;
        }
        emit_data(&st, pos, t.start);
        pos = t.end;
        if (!t.tag)
            continue;
        f = t.flags;
        if (t.closer) {
            if (f)
                end_tag(&st, f, t.id);
            continue;
        }
        if (f & HX_VOID) {
            if ((f & HX_BR) && !st.skip)
                sink_cp(&st.blk, ' ', " ", 1);
            continue;
        }
        if (f || t.boiler)
            start_tag(&st, f, t.id, t.boiler);
        if (f & HX_RAWTEXT) {
            /* the content runs to the element's end tag, the next piece of
             * markup; a self-closing flag does not stop it */
            size_t cs = find_close(st.s, pos, st.n, HX_TAGS[t.id].name, HX_TAGS[t.id].len);
            if (f & HX_TITLE)
                emit_text(&st.ttl, st.s, pos, cs, st.n);
            pos = cs;
        } else if (t.self_closing) {
            end_tag(&st, f, t.id);
        }
    }
    flush(&st);

    free(st.stack);
    free(st.value.p);
    return st.oom || text->oom || title->oom ? -1 : st.n_kept;
}

int hx_blank(const char *s, size_t n)
{
    const unsigned char *u = (const unsigned char *)s;
    size_t i = 0;
    while (i < n) {
        uint32_t cp;
        size_t l = utf8_dec(u + i, n - i, &cp);
        if (!is_space(cp))
            return 0;
        i += l;
    }
    return 1;
}
