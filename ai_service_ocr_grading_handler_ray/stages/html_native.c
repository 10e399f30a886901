/* Native main-content HTML extractor.
 *
 * One pass over a UTF-8 page does what html_extract.extract_html_fused_py
 * does with regexes and Python strings: tokenize (_TAG_RE, _ATTR_HINT,
 * _ATTR_RE, raw-text and <title> close scanning, html.unescape) and
 * classify blocks (skip / boiler / link depths, the attribute-boiler
 * stack, integer min_len / max_link_pct thresholds, str.split()
 * normalisation).  Lengths are counted in code points, as len() counts
 * them, so the output is byte-identical to the Python engine.
 *
 * The function is total: any byte string is accepted, every read is
 * bounded by the input length and every write goes through a growing
 * buffer.  Input that is not valid UTF-8 (the Python caller never passes
 * any) is read one byte per code point.
 *
 * html_native_tables.h is generated by native.py from the running
 * Python: the tag sets (sorted, with the range of each first letter) and
 * boiler words of html_extract.py, the
 * html.entities.html5 table, html._invalid_charrefs and
 * html._invalid_codepoints, and the str.isspace / regex \w / IGNORECASE
 * facts of its Unicode database.
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

/* HX_ASCII bits */
#define HX_C_SPACE 1u
#define HX_C_WORD 2u

typedef struct { const char *name; unsigned char len; unsigned char flags; } hx_tag;
typedef struct { const char *name; unsigned char len; const char *value; unsigned char value_len; } hx_entity;
typedef struct { uint32_t cp; const char *value; unsigned char value_len; } hx_charref;
typedef struct { uint32_t lo, hi; } hx_range;
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

void hx_put(hx_buf *b, const void *s, size_t n)
{
    if (n && hx_reserve(b, n)) {
        memcpy(b->p + b->len, s, n);
        b->len += n;
    }
}

/* ---- Unicode ---------------------------------------------------------- */

static int is_cont(unsigned char c) { return (c & 0xC0) == 0x80; }

/* Decode one code point from s[0..avail), avail >= 1; returns its length. */
static size_t dec(const unsigned char *s, size_t avail, uint32_t *cp)
{
    unsigned char c = s[0];
    if (c < 0x80) {
        *cp = c;
        return 1;
    }
    if (c >= 0xC2 && c <= 0xDF && avail >= 2 && is_cont(s[1])) {
        *cp = ((uint32_t)(c & 0x1F) << 6) | (s[1] & 0x3Fu);
        return 2;
    }
    if (c >= 0xE0 && c <= 0xEF && avail >= 3 && is_cont(s[1]) && is_cont(s[2])) {
        *cp = ((uint32_t)(c & 0x0F) << 12) | ((uint32_t)(s[1] & 0x3F) << 6) | (s[2] & 0x3Fu);
        return 3;
    }
    if (c >= 0xF0 && c <= 0xF4 && avail >= 4 && is_cont(s[1]) && is_cont(s[2]) && is_cont(s[3])) {
        *cp = ((uint32_t)(c & 0x07) << 18) | ((uint32_t)(s[1] & 0x3F) << 12) |
              ((uint32_t)(s[2] & 0x3F) << 6) | (s[3] & 0x3Fu);
        return 4;
    }
    *cp = 0xFFFD;
    return 1;
}

static size_t enc(uint32_t cp, unsigned char *out)
{
    if (cp < 0x80) {
        out[0] = (unsigned char)cp;
        return 1;
    }
    if (cp < 0x800) {
        out[0] = (unsigned char)(0xC0 | (cp >> 6));
        out[1] = (unsigned char)(0x80 | (cp & 0x3F));
        return 2;
    }
    if (cp < 0x10000) {
        out[0] = (unsigned char)(0xE0 | (cp >> 12));
        out[1] = (unsigned char)(0x80 | ((cp >> 6) & 0x3F));
        out[2] = (unsigned char)(0x80 | (cp & 0x3F));
        return 3;
    }
    out[0] = (unsigned char)(0xF0 | (cp >> 18));
    out[1] = (unsigned char)(0x80 | ((cp >> 12) & 0x3F));
    out[2] = (unsigned char)(0x80 | ((cp >> 6) & 0x3F));
    out[3] = (unsigned char)(0x80 | (cp & 0x3F));
    return 4;
}

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
        return (HX_ASCII[cp] & HX_C_SPACE) != 0;
    return in_sorted(HX_SPACES, HX_N_SPACES, cp);
}

/* the regex \w */
static int is_word(uint32_t cp)
{
    size_t lo = 0, hi = HX_N_WORD;
    if (cp < 0x80)
        return (HX_ASCII[cp] & HX_C_WORD) != 0;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (cp < HX_WORD[mid].lo)
            hi = mid;
        else if (cp > HX_WORD[mid].hi)
            lo = mid + 1;
        else
            return 1;
    }
    return 0;
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

/* If s[i..limit) starts with `word` under re.IGNORECASE, return the
 * position after it, else 0 (a match never ends at 0). */
static size_t match_word(const unsigned char *s, size_t i, size_t limit, const char *word)
{
    for (; *word; word++) {
        uint32_t cp;
        if (i >= limit)
            return 0;
        i += dec(s + i, limit - i, &cp);
        if (!letter_match(cp, *word))
            return 0;
    }
    return i;
}

static size_t skip_space(const unsigned char *s, size_t i, size_t limit)
{
    while (i < limit) {
        uint32_t cp;
        size_t l = dec(s + i, limit - i, &cp);
        if (!is_space(cp))
            break;
        i += l;
    }
    return i;
}

static int is_alpha(unsigned char c) { return (unsigned char)((c | 0x20) - 'a') < 26; }
static int is_digit(unsigned char c) { return (unsigned char)(c - '0') < 10; }
static int is_xdigit(unsigned char c) { return is_digit(c) || (unsigned char)((c | 0x20) - 'a') < 6; }
static int is_name(unsigned char c) { return is_alpha(c) || is_digit(c) || c == ':' || c == '_' || c == '-'; }
static int is_attr_name(unsigned char c) { return is_alpha(c) || c == ':' || c == '_' || c == '-'; }

/* ---- normalising text sink -------------------------------------------- */

/* Appends " ".join(s.split()) of everything fed to it to `buf`, with
 * `lead` written before the first character.  The piece counters give
 * len(" ".join(piece.split())) of the current piece. */
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
        size_t l = dec(u + i, n - i, &cp);
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
    if ((num >= 0xD800 && num <= 0xDFFF) || num > 0x10FFFF) {
        sink_utf8(k, "\xEF\xBF\xBD", 3);
        return;
    }
    if (in_sorted(HX_INVALID_CODEPOINTS, HX_N_INVALID_CODEPOINTS, num))
        return;
    sink_cp(k, num, tmp, enc(num, tmp));
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
        for (; d < limit && (hex ? is_xdigit(s[d]) : is_digit(s[d])); d++) {
            if (num <= 0x10FFFF) {
                unsigned v = is_digit(s[d]) ? (unsigned)(s[d] - '0') : (unsigned)((s[d] | 0x20) - 'a' + 10);
                num = num * (hex ? 16u : 10u) + v;
            }
        }
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
        size_t l = dec(s + r, limit - r, &cp);
        if (cp == '\t' || cp == '\n' || cp == '\f' || cp == ' ' || cp == '<' || cp == '&' ||
            cp == '#' || cp == ';')
            break;
        if (cp >= 0x80 || l != 1)
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

/* Feed html.unescape(s[a..b)) to the sink as one piece. */
static void emit_text(hx_sink *k, const unsigned char *s, size_t a, size_t b)
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
        if (s[i] < 0x80 && !(HX_ASCII[s[i]] & HX_C_SPACE)) { /* ASCII run, in one copy */
            l = i + 1;
            while (l < b && s[l] < 0x80 && s[l] != '&' && !(HX_ASCII[s[l]] & HX_C_SPACE))
                l++;
            sink_word(k, s + i, l - i, (int64_t)(l - i));
            i = l;
            continue;
        }
        l = dec(s + i, b - i, &cp);
        sink_cp(k, cp, s + i, l);
        i += l;
    }
}

/* ---- tokenizer helpers --------------------------------------------------- */

/* First `ch` at or after `from` below `limit` (or `limit`), remembering
 * the last answer: a later search that starts inside the answered span
 * gets the same answer, which keeps unterminated quotes linear. */
typedef struct { size_t from, at; } hx_memo;

static size_t memo_find(hx_memo *m, const unsigned char *s, size_t from, size_t limit, unsigned char ch)
{
    const unsigned char *q;
    if (from >= m->from && from <= m->at)
        return m->at;
    q = memchr(s + from, ch, limit - from);
    m->from = from;
    m->at = q ? (size_t)(q - s) : limit;
    return m->at;
}

static int has_at(const unsigned char *s, size_t i, size_t n, const char *lit)
{
    size_t len = strlen(lit);
    return len <= n - i && memcmp(s + i, lit, len) == 0;
}

/* End of `<!--.*?(?:-->|$)` (pat "-->") or the CDATA twin, body at `from`. */
static size_t markup_end(const unsigned char *s, size_t from, size_t n, const char *pat)
{
    size_t p = from;
    while (p < n) {
        const unsigned char *q = memchr(s + p, pat[0], n - p);
        size_t i;
        if (!q)
            break;
        i = (size_t)(q - s);
        if (n - i >= 3 && q[1] == (unsigned char)pat[1] && q[2] == (unsigned char)pat[2])
            return i + 3;
        p = i + 1;
    }
    /* the regex's `$` can also stop before a final newline, which then
     * reads as data: whitespace at the end, invisible in the output */
    return n;
}

/* `</name\s*>` under re.IGNORECASE, from `from`. */
static int find_close(const unsigned char *s, size_t from, size_t n, const char *name, size_t *cs, size_t *ce)
{
    size_t p = from;
    while (p < n) {
        const unsigned char *q = memchr(s + p, '<', n - p);
        size_t i, j;
        if (!q)
            return 0;
        i = (size_t)(q - s);
        if (i + 1 < n && s[i + 1] == '/' && (j = match_word(s, i + 2, n, name)) != 0) {
            j = skip_space(s, j, n);
            if (j < n && s[j] == '>') {
                *cs = i;
                *ce = j + 1;
                return 1;
            }
        }
        p = i + 1;
    }
    return 0;
}

/* rawattrs.rstrip().endswith("/") */
static int ends_with_slash(const unsigned char *s, size_t a, size_t b)
{
    while (b > a) {
        size_t st = b - 1;
        uint32_t cp;
        while (st > a && is_cont(s[st]) && b - st < 4)
            st--;
        if (dec(s + st, b - st, &cp) != b - st || !is_space(cp))
            return s[b - 1] == '/';
        b = st;
    }
    return 0;
}

/* _ATTR_HINT.search: \b(?:id|class|role)\s*= under re.IGNORECASE, on a
 * span holding non-ASCII code points (some fold onto ASCII letters). */
static int attr_hint_unicode(const unsigned char *s, size_t a, size_t b)
{
    static const char *const words[] = {"id", "class", "role"};
    int prev_word = 0;
    size_t i = a, w;
    while (i < b) {
        uint32_t cp;
        size_t l = dec(s + i, b - i, &cp);
        if (!prev_word) {
            for (w = 0; w < 3; w++) {
                size_t j = match_word(s, i, b, words[w]);
                if (j) {
                    j = skip_space(s, j, b);
                    if (j < b && s[j] == '=')
                        return 1;
                }
            }
        }
        prev_word = is_word(cp);
        i += l;
    }
    return 0;
}

/* The same search on any span: on an all-ASCII one only ASCII letters
 * match and \w and \s are HX_ASCII's, so the bytes are compared as is. */
static int attr_hint(const unsigned char *s, size_t a, size_t b)
{
    size_t i, j;
    for (i = a; i < b; i++)
        if (s[i] >= 0x80)
            return attr_hint_unicode(s, a, b);
    for (i = a; i < b; i++) {
        unsigned char c = s[i] | 0x20;
        const char *word = c == 'i' ? "id" : c == 'c' ? "class" : c == 'r' ? "role" : NULL;
        if (!word || (i > a && (HX_ASCII[s[i - 1]] & HX_C_WORD)))
            continue;
        for (j = i; *word && j < b && (s[j] | 0x20) == (unsigned char)*word; j++, word++)
            ;
        if (*word)
            continue;
        while (j < b && (HX_ASCII[s[j]] & HX_C_SPACE))
            j++;
        if (j < b && s[j] == '=')
            return 1;
    }
    return 0;
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
            l = dec(s + i, b - i, &cp);
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

/* Some _ATTR_RE.finditer match over s[a..b) names id/class/role and has a
 * boiler value. */
static int attrs_boiler(const unsigned char *s, size_t a, size_t b)
{
    hx_memo dq = {SIZE_MAX, 0}, sq = {SIZE_MAX, 0};
    size_t i = a;
    while (i < b) {
        size_t ns, ne, j, vs, ve;
        if (!is_attr_name(s[i])) {
            i++;
            continue;
        }
        ns = i;
        while (i < b && is_attr_name(s[i]))
            i++;
        ne = i;
        j = skip_space(s, ne, b);
        /* no match can start inside a name that no '=' follows */
        if (j >= b || s[j] != '=')
            continue;
        j = skip_space(s, j + 1, b);
        vs = ve = j;
        if (j < b && (s[j] == '"' || s[j] == '\'')) {
            size_t q = memo_find(s[j] == '"' ? &dq : &sq, s, j + 1, b, s[j]);
            if (q < b) {
                vs = j + 1;
                ve = q;
                i = q + 1;
            }
        }
        if (vs == j) { /* unquoted: [^\s>]* */
            while (ve < b && s[ve] != '>') {
                uint32_t cp;
                size_t l = dec(s + ve, b - ve, &cp);
                if (is_space(cp))
                    break;
                ve += l;
            }
            i = ve;
        }
        if (((ne - ns == 2 && (s[ns] | 0x20) == 'i' && (s[ns + 1] | 0x20) == 'd') ||
             (ne - ns == 5 && match_word(s, ns, ne, "class") == ne) ||
             (ne - ns == 4 && match_word(s, ns, ne, "role") == ne)) &&
            ve > vs && boiler_value(s, vs, ve))
            return 1;
    }
    return 0;
}

/* The tag named s[a..a+len) in any case: its flags and index in HX_TAGS,
 * or 0.  A name starts with an ASCII letter (next_tag), whose range of
 * HX_TAGS is HX_TAG_FIRST[letter - 'a'] .. HX_TAG_FIRST[letter - 'a' + 1]. */
static unsigned tag_lookup(const unsigned char *s, size_t a, size_t len, int *id)
{
    char low[HX_TAG_MAX];
    size_t i, t, letter;
    if (len > HX_TAG_MAX)
        return 0;
    for (i = 0; i < len; i++)
        low[i] = (char)(s[a + i] >= 'A' && s[a + i] <= 'Z' ? s[a + i] | 0x20 : s[a + i]);
    letter = (size_t)(low[0] - 'a');
    for (t = HX_TAG_FIRST[letter]; t < HX_TAG_FIRST[letter + 1]; t++) {
        if (HX_TAGS[t].len == len && memcmp(HX_TAGS[t].name, low, len) == 0) {
            *id = (int)t;
            return HX_TAGS[t].flags;
        }
    }
    return 0;
}

/* ---- extractor state ----------------------------------------------------- */

typedef struct {
    const unsigned char *s;
    size_t n;
    int64_t min_len, max_link_pct;
    hx_buf *out, *title;
    hx_sink blk, ttl;
    size_t blk_start;
    int64_t n_kept, link_chars, skip, boiler, link;
    int cur_boiler;
    int *stack;
    size_t depth, stack_cap;
    int oom;
    hx_memo dq, sq;
} hx_state;

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

static void emit_data(hx_state *st, size_t a, size_t b)
{
    if (a >= b || st->skip)
        return;
    emit_text(&st->blk, st->s, a, b);
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

static void start_tag(hx_state *st, unsigned f, int id, size_t a, size_t b, int hint)
{
    int boiler_attr;
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
    boiler_attr = hint && attrs_boiler(st->s, a, b);
    if (f & HX_BLOCK) {
        flush(st);
        if (f & HX_BOILER)
            st->boiler++;
        if (boiler_attr)
            push_boiler(st, id);
        st->cur_boiler = st->boiler > 0 || st->depth > 0;
    } else if (boiler_attr) {
        st->cur_boiler = 1;
    }
}

/* One _TAG_RE.search from `from`: the match [*ms, *me).  For a tag, also
 * the name [*na, *na + *nl), the attributes [*na + *nl, *ae) and closer. */
static int next_tag(hx_state *st, size_t from, size_t *ms, size_t *me, size_t *na, size_t *nl,
                    size_t *ae, int *closer)
{
    const unsigned char *s = st->s;
    size_t n = st->n, p = from;
    while (p < n) {
        const unsigned char *q = memchr(s + p, '<', n - p);
        size_t i, k;
        if (!q)
            return 0;
        i = (size_t)(q - s);
        *ms = i;
        *nl = 0;
        if (i + 1 < n && (s[i + 1] == '!' || s[i + 1] == '?')) {
            if (has_at(s, i + 1, n, "!--")) {
                *me = markup_end(s, i + 4, n, "-->");
            } else if (has_at(s, i + 1, n, "![CDATA[")) {
                *me = markup_end(s, i + 9, n, "]]>");
            } else {
                q = memchr(s + i + 2, '>', n - i - 2);
                *me = q ? (size_t)(q - s) + 1 : n;
            }
            return 1;
        }
        k = i + 1;
        *closer = k < n && s[k] == '/';
        k += (size_t)*closer;
        if (k < n && is_alpha(s[k])) {
            *na = k;
            while (k < n && is_name(s[k]))
                k++;
            *nl = k - *na;
            while (k < n && s[k] != '>') {
                if (s[k] == '"' || s[k] == '\'') {
                    size_t e = memo_find(s[k] == '"' ? &st->dq : &st->sq, s, k + 1, n, s[k]);
                    if (e == n)
                        break;
                    k = e + 1;
                } else {
                    k++;
                }
            }
            *ae = k;
            *me = k < n && s[k] == '>' ? k + 1 : k;
            return 1;
        }
        p = i + 1;
    }
    return 0;
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
    st.dq.from = st.sq.from = SIZE_MAX;
    hx_reserve(text, st.n / 2 + 16);
    block_begin(&st);
    sink_reset(&st.ttl, title, "", 0);

    while (pos < st.n) {
        size_t ms, me, na = 0, nl, ae = 0;
        int closer = 0, id = -1, hint;
        unsigned f;
        if (!next_tag(&st, pos, &ms, &me, &na, &nl, &ae, &closer)) {
            emit_data(&st, pos, st.n);
            break;
        }
        emit_data(&st, pos, ms);
        pos = me;
        if (!nl)
            continue; /* comment / CDATA / doctype / processing instruction */
        f = tag_lookup(st.s, na, nl, &id);
        if (closer) {
            if (f)
                end_tag(&st, f, id);
            continue;
        }
        if (f & HX_VOID) {
            if ((f & HX_BR) && !st.skip)
                sink_cp(&st.blk, ' ', " ", 1);
            continue;
        }
        hint = ae > na + nl && attr_hint(st.s, na + nl, ae);
        if (f || hint)
            start_tag(&st, f, id, na + nl, ae, hint);
        if (!f)
            continue;
        if (ends_with_slash(st.s, na + nl, ae)) {
            end_tag(&st, f, id);
            continue;
        }
        if (f & HX_RAWTEXT) {
            size_t cs, ce;
            int found = find_close(st.s, pos, st.n, HX_TAGS[id].name, &cs, &ce);
            if ((f & HX_SKIP) && st.skip)
                st.skip--;
            if (!found)
                break;
            pos = ce;
        } else if (f & HX_TITLE) {
            size_t cs = st.n, ce = st.n;
            find_close(st.s, pos, st.n, "title", &cs, &ce);
            emit_text(&st.ttl, st.s, pos, cs);
            pos = ce;
        }
    }
    flush(&st);

    free(st.stack);
    return st.oom || text->oom || title->oom ? -1 : st.n_kept;
}

int hx_extract(const char *doc, size_t n, int64_t min_len, int64_t max_link_pct, hx_result *res)
{
    hx_buf text = {NULL, 0, 0, 0}, title = {NULL, 0, 0, 0};
    int64_t kept;

    hx_reserve(&title, 16);
    kept = hx_append(doc, n, min_len, max_link_pct, &text, &title);
    res->text = text.p;
    res->text_len = text.len;
    res->title = title.p;
    res->title_len = title.len;
    res->n_kept = kept < 0 ? 0 : kept;
    return kept < 0 ? -1 : 0;
}

int hx_blank(const char *s, size_t n)
{
    const unsigned char *u = (const unsigned char *)s;
    size_t i = 0;
    while (i < n) {
        uint32_t cp;
        size_t l = dec(u + i, n - i, &cp);
        if (!is_space(cp))
            return 0;
        i += l;
    }
    return 1;
}

void hx_free(hx_result *res)
{
    free(res->text);
    free(res->title);
    res->text = res->title = NULL;
    res->text_len = res->title_len = 0;
}
