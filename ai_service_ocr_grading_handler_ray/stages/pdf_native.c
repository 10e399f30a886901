/* Native PDF-glyph page kernel.
 *
 * One call goes from the glyph-JSON body of a synthetic PDF payload to the
 * page's reading-order text: a strict JSON-subset decoder, an iterative
 * XY-cut, then line assembly.  The output is byte-identical to its oracle,
 * payloads.decode_pdf_glyphs followed by pdf_layout.parse_pdf_layout.
 * Only xb_extract (extract_native.c) calls it.
 *
 * The decoder accepts only [[int,int,int,int,"str"],...]: JSON whitespace,
 * integers in [0, 2^30) without sign, fraction or exponent, valid UTF-8,
 * the standard escapes with \uXXXX surrogate pairs combined.  Anything
 * else (floats, bools, negatives, big ints, other arities or types, lone
 * surrogates, raw control characters, ill-formed UTF-8 by native.h's
 * utf8_len, trailing data) is declined:
 * xb_extract flags the row, and the caller runs the Python decoder and
 * layout on it instead.  Coordinates below 2^30 keep every end (x + w,
 * y + h) within int32, and non-negative boxes make both sides of every
 * cut non-empty.
 *
 * Fast path: read_compact_glyph decodes the form payloads.encode_pdf_glyphs
 * writes for text that needs no escape, [x,y,w,h,"text"], in one pass and
 * leaves any other glyph, from its first byte, to the strict reader.  The
 * decoder's and the layout's memory is a px_scratch that xb_extract reuses
 * from row to row, and the text goes straight into the batch's buffer.
 *
 * The layout follows pdf_layout.py rule for rule.  The page is sorted once
 * by (y, x) and once by (x, y), both stably (LSD radix, linear in n); a
 * node of the cut tree is a range of both orders holding the same glyphs.
 * Sweeping an order by start gives the node's projection gaps on that axis
 * (ties of start do not change them).  A cut splits the order of its own
 * axis at the gap and partitions the other order stably, so every node's
 * orders stay sorted.  Nodes wait on an explicit stack, right below left,
 * so leaves come out in pre-order.  Each node costs O(its size): O(n) per
 * level of the cut tree.  A run of equal gaps, which the one-at-a-time
 * cuts would take as a chain n levels deep (n single-glyph lines with
 * equal gaps of at least PX_MIN_GAP_Y need n cuts), is cut in one pass
 * when a bound shows the other axis cannot win in between (cut_node).
 * The worst case remains O(n^2): a chain of cuts that the bound cannot
 * batch, such as one-glyph lines alternating between two x positions
 * whose x gap ties the y gap.
 *
 * pdf_native_tables.h is generated by native.py from pdf_layout.py's
 * MIN_GAP_X, MIN_GAP_Y and LINE_SLACK.
 */

#include <stdlib.h>
#include <string.h>

#include "native.h"
#include "pdf_native_tables.h"

#define PX_COORD_LIMIT ((int64_t)1 << 30)

typedef struct {
    int32_t x, y, w, h;
    uint32_t off, len; /* the glyph's text: chars[off .. off + len) */
} px_glyph;

/* ---- strict JSON-subset decoder ------------------------------------------ */

typedef struct {
    const unsigned char *s;
    size_t n, i;
    hx_buf *glyphs; /* px_glyph records */
    hx_buf *chars;  /* decoded UTF-8 of every glyph's text, room for n bytes */
} px_dec;

static void skip_ws(px_dec *d)
{
    while (d->i < d->n) {
        unsigned char c = d->s[d->i];
        if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
            return;
        d->i++;
    }
}

static int eat(px_dec *d, unsigned char c)
{
    skip_ws(d);
    if (d->i < d->n && d->s[d->i] == c) {
        d->i++;
        return 1;
    }
    return 0;
}

static int read_int(px_dec *d, int32_t *out)
{
    int64_t v = 0;
    skip_ws(d);
    if (d->i >= d->n || !is_digit(d->s[d->i]))
        return 0; /* also '-': negatives are declined */
    if (d->s[d->i] == '0') {
        d->i++;
    } else {
        while (d->i < d->n && is_digit(d->s[d->i])) {
            v = v * 10 + (d->s[d->i++] - '0');
            if (v >= PX_COORD_LIMIT)
                return 0;
        }
    }
    if (d->i < d->n) {
        unsigned char c = d->s[d->i];
        if (is_digit(c) || c == '.' || c == 'e' || c == 'E')
            return 0;
    }
    *out = (int32_t)v;
    return 1;
}

static int hex4(px_dec *d, uint32_t *cp)
{
    uint32_t v = 0;
    size_t k;
    if (d->n - d->i < 4)
        return 0;
    for (k = 0; k < 4; k++) {
        unsigned char c = d->s[d->i + k];
        if (!is_xdigit(c))
            return 0;
        v = v * 16 + xdigit_value(c);
    }
    d->i += 4;
    *cp = v;
    return 1;
}

/* A JSON string into d->chars.  A string's decoded length never exceeds
 * its length in the body, so the room decode reserved suffices. */
static int read_str(px_dec *d, uint32_t *off, uint32_t *len)
{
    char *o;
    size_t k;
    skip_ws(d);
    if (d->i >= d->n || d->s[d->i] != '"')
        return 0;
    d->i++;
    o = d->chars->p;
    k = d->chars->len;
    while (d->i < d->n) {
        unsigned char c = d->s[d->i];
        if (c == '"') {
            d->i++;
            *off = (uint32_t)d->chars->len;
            *len = (uint32_t)(k - d->chars->len);
            d->chars->len = k;
            return 1;
        }
        if (c < 0x20)
            return 0;
        if (c == '\\') {
            uint32_t cp, lo;
            if (d->n - d->i < 2)
                return 0;
            c = d->s[d->i + 1];
            d->i += 2;
            switch (c) {
            case '"': case '\\': case '/': o[k++] = (char)c; continue;
            case 'b': o[k++] = '\b'; continue;
            case 'f': o[k++] = '\f'; continue;
            case 'n': o[k++] = '\n'; continue;
            case 'r': o[k++] = '\r'; continue;
            case 't': o[k++] = '\t'; continue;
            case 'u': break;
            default: return 0;
            }
            if (!hex4(d, &cp))
                return 0;
            if (cp >= 0xDC00 && cp <= 0xDFFF)
                return 0;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
                if (d->n - d->i < 2 || d->s[d->i] != '\\' || d->s[d->i + 1] != 'u')
                    return 0;
                d->i += 2;
                if (!hex4(d, &lo) || lo < 0xDC00 || lo > 0xDFFF)
                    return 0;
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            }
            k += utf8_enc(cp, (unsigned char *)o + k);
        } else {
            size_t m = utf8_len(d->s + d->i, d->n - d->i);
            if (!m)
                return 0;
            memcpy(o + k, d->s + d->i, m);
            k += m;
            d->i += m;
        }
    }
    return 0;
}

/* The glyph at d->i when it has the compact form payloads.encode_pdf_glyphs
 * writes for text that needs no escape, [x,y,w,h,"text"]: no whitespace,
 * coordinates of one to nine digits without a leading zero (so below
 * 2^30), and ASCII text without '"', '\\' or controls below 0x20.  The
 * strict reader reads such a glyph the same way; anything else is left to
 * it, with d->i where it was.  A compact glyph's coordinates end within
 * its first 42 bytes, so they are read without bounds checks when that
 * many remain. */
static int read_compact_glyph(px_dec *d, px_glyph *g)
{
    const unsigned char *s = d->s + d->i;
    size_t room = d->n - d->i, i = 1, j, a;
    int32_t v[4];
    unsigned f;
    if (room < 42 || s[0] != '[')
        return 0;
    for (f = 0; f < 4; f++) {
        int32_t x = 0;
        for (j = i; i - j < 10 && is_digit(s[i]); i++)
            x = x * 10 + (s[i] - '0');
        if (i == j || i - j == 10 || (s[j] == '0' && i - j > 1) || s[i] != ',')
            return 0;
        v[f] = x;
        i++;
    }
    if (s[i] != '"')
        return 0;
    for (a = ++i; i < room && s[i] >= 0x20 && s[i] < 0x80 && s[i] != '"' && s[i] != '\\'; i++)
        ;
    if (room - i < 2 || s[i] != '"' || s[i + 1] != ']')
        return 0;
    g->x = v[0];
    g->y = v[1];
    g->w = v[2];
    g->h = v[3];
    g->off = (uint32_t)d->chars->len;
    g->len = (uint32_t)(i - a);
    if (i - a == 1)
        d->chars->p[d->chars->len] = (char)s[a];
    else
        memcpy(d->chars->p + d->chars->len, s + a, i - a);
    d->chars->len += i - a;
    d->i += i + 2;
    return 1;
}

static int read_glyph(px_dec *d)
{
    px_glyph g;
    if (!read_compact_glyph(d, &g) &&
        (!eat(d, '[') || !read_int(d, &g.x) || !eat(d, ',') || !read_int(d, &g.y) || !eat(d, ',') ||
         !read_int(d, &g.w) || !eat(d, ',') || !read_int(d, &g.h) || !eat(d, ',') ||
         !read_str(d, &g.off, &g.len) || !eat(d, ']')))
        return 0;
    hx_put(d->glyphs, &g, sizeof g);
    return !d->glyphs->oom;
}

static int decode(px_dec *d)
{
    if (!hx_reserve(d->chars, d->n) || !eat(d, '['))
        return 0;
    if (!eat(d, ']')) {
        do {
            if (!read_glyph(d))
                return 0;
        } while (eat(d, ','));
        if (!eat(d, ']'))
            return 0;
    }
    skip_ws(d);
    return d->i == d->n;
}

/* ---- layout ---------------------------------------------------------------- */

/* A glyph's interval on one axis, kept inline so that sweeps read memory
 * in order. */
typedef struct { int32_t s, e; uint32_t id; } px_span;

static unsigned bit_length(uint32_t v)
{
    unsigned b = 0;
    for (; v; v >>= 1)
        b++;
    return b;
}

/* One stable counting-sort pass of src into dst by the `digit` bits of
 * field s or e (`of_s`) from `shift` up; count has 2^digit slots. */
static void radix_pass(const px_span *src, px_span *dst, size_t n, int of_s, unsigned shift,
                       unsigned digit, uint32_t *count)
{
    uint32_t mask = (1u << digit) - 1, sum = 0, c;
    size_t i;
    memset(count, 0, ((size_t)mask + 1) * sizeof *count);
    for (i = 0; i < n; i++)
        count[((uint32_t)(of_s ? src[i].s : src[i].e) >> shift) & mask]++;
    for (i = 0; i <= mask; i++) {
        c = count[i];
        count[i] = sum;
        sum += c;
    }
    for (i = 0; i < n; i++)
        dst[count[((uint32_t)(of_s ? src[i].s : src[i].e) >> shift) & mask]++] = src[i];
}

/* Stable LSD radix sort of a by s, then e among equal s (s < 2^s_bits,
 * e < 2^e_bits; e_bits = 0 sorts by s alone), at most `digit` bits per
 * pass, the bits of a field split evenly over its passes. */
static void sort_spans(px_span *a, px_span *tmp, size_t n, unsigned s_bits, unsigned e_bits,
                       unsigned digit, uint32_t *count)
{
    px_span *src = a, *dst = tmp, *swap;
    unsigned of_s, shift, bits, width;
    for (of_s = 0; of_s < 2; of_s++) {
        bits = of_s ? s_bits : e_bits;
        width = bits ? (bits + (bits + digit - 1) / digit - 1) / ((bits + digit - 1) / digit) : 1;
        for (shift = 0; shift < bits; shift += width) {
            radix_pass(src, dst, n, (int)of_s, shift, bits - shift < width ? bits - shift : width,
                       count);
            swap = src;
            src = dst;
            dst = swap;
        }
    }
    if (src != a)
        memcpy(a, src, n * sizeof *a);
}

typedef struct { int32_t size; size_t at; } px_gap;

/* Largest gap of the intervals o[lo..hi) (sorted by start); the earliest
 * wins a tie.  at = first index past the gap. */
static px_gap best_gap(const px_span *o, size_t lo, size_t hi)
{
    px_gap best = {0, 0};
    int32_t cur_end = o[lo].e;
    size_t k;
    for (k = lo + 1; k < hi; k++) {
        if (o[k].s > cur_end && o[k].s - cur_end > best.size) {
            best.size = o[k].s - cur_end;
            best.at = k;
        }
        if (o[k].e > cur_end)
            cur_end = o[k].e;
    }
    return best;
}

typedef struct {
    const px_glyph *g;
    const char *chars;
    px_span *by_y, *by_x, *tmp; /* the two orders */
    uint32_t *line_of, *line_start, *line_order;
    /* cuts: gap positions, piece of each glyph, per-piece sweep state */
    uint32_t *cuts, *piece_of, *p_n;
    int32_t *p_min, *p_end, *p_gap, *p_bound;
    char *out;
    size_t out_len;
    int64_t n_blocks;
} px_layout;

/* Append one leaf's text: lines split where y steps by more than
 * PX_LINE_SLACK in (y, x) order, each line in (x, y) order, a space where
 * the x gap exceeds half the glyph width; "\n\n" between non-empty
 * blocks. */
static void emit_block(px_layout *L, size_t lo, size_t hi)
{
    const px_glyph *g = L->g;
    size_t k, line, n_lines = 1, mark = L->out_len, body;
    L->line_of[L->by_y[lo].id] = 0;
    for (k = lo + 1; k < hi; k++) {
        if ((int64_t)L->by_y[k].s - L->by_y[k - 1].s > PX_LINE_SLACK)
            n_lines++;
        L->line_of[L->by_y[k].id] = (uint32_t)(n_lines - 1);
    }
    /* counting sort of the (x, y) order by line keeps it stable */
    memset(L->line_start, 0, (n_lines + 1) * sizeof *L->line_start);
    for (k = lo; k < hi; k++)
        L->line_start[L->line_of[L->by_x[k].id] + 1]++;
    for (line = 0; line < n_lines; line++)
        L->line_start[line + 1] += L->line_start[line];
    for (k = lo; k < hi; k++)
        L->line_order[L->line_start[L->line_of[L->by_x[k].id]]++] = L->by_x[k].id;

    if (L->n_blocks) {
        memcpy(L->out + L->out_len, "\n\n", 2);
        L->out_len += 2;
    }
    body = L->out_len;
    for (line = 0, k = 0; line < n_lines; line++) {
        size_t end = L->line_start[line]; /* now one past the line's last glyph */
        int64_t prev_end = 0;
        int first = 1;
        if (line)
            L->out[L->out_len++] = '\n';
        for (; k < end; k++) {
            const px_glyph *q = &g[L->line_order[k]];
            if (!first && q->x - prev_end > q->w / 2)
                L->out[L->out_len++] = ' ';
            if (q->len == 1)
                L->out[L->out_len] = L->chars[q->off];
            else
                memcpy(L->out + L->out_len, L->chars + q->off, q->len);
            L->out_len += q->len;
            prev_end = (int64_t)q->x + q->w;
            first = 0;
        }
    }
    if (L->out_len == body)
        L->out_len = mark; /* an empty block is dropped */
    else
        L->n_blocks++;
}

/* Cut the node [lo, hi) at its best gap on the axis of order `cut` (the
 * other order is `other`), and at once at every later gap of the same
 * size the one-at-a-time cuts would also take.  Returns the number of
 * cuts m; the parts are [lo, cuts[0]), [cuts[0], cuts[1]), ...,
 * [cuts[m-1], hi).
 *
 * After cuts 1..i the rest R_i is cut at the next equal gap unless its
 * gaps on the other axis win.  Each piece P between equal gaps that lies
 * in R_i bounds them: a gap of R_i is uncovered by P and lies in the
 * node's span, so it is at most P's largest gap or P's distance from an
 * edge of the node's span.  The batch goes on while the smallest such
 * bound over R_i's pieces cannot win; a run of equal gaps (paragraphs,
 * bands, lines) then takes one O(n) pass instead of one per cut. */
static size_t cut_node(px_layout *L, px_span *cut, px_span *other, size_t lo, size_t hi,
                       px_gap gap, int cut_is_y)
{
    uint32_t *cuts = L->cuts;
    size_t nc = 0, m = 1, p, k;
    int32_t cur_end = cut[lo].e, min_all = other[lo].s, max_all = other[lo].e, bound = INT32_MAX;

    for (k = lo + 1; k < hi; k++) {
        if (cut[k].s > cur_end && cut[k].s - cur_end == gap.size)
            cuts[nc++] = (uint32_t)k;
        if (cut[k].e > cur_end)
            cur_end = cut[k].e;
    }
    for (p = 0, k = lo; p <= nc; p++) {
        size_t end = p < nc ? cuts[p] : hi;
        for (; k < end; k++)
            L->piece_of[cut[k].id] = (uint32_t)p;
        L->p_n[p] = 0;
    }
    if (nc > 1) {
        for (k = lo; k < hi; k++) {
            const px_span *o = &other[k];
            p = L->piece_of[o->id];
            if (o->e > max_all)
                max_all = o->e;
            if (!L->p_n[p]++) {
                L->p_min[p] = o->s;
                L->p_end[p] = o->e;
                L->p_gap[p] = 0;
                continue;
            }
            if (o->s > L->p_end[p] && o->s - L->p_end[p] > L->p_gap[p])
                L->p_gap[p] = o->s - L->p_end[p];
            if (o->e > L->p_end[p])
                L->p_end[p] = o->e;
        }
        for (p = nc; p >= 1; p--) {
            int32_t b = L->p_gap[p];
            if (L->p_min[p] - min_all > b)
                b = L->p_min[p] - min_all;
            if (max_all - L->p_end[p] > b)
                b = max_all - L->p_end[p];
            if (b < bound)
                bound = b;
            L->p_bound[p] = bound; /* over pieces p..nc: the rest after cut p */
        }
        /* the other axis wins on a larger gap, or on a tie when it is y */
        while (m < nc && (cut_is_y ? L->p_bound[m] <= gap.size || L->p_bound[m] < PX_MIN_GAP_X
                                   : L->p_bound[m] < gap.size || L->p_bound[m] < PX_MIN_GAP_Y))
            m++;
    }
    /* stable partition of the other order into the m + 1 parts */
    for (p = 0; p <= m; p++)
        L->p_n[p] = (uint32_t)((p ? cuts[p - 1] : lo) - lo);
    for (k = lo; k < hi; k++) {
        p = L->piece_of[other[k].id];
        L->tmp[L->p_n[p < m ? p : m]++] = other[k];
    }
    memcpy(other + lo, L->tmp, (hi - lo) * sizeof *L->tmp);
    return m;
}

/* Lay out the n glyphs g, appending the text to `text` (room for it
 * reserved here); 0 when out of memory. */
static int layout(const px_glyph *g, size_t n, const char *chars, px_scratch *sc, hx_buf *text,
                  int64_t *n_blocks)
{
    size_t chars_len = 0, sp = 0, k;
    px_layout L;
    uint32_t *work, *stack, *count, max_x = 0, max_y = 0;
    unsigned bits_x, bits_y, digit = 4;

    memset(&L, 0, sizeof L);
    *n_blocks = 0;
    if (!n)
        return 1;
    for (k = 0; k < n; k++)
        chars_len += g[k].len;
    while (digit < 16 && ((size_t)1 << digit) < n) /* radix digits: fewer on small pages */
        digit++;
    /* text bound: every char, a space per glyph, a newline per line and
     * two per block */
    if (!hx_reserve(text, chars_len + 4 * n + 1) || !hx_reserve(&sc->spans, 3 * n * sizeof(px_span)) ||
        !hx_reserve(&sc->work, 9 * (n + 1) * sizeof *work) ||
        !hx_reserve(&sc->count, ((size_t)1 << digit) * sizeof *count))
        return 0;
    work = (uint32_t *)sc->work.p;
    stack = work + 7 * (n + 1);
    count = (uint32_t *)sc->count.p;
    L.g = g;
    L.chars = chars;
    L.out = text->p + text->len;
    L.by_y = (px_span *)sc->spans.p;
    L.by_x = L.by_y + n;
    L.tmp = L.by_y + 2 * n;
    /* emit_block's arrays and cut_node's are never in use at once */
    L.line_of = L.cuts = work;
    L.line_start = L.piece_of = work + (n + 1);
    L.line_order = L.p_n = work + 2 * (n + 1);
    L.p_min = (int32_t *)(work + 3 * (n + 1));
    L.p_end = (int32_t *)(work + 4 * (n + 1));
    L.p_gap = (int32_t *)(work + 5 * (n + 1));
    L.p_bound = (int32_t *)(work + 6 * (n + 1));

    for (k = 0; k < n; k++) {
        px_span o = {g[k].y, g[k].x, (uint32_t)k}; /* e holds x while sorting */
        L.by_y[k] = o;
        max_x = (uint32_t)g[k].x > max_x ? (uint32_t)g[k].x : max_x;
        max_y = (uint32_t)g[k].y > max_y ? (uint32_t)g[k].y : max_y;
    }
    bits_x = bit_length(max_x);
    bits_y = bit_length(max_y);
    sort_spans(L.by_y, L.tmp, n, bits_y, bits_x, digit, count); /* by (y, x) */
    for (k = 0; k < n; k++) {
        const px_glyph *q = &g[L.by_y[k].id];
        px_span o = {q->x, q->x + q->w, L.by_y[k].id};
        L.by_y[k].e = q->y + q->h;
        L.by_x[k] = o;
    }
    /* by x, and (y, x) among equal x: stable over the (y, x) order */
    sort_spans(L.by_x, L.tmp, n, bits_x, 0, digit, count);

    stack[sp++] = 0;
    stack[sp++] = (uint32_t)n;
    while (sp) {
        size_t hi = stack[--sp], lo = stack[--sp], m, p;
        px_gap gy = best_gap(L.by_y, lo, hi);
        px_gap gx = best_gap(L.by_x, lo, hi);
        int cut_y = gy.size && gy.size >= PX_MIN_GAP_Y;
        int cut_x = gx.size && gx.size >= PX_MIN_GAP_X;
        if (cut_y && cut_x)
            cut_y = gy.size >= gx.size; /* a tie cuts on y */
        if (cut_y)
            m = cut_node(&L, L.by_y, L.by_x, lo, hi, gy, 1);
        else if (cut_x)
            m = cut_node(&L, L.by_x, L.by_y, lo, hi, gx, 0);
        else {
            emit_block(&L, lo, hi);
            continue;
        }
        /* the parts go on the stack last first: leaves come out in
         * pre-order, left first */
        for (p = m + 1; p-- > 0;) {
            stack[sp++] = p ? L.cuts[p - 1] : (uint32_t)lo;
            stack[sp++] = p < m ? L.cuts[p] : (uint32_t)hi;
        }
    }
    text->len += L.out_len;
    *n_blocks = L.n_blocks;
    return 1;
}

/* ---- entry points ----------------------------------------------------------- */

int px_extract(const char *body, size_t n, px_scratch *sc, hx_buf *text, int64_t *n_blocks)
{
    px_dec d = {(const unsigned char *)body, n, 0, &sc->glyphs, &sc->chars};
    if (!body || n > UINT32_MAX) /* chars offsets are 32-bit */
        return PX_DECLINED;
    sc->glyphs.len = sc->chars.len = 0;
    if (!decode(&d))
        return sc->glyphs.oom || sc->chars.oom ? PX_NOMEM : PX_DECLINED;
    return layout((const px_glyph *)sc->glyphs.p, sc->glyphs.len / sizeof(px_glyph), sc->chars.p, sc,
                  text, n_blocks)
               ? PX_OK
               : PX_NOMEM;
}

void px_scratch_free(px_scratch *sc)
{
    free(sc->glyphs.p);
    free(sc->chars.p);
    free(sc->spans.p);
    free(sc->work.p);
    free(sc->count.p);
    memset(sc, 0, sizeof *sc);
}
