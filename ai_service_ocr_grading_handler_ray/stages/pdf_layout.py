"""XY-cut layout parsing for PDF payloads (pdfminer-style, from scratch).

XY-cut over glyph bounding boxes: project glyphs onto each axis, find the
largest whitespace gap exceeding a threshold, split, repeat on each side;
leaves become text blocks read top-to-bottom / left-to-right; within a
block, glyphs cluster into lines by y then sort by x, with spaces
re-inserted at x-gaps.  This is the engine's analogue of the reference's
math-page OCR stage (margin-step reordering demanded at
``gen_ai_calling.py:236`` becomes the XY-cut reading-order policy,
SURVEY.md §2.6).

Engines: the native kernel (``pdf_native.c``) decodes and lays out each
PDF row inside the Stage-A batch call (``extract_native.c``).  The Python
code below, fed by ``payloads.decode_pdf_glyphs``, is its oracle and runs
every row the kernel declines, and every row where it cannot be built.

Deterministic: integer coordinates, integer gap thresholds, explicit
tie-breaks (largest gap, then the earliest; y before x on equal gaps).

Cost: the Python code sorts each cut-tree node on both axes, so n
single-glyph lines with equal gaps of at least ``MIN_GAP_Y`` (n cuts, a
tree n deep) cost O(n^2 log n); the explicit stack keeps such a tree from
exhausting the recursion limit.  The native kernel sorts once per axis and
cuts a run of equal gaps in one pass when it can show the other axis
cannot win in between; its remaining worst case, a chain it cannot batch
(one-glyph lines alternating between two x positions whose x gap ties the
y gap), is O(n^2).
"""

from __future__ import annotations

Glyph = tuple[int, int, int, int, str]  # (x, y, w, h, ch)

# Smallest projection gaps that cut a node, and the largest y step inside
# one line (pixels).  native.py writes them into pdf_native.c's header.
MIN_GAP_X = 24
MIN_GAP_Y = 18
LINE_SLACK = 2


def _gaps(intervals: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Merged-interval gaps as (gap_size, gap_start, gap_end), sorted by pos."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    out: list[tuple[int, int, int]] = []
    _, cur_end = intervals[0]
    for s, e in intervals[1:]:
        if s > cur_end:
            out.append((s - cur_end, cur_end, s))
        cur_end = max(cur_end, e)
    return out


def _best_gap(glyphs: list[Glyph], axis: int) -> tuple[int, int] | None:
    """Largest projection gap on axis (0=x, 1=y) → (size, cut_pos) or None."""
    if axis == 0:
        iv = [(g[0], g[0] + g[2]) for g in glyphs]
    else:
        iv = [(g[1], g[1] + g[3]) for g in glyphs]
    gaps = _gaps(iv)
    if not gaps:
        return None
    # max by size; ties broken by earliest position (deterministic)
    size, start, end = max(gaps, key=lambda t: (t[0], -t[1]))
    return size, (start + end) // 2


def _cut(gs: list[Glyph]) -> tuple[list[Glyph], list[Glyph]] | None:
    """Split a node along its larger qualifying gap, or None for a leaf."""
    gx = _best_gap(gs, 0)
    gy = _best_gap(gs, 1)
    cand: list[tuple[int, int, int]] = []  # (size, axis, pos)
    if gy and gy[0] >= MIN_GAP_Y:
        cand.append((gy[0], 1, gy[1]))
    if gx and gx[0] >= MIN_GAP_X:
        cand.append((gx[0], 0, gx[1]))
    if not cand:
        return None
    # cut along the larger gap; ties prefer the horizontal cut (axis=1,
    # i.e. a y-gap splitting top/bottom) for stable reading order
    size, axis, pos = max(cand, key=lambda t: (t[0], t[1]))
    left = [g for g in gs if g[axis] + (g[2] if axis == 0 else g[3]) <= pos]
    right = [g for g in gs if g[axis] + (g[2] if axis == 0 else g[3]) > pos]
    if not left or not right:
        return None
    return left, right


def xy_cut_blocks(glyphs: list[Glyph]) -> list[list[Glyph]]:
    """Split glyphs into layout blocks in reading order: the leaves of the
    cut tree in pre-order, left first.  An explicit stack, so a deep tree
    cannot exhaust the interpreter's recursion limit."""
    if not glyphs:
        return []
    blocks: list[list[Glyph]] = []
    stack = [sorted(glyphs, key=lambda g: (g[1], g[0]))]
    while stack:
        gs = stack.pop()
        halves = _cut(gs)
        if halves is None:
            blocks.append(gs)
        else:
            stack += reversed(halves)
    return blocks


def block_to_text(block: list[Glyph]) -> str:
    """Cluster a block's glyphs into lines (y), order by x, re-insert spaces.

    A new line starts where y steps by more than ``LINE_SLACK``; a space
    is emitted when the x-gap between consecutive glyphs of a line exceeds
    half the glyph's width (integer: gap > w//2).
    """
    if not block:
        return ""
    gs = sorted(block, key=lambda g: (g[1], g[0]))
    lines: list[list[Glyph]] = []
    cur: list[Glyph] = [gs[0]]
    for g in gs[1:]:
        if g[1] - cur[-1][1] > LINE_SLACK:
            lines.append(cur)
            cur = [g]
        else:
            cur.append(g)
    lines.append(cur)

    out_lines: list[str] = []
    for line in lines:
        line.sort(key=lambda g: g[0])
        buf: list[str] = []
        prev_end: int | None = None
        for x, _y, w, _h, ch in line:
            if prev_end is not None and x - prev_end > w // 2:
                buf.append(" ")
            buf.append(ch)
            prev_end = x + w
        out_lines.append("".join(buf))
    return "\n".join(out_lines)


def parse_pdf_layout(glyphs: list[Glyph]) -> tuple[str, int]:
    """Full parse: XY-cut → per-block line assembly → reading-order join.

    Returns ``(text, n_blocks)``; non-empty blocks joined by blank lines.
    """
    blocks = xy_cut_blocks(glyphs)
    texts = [block_to_text(b) for b in blocks]
    texts = [t for t in texts if t]
    return "\n\n".join(texts), len(texts)
