"""Main-content extraction from HTML: jusText/Readability-style block
classification by text density + link density.

This is the engine's analogue of the reference's Stage-A extraction
("transcribe ... exactly as it is written, without any modifications",
``gen_ai_calling.py:205``; vision-OCR call at
``ocr_llm_calling_modules.py:49-79``) — re-expressed as a deterministic
local DOM heuristic instead of a remote vision LLM (SURVEY.md T5).

Engines (one production engine, one independent oracle):
- ``extract_html_fused`` (production): one fused tokenizer + classifier in
  C, ``html_native.c``, built on first use (see ``native.py``).  Where it
  cannot be built, the oracle runs instead.
- ``extract_html_with_title`` (oracle): ``_BlockCollector``, an
  ``html.parser.HTMLParser`` whose tokenizer decisions are its own: it
  overrides every markup scan of the stdlib parser and keeps only its
  text loop.  The two engines are to give the same output on any input;
  the tests fuzz one against the other.

Tokenizer decisions, from the WHATWG HTML tokenizer (both engines):
- ``script`` and ``style`` are RAWTEXT, ``title`` and ``textarea`` RCDATA
  (character references decoded; a title's text is the page title, a
  textarea's is dropped).  Their content runs to the first ``</`` + their
  name, ASCII case-insensitively, followed by tab, LF, FF, CR, space,
  ``/`` or ``>``; that end tag may carry attributes.  A self-closing flag
  does not stop raw text.  Not modelled: script data's escape states, and
  the raw text of ``iframe``, ``noembed``, ``noframes``, ``xmp`` and
  ``plaintext``, which are tokenized as markup.
- A tag name runs from an ASCII letter to tab, LF, FF, CR, space, ``/`` or
  ``>``; attribute names and values follow the attribute states (quoted
  values may hold ``>``), names are lowercased in ASCII only, a repeated
  attribute is dropped, and values have their character references
  decoded.  ``</`` + a character that is not an ASCII letter opens a
  bogus comment, as do ``<!`` and ``<?``: it ends at the next ``>``.
  ``</>`` is dropped; ``<`` before anything else is text.
- A comment ends at ``-->`` or ``--!>`` (``<!-->`` and ``<!--->`` at
  once).  EOF inside a tag drops the partial tag (eof-in-tag); EOF inside
  a comment ends it; EOF inside raw text ends the element.
- Character references follow ``html.unescape``, in text and in
  attribute values alike.
- Not tokenizer matters, and so not modelled: tree construction (implied
  and mis-nested tags, foreign content), except that a self-closing tag
  other than the four above counts as its start and end tag.

Design for deterministic output (SURVEY.md §7.4):
- stdlib tokenizers (no lxml in the container; version-stable),
- integer-arithmetic density thresholds (no float ties),
- whitespace normalization = ``" ".join(text.split())`` per block,
- block order = document order; output = kept blocks joined by "\\n\\n".

Classification rules (applied per flat block, in order):
1. blocks inside <nav>/<header>/<footer>/<aside> or an element whose
   id/class/role matches a boilerplate pattern are dropped (context rule);
2. blocks shorter than ``min_len`` normalized chars are dropped;
3. blocks whose link-char share exceeds ``max_link_pct`` percent are
   dropped (link farms, menus); a link's chars are counted per text run
   (the text between two pieces of markup);
4. everything else is kept.
"""

from __future__ import annotations

import re
import string
from html import unescape
from html.parser import HTMLParser

from . import native

# tags that delimit text blocks
_BLOCK_TAGS = frozenset(
    """p div section article main li h1 h2 h3 h4 h5 h6 td th blockquote pre
    ul ol table tr figure figcaption dd dt form fieldset body html
    header footer nav aside""".split()
)
# subtrees whose text never reaches output
_SKIP_TAGS = frozenset("script style noscript template svg head iframe".split())
# subtrees that mark boilerplate context (rule 1)
_BOILER_TAGS = frozenset("nav header footer aside".split())
_VOID_TAGS = frozenset("br hr img input meta link area base col embed source track wbr".split())

_BOILER_WORDS = (
    "nav menu footer header sidebar banner breadcrumb comment share social "
    "related promo ad ads advert cookie popup widget"
).split()
_BOILER_ATTR = re.compile(
    r"(?:^|[\s_-])(" + "|".join(_BOILER_WORDS) + r")(?:$|[\s_-])", re.IGNORECASE
)

# --- the oracle's tokenizer pieces (WHATWG; see the module docstring) --------

_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
_TAG_NAME = re.compile(r"[^\t\n\f\r />]*")  # after the first letter
# one attribute from the before-attribute-name state; matches "" only at
# ">", "/>" or EOF.  An unclosed quote runs to EOF (and so drops the tag).
_ATTR = re.compile(
    r"""(?:[\t\n\f\r ]|/(?!>))*
    (?:([^\t\n\f\r />][^\t\n\f\r />=]*)[\t\n\f\r ]*
       (?:=[\t\n\f\r ]*("[^"]*"?|'[^']*'?|[^\t\n\f\r >]*))?)?""",
    re.VERBOSE,
)
_COMMENT_END = re.compile(r"--!?>")


class Block:
    """One flat text block with link accounting.  ``text`` is normalized
    once at flush time (``__slots__`` + cached text: the block list is the
    allocation hot path at 100 TB — SURVEY.md §7.4 / VERDICT r01 #6)."""

    __slots__ = ("parts", "link_chars", "boiler_ctx", "text")

    def __init__(self, boiler_ctx: bool = False) -> None:
        self.parts: list[str] = []
        self.link_chars = 0
        self.boiler_ctx = boiler_ctx
        self.text = ""


class _BlockCollector(HTMLParser):
    """Single-pass SAX-style collector producing flat blocks in doc order.

    The stdlib parser only finds each ``<`` and hands over the text
    between; every markup scan below is this class's own.  It reads a
    whole document: ``feed`` it once, then ``close``."""

    CDATA_CONTENT_ELEMENTS = ("script", "style")  # RAWTEXT
    RCDATA_CONTENT_ELEMENTS = ("title", "textarea")
    _END_TAG = {
        t: re.compile(rf"</{t}(?=[\t\n\f\r />])", re.IGNORECASE | re.ASCII)
        for t in CDATA_CONTENT_ELEMENTS + RCDATA_CONTENT_ELEMENTS
    }

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[Block] = []
        self._cur = Block()
        self._run: list[str] = []  # text since the last markup
        self._skip_depth = 0
        self._boiler_depth = 0
        self._attr_boiler_stack: list[str] = []  # tags opened with boiler id/class
        self._link_depth = 0
        self.title_parts: list[str] = []

    # -- helpers -------------------------------------------------------
    def _flush(self) -> None:
        cur = self._cur
        # cheap non-space probe first: whitespace-only blocks (the common
        # case between tags) never pay the join+split normalization
        if cur.parts and any(p and not p.isspace() for p in cur.parts):
            cur.text = " ".join("".join(cur.parts).split())
            if cur.text:
                self.blocks.append(cur)
        self._cur = Block(boiler_ctx=self._boiler_depth > 0 or bool(self._attr_boiler_stack))

    def _end_run(self) -> None:
        """Markup ends the current text run: it joins the block."""
        data = "".join(self._run)
        self._run.clear()
        if data:
            self._cur.parts.append(data)
            if self._link_depth:
                self._cur.link_chars += len(" ".join(data.split()))

    # -- tokenizer -----------------------------------------------------
    def _scan_attrs(self, k: int) -> tuple[int | None, list[tuple[str, str | None]], bool]:
        """The attribute states from ``k`` (just past a tag name):
        ``(end, attrs, self_closing)``, ``end`` None at EOF."""
        rawdata = self.rawdata
        attrs: dict[str, str | None] = {}
        while True:
            m = _ATTR.match(rawdata, k)
            k = m.end()
            name, value = m.group(1, 2)
            if name is None:
                break
            name = name.translate(_ASCII_LOWER)
            if name not in attrs:  # a repeated attribute is dropped
                if value and value[0] in "\"'":
                    value = value[1:-1]
                attrs[name] = None if value is None else unescape(value)
        if rawdata.startswith(">", k):
            return k + 1, list(attrs.items()), False
        if rawdata.startswith("/>", k):
            return k + 2, list(attrs.items()), True
        return None, [], False

    def parse_starttag(self, i: int) -> int:  # rawdata[i:] is "<" + ASCII letter
        self._end_run()
        name = _TAG_NAME.match(self.rawdata, i + 1)
        end, attrs, self_closing = self._scan_attrs(name.end())
        if end is None:
            return len(self.rawdata)  # eof-in-tag
        tag = name.group().translate(_ASCII_LOWER)
        self.handle_starttag(tag, attrs)
        if tag in self._END_TAG:
            self.set_cdata_mode(tag)
        elif self_closing:
            self.handle_endtag(tag)
        return end

    def parse_endtag(self, i: int) -> int:  # rawdata[i:] starts with "</"
        rawdata = self.rawdata
        c = rawdata[i + 2 : i + 3]
        if not c:
            self.handle_data("</")  # EOF: text
            return i + 2
        self._end_run()
        if c == ">":
            return i + 3
        if c not in string.ascii_letters:
            return self.parse_bogus_comment(i)
        name = _TAG_NAME.match(rawdata, i + 2)
        end = self._scan_attrs(name.end())[0]
        if end is None:
            return len(rawdata)  # eof-in-tag
        self.clear_cdata_mode()
        self.handle_endtag(name.group().translate(_ASCII_LOWER))
        return end

    def parse_comment(self, i: int, report: int = 1) -> int:  # "<!--"
        self._end_run()
        rawdata = self.rawdata
        for abrupt in (">", "->"):
            if rawdata.startswith(abrupt, i + 4):
                return i + 4 + len(abrupt)
        m = _COMMENT_END.search(rawdata, i + 4)
        return m.end() if m else len(rawdata)

    def parse_bogus_comment(self, i: int, report: int = 1) -> int:
        """``<!…``, ``<?…`` and ``</`` + a non-letter: to the next ``>``."""
        self._end_run()
        end = self.rawdata.find(">", i + 2)
        return len(self.rawdata) if end < 0 else end + 1

    parse_html_declaration = parse_pi = parse_bogus_comment

    def set_cdata_mode(self, elem: str) -> None:
        self.cdata_elem = elem
        self.interesting = self._END_TAG[elem]

    def close(self) -> None:
        super().close()
        if self.cdata_elem is not None:  # EOF in raw text ends the element
            self.handle_data(self.rawdata)
            self.rawdata = ""
        self._end_run()

    # -- parser callbacks ---------------------------------------------
    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        if tag in _VOID_TAGS:
            if tag == "br" and not self._skip_depth:
                self._cur.parts.append(" ")
            return
        if tag == "title":
            return
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        if tag == "a":
            self._link_depth += 1
        attr_boiler = any(
            k in ("id", "class", "role") and v and _BOILER_ATTR.search(v) for k, v in attrs
        )
        if tag in _BLOCK_TAGS:
            self._flush()
            if tag in _BOILER_TAGS:
                self._boiler_depth += 1
            if attr_boiler:
                self._attr_boiler_stack.append(tag)
            self._cur.boiler_ctx = self._boiler_depth > 0 or bool(self._attr_boiler_stack)
        elif attr_boiler:
            # inline element flagged boilerplate: mark current block
            self._cur.boiler_ctx = True

    def handle_endtag(self, tag: str) -> None:
        if tag == "title":
            return
        if tag in _SKIP_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if self._skip_depth:
            return
        if tag == "a":
            self._link_depth = max(0, self._link_depth - 1)
        if tag in _BLOCK_TAGS:
            self._flush()
            if tag in _BOILER_TAGS:
                self._boiler_depth = max(0, self._boiler_depth - 1)
            if self._attr_boiler_stack and self._attr_boiler_stack[-1] == tag:
                self._attr_boiler_stack.pop()
            self._cur.boiler_ctx = self._boiler_depth > 0 or bool(self._attr_boiler_stack)

    def handle_data(self, data: str) -> None:
        if self.cdata_elem is not None:  # raw text: only a title's reaches output
            if self.cdata_elem == "title":
                self.title_parts.append(unescape(data))
        elif not self._skip_depth:
            self._run.append(data)


def extract_html_with_title(
    payload: bytes | str,
    min_len: int = 25,
    max_link_pct: int = 33,
) -> tuple[str, int, str]:
    """Strip boilerplate; return ``(extracted_text, n_kept_blocks, title)``.

    Deterministic: integer thresholds, document-order blocks, no float
    comparisons.  Never raises on malformed HTML; decoding uses UTF-8
    with replacement so garbage can't throw.
    """
    if isinstance(payload, bytes):
        doc = payload.decode("utf-8", errors="replace")
    else:
        doc = payload
    coll = _BlockCollector()
    coll.feed(doc)
    coll.close()
    coll._flush()

    kept: list[str] = []
    for blk in coll.blocks:
        if blk.boiler_ctx:
            continue
        text = blk.text  # normalized once at flush
        n = len(text)
        if n < min_len:
            continue
        # integer-arithmetic link density: link_chars/n > max_link_pct/100
        if blk.link_chars * 100 > n * max_link_pct:
            continue
        kept.append(text)
    title = " ".join("".join(coll.title_parts).split())
    return "\n\n".join(kept), len(kept), title


# --- the production engine's tag tables ----------------------------------------
#
# native.py generates html_native.c's tag table from these sets.

# elements whose content runs, as text, to their own end tag
_RAWTEXT = frozenset(_BlockCollector._END_TAG)
# tags whose start/end can change the classifier state; any other tag
# without a boilerplate id/class/role is a no-op (most inline tags)
_EVENT_TAGS = frozenset(
    _BLOCK_TAGS | _SKIP_TAGS | _VOID_TAGS | _RAWTEXT | {"a", "title"}
)


def extract_html_fused(
    payload: bytes | str,
    min_len: int = 25,
    max_link_pct: int = 33,
) -> tuple[str, int, str]:
    """Production HTML engine: ``(extracted_text, n_kept_blocks, title)``.

    Runs the native kernel (html_native.c), built on first use; where it
    cannot be built, or cannot carry the thresholds, runs the oracle
    ``extract_html_with_title``, which gives the same output."""
    kernel = native.load()
    if kernel is not None and kernel.accepts(min_len, max_link_pct):
        return kernel(payload, min_len, max_link_pct)
    return extract_html_with_title(payload, min_len, max_link_pct)
