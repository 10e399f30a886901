"""Unit tests: boilerplate stripper on hand-built DOM fixtures
(SURVEY.md §5 item 1 — nav/footer/link-farm vs content blocks)."""

from ai_service_ocr_grading_handler_ray.stages.html_extract import extract_html_with_title

CONTENT_A = "This is the first real paragraph of the article with enough characters."
CONTENT_B = "A second substantive paragraph that should also survive the classifier."


def test_keeps_content_drops_nav_footer():
    html = f"""
    <html><head><title>T</title><script>var x=1;</script></head><body>
    <nav><a href="/">Home</a> <a href="/news">News</a> <a href="/sports">Sports and recreation section</a></nav>
    <article><p>{CONTENT_A}</p><p>{CONTENT_B}</p></article>
    <footer><p>Copyright 2024 example.com all rights reserved worldwide</p></footer>
    </body></html>"""
    text, n = extract_html_with_title(html)[:2]
    assert text == f"{CONTENT_A}\n\n{CONTENT_B}"
    assert n == 2


def test_drops_link_farm_by_link_density():
    farm = " ".join(f'<a href="/{i}">interesting link number {i}</a>' for i in range(10))
    html = f"<body><div>{farm}</div><p>{CONTENT_A}</p></body>"
    text, n = extract_html_with_title(html)[:2]
    assert text == CONTENT_A
    assert n == 1


def test_drops_short_blocks():
    html = f"<body><p>tiny</p><p>{CONTENT_A}</p></body>"
    text, _ = extract_html_with_title(html)[:2]
    assert text == CONTENT_A


def test_drops_boilerplate_by_class():
    html = (
        f'<body><div class="sidebar-widget"><p>{CONTENT_A}</p></div>'
        f"<p>{CONTENT_B}</p></body>"
    )
    text, _ = extract_html_with_title(html)[:2]
    assert text == CONTENT_B


def test_moderate_inline_links_kept():
    html = (
        f'<body><p>{CONTENT_A} See <a href="/x">this page</a> for details '
        f"about the subject at hand.</p></body>"
    )
    text, n = extract_html_with_title(html)[:2]
    assert n == 1
    assert "See this page for details" in text


def test_whitespace_normalized_and_entities():
    html = "<body><p>Alpha&amp;Beta   with\n\n   spaced   out words making it long enough</p></body>"
    text, _ = extract_html_with_title(html)[:2]
    assert text == "Alpha&Beta with spaced out words making it long enough"


def test_malformed_html_never_raises():
    text, n = extract_html_with_title(b"<div><p>unclosed " + bytes([0xFF, 0xFE]) + b" tail")[:2]
    assert isinstance(text, str) and n >= 0


def test_empty_input():
    assert extract_html_with_title(b"")[:2] == ("", 0)


def test_deterministic():
    html = f"<body><p>{CONTENT_A}</p><div class='menu'><a href='/'>m</a></div></body>"
    assert extract_html_with_title(html)[:2] == extract_html_with_title(html)[:2]


def test_native_engine_equivalent_on_corpus():
    """The production engine (native kernel) must produce byte-identical
    output to the oracle over every synthetic html page."""
    import pyarrow.parquet as pq

    from ai_service_ocr_grading_handler_ray.stages.classify import classify_payload_kind
    from ai_service_ocr_grading_handler_ray.stages.html_extract import extract_html_fused
    from ai_service_ocr_grading_handler_ray.synth import docs_to_pages

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    pages = classify_payload_kind(docs_to_pages(docs))
    n = 0
    for payload, kind in zip(pages["html"].to_pylist(), pages["payload_kind"].to_pylist()):
        if kind == "html":
            assert extract_html_fused(payload) == extract_html_with_title(payload)
            n += 1
    assert n > 390


def test_native_engine_handles_tricky_html():
    from ai_service_ocr_grading_handler_ray.stages.html_extract import extract_html_fused

    tricky = (
        '<html><head><title>T &amp; U</title><script>if (a<b) { x="</p>"; }</script>'
        "</head><body><!-- comment with <p>fake</p> -->"
        f"<p>{CONTENT_A}</p>"
        f'<div class="related-promo"><p>{CONTENT_B}</p></div>'
        f"<p>Entity test &lt;tag&gt; and &quot;quotes&quot; inside a long paragraph here.</p>"
        "</body></html>"
    )
    native = extract_html_fused(tricky)
    std = extract_html_with_title(tricky)
    assert native == std
    assert native[2] == "T & U"
    assert CONTENT_B not in native[0]  # promo class dropped
    assert "<tag>" in native[0]  # entities decoded


def test_fused_engine_equivalent_on_tricky_fragments():
    """The native kernel must match the oracle on structurally nasty
    fragments: self-closing blocks, raw-text elements, uppercase tags,
    unterminated script, boilerplate-attr inline tags."""
    from ai_service_ocr_grading_handler_ray.stages.html_extract import extract_html_fused

    frags = [
        '<div class="ad"/><p>Self closing block tags here with enough text to pass easily.</p>',
        '<nav><a href="/">home</a></nav><P CLASS="x">Uppercase tags with plenty of verbose content kept.</P>',
        "<textarea>not <b>parsed</b> here</textarea><p>After textarea a long enough paragraph remains.</p>",
        "<head><textarea>hidden?</textarea></head><p>Body text long enough to be kept by the extractor.</p>",
        "<p>Unterminated <script>alert(1)",
        "<title>only a title</title>",
        "<p>a &lt; b &amp; c &gt; d plus padding text to be over the limit okay here.</p><br><p>next</p>",
        '<svg><text>vector text</text></svg><p>Past the svg we keep this adequately long paragraph.</p>',
        '<DIV Role="Navigation breadcrumb">crumbs</DIV><p>Content after the breadcrumb is still kept fine.</p>',
        "",
        "<p></p><p>   </p><p>Spaces then a real paragraph with sufficient length to be retained here.</p>",
        '<span id="social-share">x</span><p>An inline boiler attr marks the whole current block as boiler.</p>',
    ]
    for f in frags:
        assert extract_html_fused(f) == extract_html_with_title(f), f[:60]
