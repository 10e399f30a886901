"""Co-citation similarity (graph.cocitation_similarity), Kendall τ-b
(trend.kendall_tau_daily) and Wilson lower bound
(abtest.wilson_lower_bound): hand-computed fixtures, cap semantics,
tie corrections, small-n ranking honesty."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ai_service_ocr_grading_handler_ray.stages.abtest import wilson_lower_bound
from ai_service_ocr_grading_handler_ray.stages.graph import cocitation_similarity
from ai_service_ocr_grading_handler_ray.stages.trend import kendall_tau_daily

US = 1_000_000
DAY = 86_400 * US


def _edges(pairs):
    return rd.from_arrow(
        pa.table(
            {"src": pa.array([p[0] for p in pairs], type=pa.string()),
             "dst": pa.array([p[1] for p in pairs], type=pa.string())}
        )
    )


def test_cocitation_hand_computed(ray_session):
    # N(a) = {x, y}, N(b) = {x, z}, N(c) = {w}
    # (a,b): common {x} -> 1 / (2 + 2 - 1) = 1/3 ; c pairs with no one
    out = cocitation_similarity(
        _edges([("a", "x"), ("a", "y"), ("b", "x"), ("b", "z"),
                ("c", "w")])
    )
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["host_a"], r["host_b"]) == ("a", "b")
    assert r["n_common"] == 1 and r["n_a"] == 2 and r["n_b"] == 2
    assert r["jaccard"] == pytest.approx(1 / 3, abs=1e-6)


def test_cocitation_dedups_repeat_links(ray_session):
    out = cocitation_similarity(
        _edges([("a", "x"), ("a", "x"), ("b", "x"), ("b", "x")])
    )
    assert out.iloc[0]["jaccard"] == 1.0


def test_cocitation_in_degree_cap_excludes_hub(ray_session):
    # hub 'h' is co-linked by a,b,c (in-degree 3 > cap 2) -> excluded;
    # only the x co-citation between a and b remains
    out = cocitation_similarity(
        _edges([("a", "h"), ("b", "h"), ("c", "h"),
                ("a", "x"), ("b", "x")]),
        max_in_degree=2,
    )
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["host_a"], r["host_b"]) == ("a", "b")
    assert r["n_common"] == 1
    # sizes still count the full neighbourhood (hub included)
    assert r["n_a"] == 2 and r["n_b"] == 2


def _ev_days(rows):
    """rows: (day_index, event_type) one event each."""
    return rd.from_pandas(
        pd.DataFrame(
            {
                "ts": pd.to_datetime([r[0] * DAY for r in rows], unit="us"),
                "event_type": [r[1] for r in rows],
            }
        )
    )


def test_kendall_perfect_concordance(ray_session):
    # days 0..3: x = [1,2,3,4] (a-events), y = [1,2,3,4] (b-events)
    rows = []
    for d in range(4):
        rows += [(d, "a")] * (d + 1) + [(d, "b")] * (d + 1)
    out = kendall_tau_daily(_ev_days(rows), type_a="a", type_b="b")
    assert out.iloc[0]["tau_b"] == 1.0
    assert out.iloc[0]["n_days"] == 4
    assert out.iloc[0]["nc_minus_nd"] == 6


def test_kendall_perfect_discordance(ray_session):
    rows = []
    for d in range(3):
        rows += [(d, "a")] * (d + 1) + [(d, "b")] * (3 - d)
    out = kendall_tau_daily(_ev_days(rows), type_a="a", type_b="b")
    assert out.iloc[0]["tau_b"] == -1.0


def test_kendall_tie_correction(ray_session):
    # x = [1,1,2], y = [1,2,3]: C=2, D=0, n0=3, n1=1 (x tie), n2=0
    # tau_b = 2 / sqrt(2*3) = 0.816497
    rows = [(0, "a"), (1, "a"), (2, "a"), (2, "a"),
            (0, "b"), (1, "b"), (1, "b"), (2, "b"), (2, "b"), (2, "b")]
    out = kendall_tau_daily(_ev_days(rows), type_a="a", type_b="b")
    assert out.iloc[0]["tau_b"] == pytest.approx(2 / math.sqrt(6),
                                                 abs=1e-6)


def test_kendall_single_day_is_nan(ray_session):
    out = kendall_tau_daily(_ev_days([(0, "a"), (0, "b")]),
                            type_a="a", type_b="b")
    assert out.iloc[0]["n_days"] == 1
    assert np.isnan(out.iloc[0]["tau_b"])


def _pages(rows):
    """rows: (host, ok)."""
    return rd.from_arrow(
        pa.table(
            {"host": pa.array([r[0] for r in rows], type=pa.string()),
             "ok": pa.array([r[1] for r in rows], type=pa.int64())}
        )
    )


def test_wilson_small_n_cannot_outrank(ray_session):
    # 1/1 vs 95/100: raw rate says the single lucky page wins; the
    # Wilson lower bound must rank the 95/100 host first
    rows = [("lucky", 1)] + [("solid", 1)] * 95 + [("solid", 0)] * 5
    out = wilson_lower_bound(_pages(rows), group_col="host",
                             success_col="ok")
    assert out.iloc[0]["host"] == "solid"
    assert out.iloc[0]["wilson_lb"] > out.iloc[1]["wilson_lb"]
    assert out.iloc[1]["pass_rate"] == 1.0  # raw rate WOULD have won


def test_wilson_known_value(ray_session):
    # p=0.5, n=100, z=1.96 -> lb ~ 0.404
    rows = [("h", 1)] * 50 + [("h", 0)] * 50
    out = wilson_lower_bound(_pages(rows), group_col="host",
                             success_col="ok")
    assert out.iloc[0]["wilson_lb"] == pytest.approx(0.4038, abs=5e-4)


def test_wilson_zero_and_full(ray_session):
    rows = [("none", 0)] * 10 + [("all", 1)] * 10
    out = wilson_lower_bound(_pages(rows), group_col="host",
                             success_col="ok").set_index("host")
    assert out.loc["none"]["wilson_lb"] == 0.0
    assert 0.6 < out.loc["all"]["wilson_lb"] < 1.0


def test_kendall_sql_escapes_single_quotes():
    # ADVICE r4: type names with embedded quotes must not break the
    # generated oracle SQL.
    from ai_service_ocr_grading_handler_ray.stages.trend import kendall_sql

    sql = kendall_sql(type_a="o'clock", type_b="plain")
    assert "o''clock" in sql and "o'clock'" not in sql.replace("o''clock", "")


def test_lang_script_audit_sql_escapes_quotes():
    from ai_service_ocr_grading_handler_ray.stages.text_analysis import (
        lang_script_audit_sql,
    )

    sql = lang_script_audit_sql(expected={"x'y": "lat'in"})
    assert "x''y" in sql and "lat''in" in sql


class TestChangepoints:
    def test_hand_computed_level_shift(self, ray_session):
        """10 days at 2 events/day then 10 days at 10/day: the full-range
        changepoint is the last low day."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from ai_service_ocr_grading_handler_ray.stages.trend import (
            changepoint_detect,
        )

        day = 86_400_000_000
        ts = []
        for d in range(20):
            per = 2 if d < 10 else 10
            ts.extend([d * day + i for i in range(per)])
        ds = rd.from_arrow(
            pa.table({"ts": pa.array(ts, type=pa.timestamp("us"))})
        )
        out = changepoint_detect(ds)
        full = out[out["segment"] == 0].iloc[0]
        import pandas as pd

        assert full["cp_day"] == pd.Timestamp("1970-01-10")  # day index 9
        assert len(out) == 3  # both halves emit too

    def test_constant_series_picks_earliest(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from ai_service_ocr_grading_handler_ray.stages.trend import (
            changepoint_detect,
        )

        day = 86_400_000_000
        ds = rd.from_arrow(
            pa.table({"ts": pa.array([d * day for d in range(5)],
                                     type=pa.timestamp("us"))})
        )
        out = changepoint_detect(ds)
        import pandas as pd

        full = out[out["segment"] == 0].iloc[0]
        assert full["stat"] == 0.0
        assert full["cp_day"] == pd.Timestamp("1970-01-01")  # earliest tie

    def test_short_series_empty(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from ai_service_ocr_grading_handler_ray.stages.trend import (
            changepoint_detect,
        )

        ds = rd.from_arrow(
            pa.table({"ts": pa.array([0], type=pa.timestamp("us"))})
        )
        assert len(changepoint_detect(ds)) == 0


class TestRunsTest:
    def _days(self, counts):
        import pyarrow as pa
        import ray.data as rd

        day = 86_400_000_000
        ts = []
        for d, c in enumerate(counts):
            ts.extend([d * day + i for i in range(c)])
        return rd.from_arrow(
            pa.table({"ts": pa.array(ts, type=pa.timestamp("us"))})
        )

    def test_alternating_series_many_runs(self, ray_session):
        from ai_service_ocr_grading_handler_ray.stages.trend import runs_test_daily

        out = runs_test_daily(self._days([1, 9] * 10)).iloc[0]
        # lower median = 1 -> days equal to it DROP; only the 9s remain,
        # all one side -> z is NaN but counts are exact
        assert out["n_days"] == 20
        assert out["n_above"] == 10 and out["n_below"] == 0

    def test_clustered_vs_alternating_sign(self, ray_session):
        from ai_service_ocr_grading_handler_ray.stages.trend import runs_test_daily

        # clustered: distinct ascending counts (low block then high
        # block; only the single median day drops) -> 2 runs -> very
        # negative z
        clustered = runs_test_daily(self._days(list(range(1, 21)))).iloc[0]
        # alternating high/low -> max runs -> positive z
        import numpy as np

        alt = runs_test_daily(self._days([2, 9, 3, 8, 2, 9, 3, 8, 2, 9,
                                          3, 8, 2, 9, 3, 8])).iloc[0]
        assert clustered["runs"] == 2 and clustered["z"] < -3
        # alternation beats clustering: more runs, opposite z sign
        assert alt["runs"] > clustered["runs"] and alt["z"] > 0

    def test_empty(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from ai_service_ocr_grading_handler_ray.stages.trend import runs_test_daily

        ds = rd.from_arrow(
            pa.table({"ts": pa.array([], type=pa.timestamp("us"))})
        )
        assert len(runs_test_daily(ds)) == 0

    def test_empty_equals_duckdb(self, ray_session):
        """No events: the DuckDB replay has no row either."""
        import duckdb
        import pyarrow as pa
        import ray.data as rd

        from ai_service_ocr_grading_handler_ray.stages.trend import (
            runs_test_daily,
            runs_test_sql,
        )

        events = pa.table({"ts": pa.array([None], type=pa.timestamp("us"))})
        con = duckdb.connect()
        con.register("events", events)
        want = con.sql(runs_test_sql(table="events", ts_col="ts")).df()
        got = runs_test_daily(rd.from_arrow(events))
        assert len(got) == len(want) == 0
        assert list(got.columns) == list(want.columns)
