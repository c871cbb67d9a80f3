"""Distortion profiles, envelope verification, and CSV/JSON export."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from lpembed.coarse_embedder import (
    build_embedding,
    embedding_from_json,
    embedding_to_json,
    pairwise_image_distances,
    pairwise_image_power_sums,
)
from lpembed.distortion_report import (
    DEFAULT_TOL,
    empirical_profile,
    export,
    verify_bounds,
)
from lpembed.lp_core import abs_power
from lpembed.metric_spaces import FiniteMetricSpace, generate


@pytest.fixture(scope="module")
def hc5_p1():
    return build_embedding(generate("hypercube", 5), p=1.0)


@pytest.fixture(scope="module")
def path40_p1():
    # path graphs keep two levels non-saturated at delta = 1, so the lower
    # envelope has mass to violate
    return build_embedding(generate("path", 40), p=1.0, level_count=5)


def reloaded_form(E, edit=None):
    """E written to its JSON payload, edited in place by edit(payload) if given, and read back."""
    payload = embedding_to_json(E)
    if edit is not None:
        edit(payload)
    return embedding_from_json(payload, E.space)


def tampered(E, idx, scale):
    """E reloaded with point idx's offset from the base point scaled in every level's images."""
    labels = E.space.labels

    def edit(payload):
        images = payload["images"]
        base = images[labels[E.base_index]]
        images[labels[idx]] = [
            (np.array(b) + scale * (np.array(row) - np.array(b))).tolist() for row, b in zip(images[labels[idx]], base)
        ]

    return reloaded_form(E, edit)


def lower_missed_by(E, excess):
    """E reloaded with delta raised until its tightest lower-envelope pair misses by excess."""
    back = reloaded_form(E)
    _, _, d, psums = pairwise_image_power_sums(back)
    m = np.searchsorted(back.separation_thresholds(), d, side="right")
    k = int(np.argmin(np.where(m > 0, psums / np.maximum(m, 1), np.inf)))
    delta = 2.0 * ((psums[k] + excess) / m[k]) ** (1.0 / E.exponent.value)
    return reloaded_form(E, lambda payload: payload.update(delta=delta))


def marginal_oracle(E, tol=DEFAULT_TOL):
    """Pairs outside an envelope by at most tol, recounted from the pair power sums."""
    _, _, d, psums = pairwise_image_power_sums(E)
    p = E.exponent.value
    upper = 2.0 ** p * abs_power(d, p) + 1.0
    m = np.searchsorted(E.separation_thresholds(), d, side="right")
    lower = m * (E.delta / 2.0) ** p
    return sum(
        int(np.count_nonzero((excess > 0.0) & (excess <= tol)))
        for excess in (psums - upper, lower - psums)
    )


def assert_json_mirrors(payload, profile):
    """The parsed JSON export holds every profile field; floats equal, not close, as repr prints them."""
    assert [
        (b["t_lo"], b["t_hi"], b["emp_min"], b["emp_max"], b["pair_count"]) for b in payload["buckets"]
    ] == [(b.t_lo, b.t_hi, b.emp_min, b.emp_max, b.pair_count) for b in profile.buckets]
    assert payload["edges"] == list(profile.edges)
    assert payload["rho1_theory"] == list(profile.rho1_theory)
    assert payload["rho2_theory"] == list(profile.rho2_theory)
    assert [(tuple(v["pair"]), v["measured"], v["bound"], v["side"]) for v in payload["violations"]] == [
        (v.pair, v.measured, v.bound, v.side) for v in profile.violations
    ]
    assert payload["marginal_count"] == profile.marginal_count
    assert set(payload) == {"buckets", "edges", "rho1_theory", "rho2_theory", "violations", "marginal_count"}


class TestProfile:
    def test_single_bucket_is_global_extremes(self, hc5_p1):
        profile = empirical_profile(hc5_p1, 1)
        _, _, _, image_d = pairwise_image_distances(hc5_p1)
        b = profile.buckets[0]
        assert b.emp_min == pytest.approx(image_d.min())
        assert b.emp_max == pytest.approx(image_d.max())
        assert b.pair_count == image_d.size

    def test_two_point_space_single_nonempty_bucket(self):
        X = FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, 2.0], [2.0, 0.0]]))
        E = build_embedding(X, p=2.0, level_count=2)
        profile = empirical_profile(E, 4)
        nonempty = [b for b in profile.buckets if b.pair_count]
        assert len(nonempty) == 1
        assert nonempty[0].emp_min == nonempty[0].emp_max

    def test_hypercube5_buckets_match_exhaustive_scan(self, hc5_p1):
        B = 7
        profile = empirical_profile(hc5_p1, B)
        ii, jj, d_src, image_d = pairwise_image_distances(hc5_p1)
        D = hc5_p1.space.diameter()
        for j, b in enumerate(profile.buckets):
            if j < B - 1:
                mask = (d_src >= j * D / B) & (d_src < (j + 1) * D / B)
            else:
                mask = (d_src >= j * D / B) & (d_src <= D)
            assert b.pair_count == int(mask.sum())
            if b.pair_count:
                assert b.emp_min == pytest.approx(image_d[mask].min())
                assert b.emp_max == pytest.approx(image_d[mask].max())
            else:
                assert b.emp_min is None and b.emp_max is None

    def test_pair_conservation(self, hc5_p1):
        profile = empirical_profile(hc5_p1, 13)
        n = hc5_p1.space.n
        assert sum(b.pair_count for b in profile.buckets) == n * (n - 1) // 2

    def test_buckets_partition_diameter(self, hc5_p1):
        profile = empirical_profile(hc5_p1, 5)
        assert profile.buckets[0].t_lo == 0.0
        assert profile.buckets[-1].t_hi == hc5_p1.space.diameter()
        for a, b in zip(profile.buckets, profile.buckets[1:]):
            assert a.t_hi == b.t_lo

    def test_monotone_envelopes_at_edges(self, hc5_p1):
        profile = empirical_profile(hc5_p1, 16)
        assert all(b >= a for a, b in zip(profile.rho1_theory, profile.rho1_theory[1:]))
        assert all(b >= a for a, b in zip(profile.rho2_theory, profile.rho2_theory[1:]))

    def test_sandwich_per_bucket(self, hc5_p1):
        profile = empirical_profile(hc5_p1, 8)
        assert not profile.violations
        for j, b in enumerate(profile.buckets):
            if b.pair_count:
                assert profile.rho1_theory[j] <= b.emp_min + 1e-9
                assert b.emp_max <= profile.rho2_theory[j + 1] + 1e-9

    @pytest.mark.parametrize("bucket_count", [0, 2.5, True, "3"])
    def test_bucket_count_validated(self, hc5_p1, bucket_count):
        # refused, not cast: int() would take 2.5 as 2, True as 1 and "3" as 3
        with pytest.raises(ValueError, match="bucket count"):
            empirical_profile(hc5_p1, bucket_count)

    def test_numpy_integer_bucket_count(self, hc5_p1):
        assert len(empirical_profile(hc5_p1, np.int64(3)).buckets) == 3


class TestVerifyBounds:
    def test_correct_embedding_clean(self, hc5_p1):
        assert verify_bounds(hc5_p1) == []

    def test_scaled_image_triggers_upper_violations(self, path40_p1):
        bad = tampered(path40_p1, 39, 10.0)
        violations = verify_bounds(bad)
        assert violations
        assert all(v.side == "upper" for v in violations)
        assert all("39" in v.pair for v in violations)
        assert all(v.measured > v.bound for v in violations)

    def test_zeroed_image_triggers_lower_violations(self, path40_p1):
        bad = tampered(path40_p1, 39, 0.0)
        violations = verify_bounds(bad)
        assert violations
        assert all(v.side == "lower" for v in violations)
        assert all(v.measured < v.bound for v in violations)

    def test_violations_surface_in_profile(self, path40_p1):
        bad = tampered(path40_p1, 39, 10.0)
        profile = empirical_profile(bad, 4)
        assert profile.violations
        assert profile.violations == tuple(verify_bounds(bad))

    @pytest.mark.parametrize("case", ["hc5", "path40_scaled", "path40_zeroed", "path40_marginal"])
    def test_profile_scan_agrees_with_verify_bounds(self, case, hc5_p1, path40_p1):
        E = {
            "hc5": hc5_p1,
            "path40_scaled": tampered(path40_p1, 39, 10.0),
            "path40_zeroed": tampered(path40_p1, 39, 0.0),
            "path40_marginal": lower_missed_by(path40_p1, 0.5 * DEFAULT_TOL),
        }[case]
        if case == "path40_marginal":
            assert marginal_oracle(E) > 0
        for buckets in (1, 7):
            profile = empirical_profile(E, buckets)
            assert profile.violations == tuple(verify_bounds(E))
            assert profile.marginal_count == marginal_oracle(E)


class TestReloadedAgrees:
    """An in-memory build and its JSON reload, whose pair distances are measured on load, certify alike."""

    def test_verify_and_marginals_survive_round_trip(self, built_embedding):
        E = built_embedding
        back = embedding_from_json(embedding_to_json(E), E.space)
        assert verify_bounds(E) == verify_bounds(back) == []
        for buckets in (1, 7):
            assert empirical_profile(E, buckets).marginal_count == empirical_profile(back, buckets).marginal_count

    def test_marginal_pair_counted_on_both_paths(self, path40_p1):
        reloaded = lower_missed_by(path40_p1, 0.5 * DEFAULT_TOL)
        in_memory = dataclasses.replace(path40_p1, family=dataclasses.replace(path40_p1.family, delta=reloaded.delta))
        assert marginal_oracle(reloaded) > 0
        assert verify_bounds(in_memory) == verify_bounds(reloaded) == []
        assert empirical_profile(in_memory, 4).marginal_count == marginal_oracle(reloaded)

    def test_lower_violation_found_on_both_paths(self, path40_p1):
        reloaded = lower_missed_by(path40_p1, 10.0 * DEFAULT_TOL)
        in_memory = dataclasses.replace(path40_p1, family=dataclasses.replace(path40_p1.family, delta=reloaded.delta))
        got, want = verify_bounds(in_memory), verify_bounds(reloaded)
        assert len(got) == len(want) == 1
        assert got[0].side == want[0].side == "lower"
        assert got[0].pair == want[0].pair
        assert got[0].measured == pytest.approx(want[0].measured, rel=1e-13)


def scaled_path():
    """path(10) with its distances scaled by 2^664 (about 1.5e200), exactly."""
    path = generate("path", 10)
    return FiniteMetricSpace(labels=path.labels, dist=np.ldexp(path.dist, 664))


class TestOverflowingEnvelope:
    """Where 2^p d^p overflows, the upper envelope is +inf and rho2 is 2d, with no RuntimeWarning (an error here)."""

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_scaled_path_certifies(self, p):
        E = build_embedding(scaled_path(), p=p)
        for emb in (E, reloaded_form(E)):
            assert verify_bounds(emb) == []
            profile = empirical_profile(emb, 9)
            assert profile.violations == ()
            # every edge but 0 overflows 2^p d^p; the +1 is below resolution there
            assert profile.rho2_theory == (1.0,) + tuple(2.0 * e for e in profile.edges[1:])


class TestExport:
    def test_csv_layout(self, hc5_p1):
        B = 6
        profile = empirical_profile(hc5_p1, B)
        text = export(profile, "csv").decode("utf-8")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["t_lo", "t_hi", "pair_count", "emp_min", "emp_max", "rho1", "rho2"]
        assert len(rows) == B + 1

    def test_csv_significant_digits(self, hc5_p1):
        profile = empirical_profile(hc5_p1, 3)
        text = export(profile, "csv").decode("utf-8")
        row = next(csv.DictReader(io.StringIO(text)))
        assert float(row["emp_max"]) == profile.buckets[0].emp_max  # 17g round-trips

    def test_csv_empty_bucket_fields(self):
        X = FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, 1.0], [1.0, 0.0]]))
        E = build_embedding(X, p=1.0, level_count=2)
        profile = empirical_profile(E, 5)
        rows = list(csv.DictReader(io.StringIO(export(profile, "csv").decode())))
        empties = [r for r in rows if r["pair_count"] == "0"]
        assert empties
        assert all(r["emp_min"] == "" and r["emp_max"] == "" for r in empties)

    def test_json_round_trip_exact(self, hc5_p1):
        profile = empirical_profile(hc5_p1, 9)
        assert_json_mirrors(json.loads(export(profile, "json")), profile)

    def test_json_round_trip_with_violations(self, path40_p1):
        profile = empirical_profile(tampered(path40_p1, 39, 0.0), 5)
        assert profile.violations
        assert_json_mirrors(json.loads(export(profile, "json")), profile)

    def test_unknown_format(self, hc5_p1):
        with pytest.raises(ValueError):
            export(empirical_profile(hc5_p1, 2), "xml")
