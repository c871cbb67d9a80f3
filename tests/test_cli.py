"""CLI subcommands, exit codes, and file round trips (in-process, plus one console run)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpembed
from lpembed import cli, coarse_embedder, distortion_report, mazur, metric_spaces
from lpembed.cli import main
from lpembed.metric_spaces import FiniteMetricSpace, load_space, load_space_lenient, save_space, validate


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def hc3_file(tmp_path):
    path = tmp_path / "s.json"
    assert run("gen", "--kind", "hypercube", "--param", "3", "--out", str(path)) == 0
    return path


class TestGen:
    def test_writes_valid_space(self, hc3_file):
        payload = json.loads(hc3_file.read_text())
        assert len(payload["labels"]) == 8
        assert payload["meta"]["kind"] == "hypercube"

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("gen", "--kind", "gaussian", "--param", "30", "--seed", "7", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gaussian_without_seed_is_usage_error(self, tmp_path):
        code = run("gen", "--kind", "gaussian", "--param", "10", "--out", str(tmp_path / "g.json"))
        assert code == 2

    def test_bad_param(self, tmp_path):
        assert run("gen", "--kind", "hypercube", "--param", "99", "--out", str(tmp_path / "x.json")) == 2

    def test_too_few_points(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run("gen", "--kind", "cycle", "--param", "2", "--out", str(out)) == 2
        assert "cycle needs at least 3 points, got 2" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_valid_space(self, hc3_file):
        assert run("validate", "--space", str(hc3_file)) == 0

    def test_violations_reported_with_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "labels": ["a", "b", "c"],
            "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            "meta": {},
        }))
        assert run("validate", "--space", str(path)) == 1
        err = capsys.readouterr().err
        assert "triangle" in err

    def test_missing_file(self):
        assert run("validate", "--space", "/no/such/file.json") == 2


class TestEmbedReport:
    def test_end_to_end_zero_violations(self, hc3_file, tmp_path):
        emb = tmp_path / "e.json"
        csv_out = tmp_path / "prof.csv"
        code = run(
            "embed", "--space", str(hc3_file), "--p", "1", "--levels", "5",
            "--delta", "1.0", "--base", "0", "--out", str(emb),
        )
        assert code == 0
        code = run(
            "report", "--space", str(hc3_file), "--embedding", str(emb),
            "--buckets", "6", "--csv", str(csv_out),
        )
        assert code == 0
        lines = csv_out.read_text().strip().splitlines()
        assert len(lines) == 7
        assert lines[0] == "t_lo,t_hi,pair_count,emp_min,emp_max,rho1,rho2"

    def test_embed_deterministic(self, hc3_file, tmp_path):
        outs = []
        for name in ("e1.json", "e2.json"):
            out = tmp_path / name
            assert run("embed", "--space", str(hc3_file), "--p", "1.5", "--levels", "4", "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_decimal_exponent_accepted(self, hc3_file, tmp_path):
        out = tmp_path / "e.json"
        assert run("embed", "--space", str(hc3_file), "--p", "1.5", "--levels", "3", "--out", str(out)) == 0
        assert json.loads(out.read_text())["p"] == 1.5

    def test_tampered_embedding_reports_violations_exit_1(self, tmp_path):
        space_file = tmp_path / "p.json"
        emb = tmp_path / "e.json"
        assert run("gen", "--kind", "path", "--param", "40", "--out", str(space_file)) == 0
        assert run("embed", "--space", str(space_file), "--p", "1", "--levels", "5", "--out", str(emb)) == 0
        payload = json.loads(emb.read_text())
        # point 39 takes the base point's images, so its image is the base's
        payload["images"]["39"] = payload["images"]["0"]
        emb.write_text(json.dumps(payload))
        code = run("report", "--space", str(space_file), "--embedding", str(emb), "--buckets", "4")
        assert code == 1

    def test_violation_count_past_the_cap_exit_1(self, tmp_path, capsys):
        # gaussian(60) with point k's level-1 block set to (k 1e6, 0, ...): all
        # 1770 pairs at least 1e6 apart, above rho2
        space_file, emb, out = tmp_path / "s.json", tmp_path / "e.json", tmp_path / "r.json"
        assert run("gen", "--kind", "gaussian", "--param", "60", "--seed", "1", "--out", str(space_file)) == 0
        assert run("embed", "--space", str(space_file), "--p", "1.3", "--out", str(emb)) == 0
        payload = json.loads(emb.read_text())
        for k, blocks in enumerate(payload["images"].values()):
            blocks[0] = [k * 1e6] + [0.0] * (len(blocks[0]) - 1)
        emb.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("report", "--space", str(space_file), "--embedding", str(emb), "--json", str(out)) == 1
        printed = capsys.readouterr()
        assert printed.out.startswith(f"{emb}: 1770 envelope violations")
        assert len(printed.err.splitlines()) == 20
        profile = json.loads(out.read_text())
        assert profile["violation_count"] == 1770
        assert len(profile["violations"]) == distortion_report.MAX_VIOLATIONS

    def test_negative_type_non_metric_certifies(self, tmp_path, capsys):
        # squared distances on a path break the triangle inequality, but d is of
        # negative type: validate reports it (exit 1), embed and report certify
        space_file, emb = tmp_path / "sq.json", tmp_path / "e.json"
        space_file.write_text(json.dumps({"labels": ["a", "b", "c"], "dist": [[0, 1, 4], [1, 0, 1], [4, 1, 0]]}))
        assert run("validate", "--space", str(space_file)) == 1
        assert "triangle(0, 1, 2)" in capsys.readouterr().err
        for p in ("1", "1.3", "2", "3"):
            assert run("embed", "--space", str(space_file), "--p", p, "--out", str(emb)) == 0
            assert run("report", "--space", str(space_file), "--embedding", str(emb)) == 0
            assert ": 0 envelope violations" in capsys.readouterr().out

    def test_non_negative_type_kernel_exit_3(self, tmp_path, capsys):
        # K_{2,3}, whose distances are not of negative type: no kernel
        # exp(-t d^beta), beta in {1, 2}, is PSD at every bandwidth
        k23 = FiniteMetricSpace(
            labels=("a", "b", "x", "y", "z"),
            dist=np.array(
                [[0, 2, 1, 1, 1], [2, 0, 1, 1, 1], [1, 1, 0, 2, 2], [1, 1, 2, 0, 2], [1, 1, 2, 2, 0]], dtype=float
            ),
        )
        space_file = tmp_path / "k23.json"
        save_space(k23, space_file)
        code = run("embed", "--space", str(space_file), "--p", "2", "--out", str(tmp_path / "e.json"))
        assert code == 3
        assert "not of negative type (beta = 1)" in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("scale", [664, 1016, 1019])
    @pytest.mark.parametrize("p", ["2", "3"])
    def test_overflowing_upper_envelope_exit_0(self, p, scale, tmp_path):
        # path(10) scaled by 2^scale: 2^p d^p overflows to +inf, which no finite
        # sum exceeds, and up to 2^1019 (largest distance 5.1e307) the kernel,
        # the negative-type test and the 1000 bucket indices stay finite, with
        # no RuntimeWarning (an error in this suite)
        path = metric_spaces.generate("path", 10)
        space_file, emb = tmp_path / "s.json", tmp_path / "e.json"
        save_space(FiniteMetricSpace(labels=path.labels, dist=np.ldexp(path.dist, scale)), space_file)
        assert run("embed", "--space", str(space_file), "--p", p, "--out", str(emb)) == 0
        report = ("report", "--space", str(space_file), "--embedding", str(emb), "--buckets", "1000")
        assert run(*report, "--csv", str(tmp_path / "r.csv")) == 0

    def test_exponent_from_1024_exit_2(self, hc3_file, tmp_path, capsys):
        # 2^p overflows float64 from p = 1024 on
        assert run("embed", "--space", str(hc3_file), "--p", "1024", "--out", str(tmp_path / "e.json")) == 2
        assert "1 <= p < 1024" in capsys.readouterr().err

    def test_unreachable_delta_exit_3(self, hc3_file, tmp_path):
        code = run(
            "embed", "--space", str(hc3_file), "--p", "1", "--levels", "2",
            "--delta", "3.0", "--out", str(tmp_path / "e.json"),
        )
        assert code == 3

    @pytest.mark.parametrize("delta", ["inf", "nan", "0"])
    def test_delta_not_finite_positive_exit_2(self, delta, hc3_file, tmp_path, capsys):
        # inf once exited 3 (beyond the reachable ceiling) where nan and 0 exit 2
        code = run(
            "embed", "--space", str(hc3_file), "--p", "1", "--levels", "2",
            "--delta", delta, "--out", str(tmp_path / "e.json"),
        )
        assert code == 2
        assert "delta must be finite and positive" in capsys.readouterr().err

    def test_base_out_of_range_exit_2(self, hc3_file, tmp_path):
        code = run("embed", "--space", str(hc3_file), "--p", "1", "--base", "99",
                   "--out", str(tmp_path / "e.json"))
        assert code == 2

    @staticmethod
    def spy_validate(monkeypatch):
        calls = []

        def spy(space, *rest):
            calls.append(space.n)
            return validate(space, *rest)

        for module in (cli, coarse_embedder, metric_spaces):
            monkeypatch.setattr(module, "validate", spy)
        return calls

    def test_embed_validates_once(self, hc3_file, tmp_path, monkeypatch):
        # a space that passes the O(n^2) axioms builds with no triangle scan
        calls = self.spy_validate(monkeypatch)
        assert run("embed", "--space", str(hc3_file), "--p", "1", "--out", str(tmp_path / "e.json")) == 0
        assert calls == []

    def test_metric_violation_validated_once_exit_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "labels": ["a", "b", "c"],
            "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            "meta": {},
        }))
        # load_space loads it: only the triangle inequality fails
        with pytest.raises(ValueError) as loaded:
            validate(load_space_lenient(path)).require_ok()
        calls = self.spy_validate(monkeypatch)
        code = run("embed", "--space", str(path), "--p", "1", "--out", str(tmp_path / "e.json"))
        assert code == 2
        # d is not of negative type, and the refusal is validate's text, not a second formatter's
        err = capsys.readouterr().err
        assert err == f"error: {loaded.value}\n"
        assert err.startswith("error: space fails metric validation (1 violations): triangle(0, 1, 2): ")
        assert calls == [3]
        assert not (tmp_path / "e.json").exists()


MALFORMED_SPACES = {
    "labels_not_a_list": {"labels": 5, "dist": [[0]]},
    "labels_a_string": {"labels": "ab", "dist": [[0, 1], [1, 0]]},
    "labels_numbers": {"labels": [0, 1], "dist": [[0, 1], [1, 0]]},
    "meta_not_a_dict": {"labels": ["a"], "dist": [[0]], "meta": 5},
    "top_level_array": [["a"], [[0]]],
    "top_level_string": "space",
    "missing_dist": {"labels": ["a"]},
    "ragged_dist": {"labels": ["a", "b"], "dist": [[0, 1], [1]]},
    # a float cast would read these as numbers
    "dist_strings": {"labels": ["a", "b", "c"], "dist": [["0", "1", "2"], [True, 0, 1], [2, 1, 0]]},
    "dist_bools": {"labels": ["a", "b"], "dist": [[False, True], [True, False]]},
    # numpy would promote these booleans among numbers to 1 and 0
    "dist_bool_among_numbers": {"labels": ["a", "b"], "dist": [[0, True], [True, 0]]},
    "points_bool_among_numbers": {"labels": ["a", "b"], "dist": [[0, 1], [1, 0]], "meta": {"points": [[0.0], [True]]}},
    "dist_null": {"labels": ["a", "b"], "dist": [[0, None], [None, 0]]},
    "points_strings": {"labels": ["a", "b"], "dist": [[0, 1], [1, 0]], "meta": {"points": [["0"], ["1"]]}},
}


class TestMalformedSpaceFile:
    @pytest.mark.parametrize("command", ["validate", "embed", "report"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_SPACES))
    def test_usage_error_exit_2(self, command, case, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(MALFORMED_SPACES[case]))
        argv = {
            "validate": ["validate", "--space", str(path)],
            "embed": ["embed", "--space", str(path), "--p", "1", "--out", str(tmp_path / "e.json")],
            "report": ["report", "--space", str(path), "--embedding", str(tmp_path / "e.json")],
        }[command]
        assert run(*argv) == 2
        assert "malformed space payload" in capsys.readouterr().err


# (key path under "images", value put there, or a function of the value there);
# the corrupted point keeps its block count unless the case says otherwise
MALFORMED_IMAGES = {
    "images_not_an_object": ((), 5),
    "images_a_list": ((), [[[0.0]]]),
    "point_not_a_list": (("00",), 5),
    "point_no_blocks": (("00",), []),
    "block_not_a_list": (("00", 0), 5),
    "block_nested": (("00", 0), [[0.0], [1.0]]),
    "coeff_string": (("00", 0, 0), "a"),
    "coeff_list": (("00", 0, 0), [1.0]),
    "coeff_null": (("00", 0, 0), None),
    "coeff_bool": (("00", 0, 0), True),
    "coeff_nan": (("00", 0, 0), float("nan")),
    "coeff_inf": (("00", 0, 0), float("inf")),
    "coeff_minus_inf": (("00", 0, 0), float("-inf")),
    # one point's level-1 block one coefficient longer than the other points'
    "level_ragged": (("00", 0), lambda block: block + [0.0]),
    "point_extra_block": (("00",), lambda blocks: blocks + [blocks[-1]]),
}


class TestMalformedEmbeddingFile:
    @pytest.fixture()
    def hc2_embedding(self, tmp_path):
        space = tmp_path / "s.json"
        emb = tmp_path / "e.json"
        assert run("gen", "--kind", "hypercube", "--param", "2", "--out", str(space)) == 0
        assert run("embed", "--space", str(space), "--p", "1", "--out", str(emb)) == 0
        return space, emb

    @pytest.mark.parametrize("case", sorted(MALFORMED_IMAGES))
    def test_report_usage_error_exit_2(self, case, hc2_embedding, capsys):
        space, emb = hc2_embedding
        payload = json.loads(emb.read_text())
        path, value = MALFORMED_IMAGES[case]
        if path:
            target = payload["images"]
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value(target[path[-1]]) if callable(value) else value
        else:
            payload["images"] = value
        emb.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("report", "--space", str(space), "--embedding", str(emb)) == 2
        assert "malformed embedding payload" in capsys.readouterr().err

    # each of these once made report certify the file (exit 0): a delta that is
    # not finite and positive leaves the lower envelope vacuous, a fractional
    # base was truncated to another point, and a NaN threshold S dropped its
    # level from rho1
    @pytest.mark.parametrize("key,value,message", [
        ("delta", float("nan"), "delta must be finite and positive"),
        ("delta", 0.0, "delta must be finite and positive"),
        ("delta", -1.0, "delta must be finite and positive"),
        ("base", 1.7, "base must be an integer"),
        ("base", True, "base must be an integer"),
        # checked before any level is read
        ("base", 4, "base index must be an integer point index in 0..3, got 4"),
        ("base", -1, "base index must be an integer point index in 0..3, got -1"),
        ("S", float("nan"), "schedule S must be null or a finite positive number"),
        ("S", float("inf"), "schedule S must be null or a finite positive number"),
        ("S", 0.0, "schedule S must be null or a finite positive number"),
        ("S", -1.0, "schedule S must be null or a finite positive number"),
        # float() and int() would read a bool, a numeric string or a fraction
        ("p", True, "malformed embedding payload: p must be a number"),
        ("p", "2", "malformed embedding payload: p must be a number"),
        ("delta", "1.0", "malformed embedding payload: delta must be a number"),
        ("S", True, "malformed embedding payload: schedule S must be a number"),
        ("eps", "0.5", "malformed embedding payload: schedule eps must be a number"),
        ("t", True, "malformed embedding payload: schedule t must be a number"),
        ("n", 1.9, "malformed embedding payload: schedule n must be an integer"),
        ("n", True, "malformed embedding payload: schedule n must be an integer"),
        # each of these also passed report (exit 0), and a re-save wrote NaN and
        # Infinity back out as non-strict JSON
        ("eps", float("nan"), "level 1: eps must be finite and nonnegative"),
        ("eps", -1.0, "level 1: eps must be finite and nonnegative"),
        ("t", float("inf"), "level 1: t must be finite and positive"),
        ("t", -2.0, "level 1: t must be finite and positive"),
        ("n", 0, "level numbers n must run 1..4 in order, got [0, 2, 3, 4]"),
        ("n", 2, "level numbers n must run 1..4 in order, got [2, 2, 3, 4]"),
        # these exited 1 with an OverflowError traceback from 2.0 ** p
        ("p", 1e9, "malformed embedding payload: norm exponent must satisfy 1 <= p < 1024"),
        ("p", 1024, "malformed embedding payload: norm exponent must satisfy 1 <= p < 1024"),
    ])
    def test_report_bad_parameter_exit_2(self, key, value, message, hc2_embedding, capsys):
        space, emb = hc2_embedding
        payload = json.loads(emb.read_text())
        # schedule keys are set in the first level, the others at the top level
        target = payload["schedule"][0] if key in ("S", "eps", "t", "n") else payload
        target[key] = value
        emb.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("report", "--space", str(space), "--embedding", str(emb)) == 2
        assert message in capsys.readouterr().err


    def test_report_overflowing_offsets_exit_2(self, hc2_embedding, capsys):
        # finite images whose offsets from the base point overflow are refused
        # on load: each offset is a pair difference, which overflows the level's scan
        space, emb = hc2_embedding
        payload = json.loads(emb.read_text())
        payload["images"]["00"][0][0] = -1e308
        payload["images"]["11"][0][0] = 1e308
        emb.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("report", "--space", str(space), "--embedding", str(emb)) == 2
        err = capsys.readouterr().err
        assert "malformed embedding payload: level 1: pair_distances must be finite (no NaN/inf)" in err

    def test_report_overflowing_pair_distances_exit_2(self, tmp_path, capsys):
        # one image coordinate of 1e300 leaves every offset finite, but the
        # pair distances overflow |diff|^1.5; with RuntimeWarning an error, as
        # under pytest, report exited 1 (violations found) with a traceback
        space, emb = tmp_path / "s.json", tmp_path / "e.json"
        assert run("gen", "--kind", "hypercube", "--param", "4", "--out", str(space)) == 0
        assert run("embed", "--space", str(space), "--p", "1.5", "--out", str(emb)) == 0
        payload = json.loads(emb.read_text())
        payload["images"]["0000"][0][0] = 1e300
        emb.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("report", "--space", str(space), "--embedding", str(emb)) == 2
        err = capsys.readouterr().err
        assert "malformed embedding payload: level 1: pair_distances must be finite (no NaN/inf)" in err

    # a kernel name the file map does not hold, or levels of two kernels, once
    # passed report with exit 0
    @pytest.mark.parametrize("first,rest,message", [
        (5, 5, "schedule kernel must be one of ['gaussian', 'laplacian'], got 5"),
        ("cauchy", "cauchy", "schedule kernel must be one of ['gaussian', 'laplacian'], got 'cauchy'"),
        (["gaussian"], ["gaussian"], "schedule kernel must be one of ['gaussian', 'laplacian'], got ['gaussian']"),
        ("gaussian", "laplacian", "every level must use one kernel exponent beta, got [1.0, 2.0]"),
    ])
    def test_report_bad_kernel_kind_exit_2(self, first, rest, message, hc2_embedding, capsys):
        space, emb = hc2_embedding
        payload = json.loads(emb.read_text())
        assert len(payload["schedule"]) > 1
        for k, level in enumerate(payload["schedule"]):
            level["kernel"] = rest if k else first
        emb.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("report", "--space", str(space), "--embedding", str(emb)) == 2
        assert message in capsys.readouterr().err


class TestNestedJson:
    """A file nested too deep for json.loads is a malformed payload: exit 2, not 1."""

    @pytest.fixture()
    def nested(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", ["validate", "embed", "report"])
    def test_space_file_exit_2(self, command, nested, tmp_path, capsys):
        argv = {
            "validate": ["validate", "--space", str(nested)],
            "embed": ["embed", "--space", str(nested), "--p", "1", "--out", str(tmp_path / "e.json")],
            "report": ["report", "--space", str(nested), "--embedding", str(tmp_path / "e.json")],
        }[command]
        assert run(*argv) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_embedding_file_exit_2(self, nested, hc3_file, capsys):
        assert run("report", "--space", str(hc3_file), "--embedding", str(nested)) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestCheckMazur:
    def test_summary_and_exit_zero(self, capsys):
        assert run("check-mazur", "--p", "2", "--q", "1", "--dim", "64",
                   "--samples", "1000", "--seed", "7") == 0
        out = capsys.readouterr().out
        assert "worst lower excess" in out
        assert "worst upper excess" in out
        assert "max C-ratio" in out

    @pytest.mark.parametrize("p,q", [("1", "2"), ("1.5", "2"), ("2", "3")])
    def test_increasing_exponent_pairs(self, p, q):
        assert run("check-mazur", "--p", p, "--q", q, "--dim", "16", "--samples", "500", "--seed", "1") == 0

    def test_exponent_bound(self, capsys):
        # q = 1500 exited 1 with "max C-ratio inf"; 1023 is within the bound
        assert run("check-mazur", "--p", "2", "--q", "1500", "--samples", "100") == 2
        assert "1 <= p < 1024" in capsys.readouterr().err
        assert run("check-mazur", "--p", "2", "--q", "1023", "--dim", "64", "--samples", "100") == 0

    def test_deterministic_per_seed(self, capsys):
        run("check-mazur", "--p", "1", "--q", "2", "--dim", "8", "--samples", "100", "--seed", "5")
        first = capsys.readouterr().out
        run("check-mazur", "--p", "1", "--q", "2", "--dim", "8", "--samples", "100", "--seed", "5")
        assert capsys.readouterr().out == first


class TestSizeBounds:
    """Size arguments past their input bound exit 2 before their arrays are allocated."""

    HUGE = str(10**13)

    @pytest.mark.parametrize("dim", [metric_spaces.MAX_GAUSSIAN_DIM + 1, HUGE])
    def test_gen_gaussian_dim(self, dim, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = run("gen", "--kind", "gaussian", "--param", "10", "--seed", "1", "--dim", str(dim), "--out", str(out))
        assert code == 2
        assert f"dim must be in 1..{metric_spaces.MAX_GAUSSIAN_DIM}" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_gaussian_dim_at_bound(self, tmp_path):
        out = tmp_path / "g.json"
        dim = str(metric_spaces.MAX_GAUSSIAN_DIM)
        assert run("gen", "--kind", "gaussian", "--param", "3", "--seed", "1", "--dim", dim, "--out", str(out)) == 0

    @pytest.mark.parametrize("dim", [mazur.MAX_SAMPLE_DIM + 1, HUGE])
    def test_check_mazur_dim(self, dim, capsys):
        assert run("check-mazur", "--p", "1", "--q", "2", "--dim", str(dim), "--samples", "10") == 2
        assert f"dim must be at most {mazur.MAX_SAMPLE_DIM}" in capsys.readouterr().err

    def test_check_mazur_no_samples(self, capsys):
        assert run("check-mazur", "--p", "2", "--q", "1.5", "--samples", "0") == 2
        assert "dim and pairs must be positive" in capsys.readouterr().err

    def test_check_mazur_dim_at_bound(self, capsys):
        dim = str(mazur.MAX_SAMPLE_DIM)
        assert run("check-mazur", "--p", "1", "--q", "2", "--dim", dim, "--samples", "10") == 0
        capsys.readouterr()

    @pytest.mark.parametrize("buckets", [distortion_report.MAX_BUCKETS + 1, HUGE])
    def test_report_buckets(self, buckets, hc3_file, tmp_path, capsys):
        emb = tmp_path / "e.json"
        assert run("embed", "--space", str(hc3_file), "--p", "1", "--levels", "3", "--out", str(emb)) == 0
        csv_out = tmp_path / "prof.csv"
        code = run(
            "report", "--space", str(hc3_file), "--embedding", str(emb),
            "--buckets", str(buckets), "--csv", str(csv_out),
        )
        assert code == 2
        assert f"bucket count must be in 1..{distortion_report.MAX_BUCKETS}" in capsys.readouterr().err
        assert not csv_out.exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv,unknown", [
        (("gen", "--kind", "path", "--param", "3", "--out", "x.json", "--bogus"), "--bogus"),
        # the kernel follows from the distances; there is no --kernel option
        (("embed", "--space", "s.json", "--p", "1", "--kernel", "laplacian", "--out", "x.json"), "--kernel laplacian"),
    ])
    def test_unknown_flag(self, argv, unknown, capsys):
        assert run(*argv) == 2
        assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        assert run() == 2
        capsys.readouterr()


def test_module_entrypoint_exit_codes(tmp_path):
    """`python -m lpembed.cli` exits through entrypoint() with main()'s code."""
    src = str(Path(lpembed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def console(*argv):
        done = subprocess.run([sys.executable, "-m", "lpembed.cli", *argv], env=env, capture_output=True, text=True)
        return done.returncode, done.stderr

    space, emb = str(tmp_path / "s.json"), tmp_path / "e.json"
    assert console("gen", "--kind", "path", "--param", "12", "--out", space)[0] == 0
    assert console("embed", "--space", space, "--p", "1", "--levels", "5", "--out", str(emb))[0] == 0
    assert console("report", "--space", space, "--embedding", str(emb))[0] == 0
    payload = json.loads(emb.read_text())
    # point 11 takes the base point's images, so its image is the base's
    payload["images"]["11"] = payload["images"]["0"]
    emb.write_text(json.dumps(payload))
    code, err = console("report", "--space", space, "--embedding", str(emb))
    assert code == 1 and "lower: pair" in err
    code, err = console("report", "--space", space, "--embedding", str(tmp_path / "missing.json"))
    assert code == 2 and err.startswith("error: ")
