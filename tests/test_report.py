"""The claim-verification report pipeline (repro.report)."""

import json
import math
from contextlib import contextmanager

import pytest

from repro.experiments import ExperimentSpec
from repro.report import (
    CLAIMS,
    CheckResult,
    Claim,
    Evidence,
    ReportRunner,
    band_check,
    doubling_check,
    exponent_check,
    get_claims,
    rate_check,
    register_claim,
    render_json,
    render_markdown,
    run_report,
    summary_table,
    value_check,
)


# ----------------------------------------------------------------------
# Bound checks are total: degenerate data fails, never raises
# ----------------------------------------------------------------------
class TestChecks:
    def test_exponent_check_passes_in_window(self):
        xs = [10, 20, 40]
        ys = [3 * x for x in xs]
        check = exponent_check("lin", xs, ys, low=0.9, high=1.1, claimed="1")
        assert check.passed
        assert "exponent 1.00" in check.measured

    def test_exponent_check_fails_outside_window(self):
        xs = [10, 20, 40]
        ys = [x ** 2 for x in xs]
        assert not exponent_check("sq", xs, ys, low=0.9, high=1.1,
                                  claimed="1").passed

    @pytest.mark.parametrize("xs,ys", [
        ([7], [3]),                 # single point
        ([1, 2, 4], [5, 0, 20]),    # zero cost
        ([1, 2, 4], [5, -1, 20]),   # negative cost
        ([5, 5, 5], [1, 2, 3]),     # degenerate x axis
        ([], []),                   # empty sweep
    ])
    def test_exponent_check_degenerate_fails_not_raises(self, xs, ys):
        check = exponent_check("bad", xs, ys, low=0, high=2, claimed="1")
        assert not check.passed
        assert "unmeasurable" in check.measured

    def test_band_check(self):
        assert band_check("b", [10, 20], [20, 41], max_ratio=2.1,
                          claimed="2").passed
        assert not band_check("b", [10, 20], [20, 60], max_ratio=2.1,
                              claimed="2").passed
        assert not band_check("b", [10, 20], [20, 41], max_ratio=3.0,
                              max_spread=1.01, claimed="2").passed
        assert not band_check("b", [], [], max_ratio=1, claimed="2").passed

    def test_doubling_check(self):
        assert doubling_check("d", [1, 2, 4], low=1.8, high=2.2,
                              claimed="2x").passed
        assert not doubling_check("d", [1, 2, 8], low=1.8, high=2.2,
                                  claimed="2x").passed
        assert not doubling_check("d", [0, 0], low=0, high=9,
                                  claimed="2x").passed

    def test_value_check_bounds(self):
        assert value_check("v", 1.5, at_least=1, at_most=2, claimed="").passed
        assert not value_check("v", 2.5, at_most=2, claimed="").passed
        assert not value_check("v", 0.5, at_least=1, claimed="").passed
        with pytest.raises(ValueError):
            value_check("v", 1.0, claimed="no bounds")

    def test_value_check_nan_fails_not_passes(self):
        check = value_check("v", float("nan"), at_most=2, claimed="")
        assert not check.passed
        assert "unmeasurable" in check.measured

    def test_rate_check(self):
        assert rate_check("r", 0.97, at_least=0.9, claimed="whp").passed
        assert not rate_check("r", 0.5, at_least=0.9, claimed="whp").passed


# ----------------------------------------------------------------------
# Registry invariants
# ----------------------------------------------------------------------
class TestRegistry:
    def test_at_least_ten_claims_including_headline(self):
        assert len(CLAIMS) >= 10
        assert "headline-sublinear" in CLAIMS

    def test_every_claim_builds_a_distinct_smoke_spec(self):
        names = set()
        for claim in CLAIMS.values():
            spec = claim.build_spec("smoke", 0)
            assert isinstance(spec, ExperimentSpec), claim.id
            assert spec.name not in names, "cache files must not collide"
            names.add(spec.name)

    def test_full_grid_specs_build_too(self):
        for claim in CLAIMS.values():
            spec = claim.build_spec("full", 0)
            assert spec is None or isinstance(spec, ExperimentSpec)

    def test_unknown_grid_skips(self):
        for claim in CLAIMS.values():
            assert claim.build_spec("no-such-grid", 0) is None

    def test_duplicate_registration_rejected(self):
        claim = CLAIMS["intro-trivial"]
        with pytest.raises(ValueError, match="already registered"):
            register_claim(claim)

    def test_get_claims_unknown_id(self):
        with pytest.raises(KeyError, match="no-such"):
            get_claims(["no-such"])
        assert [c.id for c in get_claims(["intro-trivial"])] == \
            ["intro-trivial"]


# ----------------------------------------------------------------------
# Verdict logic
# ----------------------------------------------------------------------
@contextmanager
def temp_claim(claim):
    register_claim(claim)
    try:
        yield claim
    finally:
        CLAIMS.pop(claim.id, None)


def _tiny_spec(claim_id):
    def build(grid, seed):
        if grid != "smoke":
            return None
        return ExperimentSpec(name=f"report-{claim_id}--{grid}",
                              task="elect", algorithms=["trivial"],
                              graphs=["ring:8"], trials=2, seed=seed)
    return build


def _claim(claim_id, evaluate):
    return Claim(id=claim_id, result="Fake", statement="fabricated",
                 claimed_time="-", claimed_messages="-", knowledge="n",
                 build_spec=_tiny_spec(claim_id), evaluate=evaluate)


class TestVerdicts:
    def test_diverging_series_reports_diverged_not_crash(self, tmp_path):
        # Fabricated measurement: flat costs sold as "grows linearly",
        # plus a zero cost that makes the power-law fit impossible.
        def evaluate(groups):
            return Evidence(headline="fabricated", checks=[
                exponent_check("flat-as-linear", [1, 2, 4], [9, 9.1, 9],
                               low=0.9, high=1.1, claimed="linear"),
                exponent_check("unfittable", [1, 2, 4], [0, 5, 10],
                               low=0.9, high=1.1, claimed="linear"),
            ])

        with temp_claim(_claim("fake-diverging", evaluate)):
            report = run_report(grid="smoke", seed=0,
                                cache_dir=str(tmp_path / "c"),
                                claim_ids=["fake-diverging"])
        (claim_report,) = [cr for cr in report.claims
                           if cr.claim.id == "fake-diverging"]
        assert claim_report.verdict == "diverged"
        assert not any(c.passed for c in claim_report.checks)
        assert report.verdicts["diverged"] == 1

    def test_crashing_evaluation_reports_diverged(self, tmp_path):
        def evaluate(groups):
            raise RuntimeError("synthetic analysis bug")

        with temp_claim(_claim("fake-crashing", evaluate)):
            report = run_report(grid="smoke", seed=0,
                                cache_dir=str(tmp_path / "c"),
                                claim_ids=["fake-crashing", "intro-trivial"])
        by_id = {cr.claim.id: cr for cr in report.claims}
        crashed = by_id["fake-crashing"]
        assert crashed.verdict == "diverged"
        assert "synthetic analysis bug" in crashed.headline
        # The sweep ran before the evaluation broke; the accounting
        # must say so rather than reporting zero work.
        assert crashed.cells == 2
        # The crash must not take down the rest of the run.
        assert by_id["intro-trivial"].verdict == "verified"

    def test_crashing_spec_construction_reports_diverged(self, tmp_path):
        def bad_build(grid, seed):
            return ExperimentSpec(name="report-fake-badspec--smoke",
                                  algorithms=["trivial"], graphs=[],
                                  trials=1, seed=seed)

        claim = Claim(id="fake-badspec", result="Fake",
                      statement="fabricated", claimed_time="-",
                      claimed_messages="-", knowledge="n",
                      build_spec=bad_build,
                      evaluate=lambda groups: Evidence(headline="n/a"))
        with temp_claim(claim):
            report = run_report(grid="smoke", seed=0,
                                cache_dir=str(tmp_path / "c"),
                                claim_ids=["fake-badspec", "intro-trivial"])
        by_id = {cr.claim.id: cr for cr in report.claims}
        assert by_id["fake-badspec"].verdict == "diverged"
        assert "spec construction failed" in by_id["fake-badspec"].headline
        assert by_id["intro-trivial"].verdict == "verified"

    def test_empty_checks_cannot_verify(self):
        assert not Evidence(headline="no evidence", checks=[]).passed

    def test_filtered_claims_are_reported_skipped(self, tmp_path):
        report = run_report(grid="smoke", seed=0,
                            cache_dir=str(tmp_path / "c"),
                            claim_ids=["intro-trivial"])
        assert len(report.claims) == len(CLAIMS)
        skipped = [cr for cr in report.claims if cr.verdict == "skipped"]
        assert len(skipped) == len(CLAIMS) - 1

    def test_unsupported_grid_skips(self):
        runner = ReportRunner(grid="no-such-grid", seed=0)
        report = runner.run(["intro-trivial"])
        (cr,) = [c for c in report.claims if c.claim.id == "intro-trivial"]
        assert cr.verdict == "skipped"
        assert "no spec" in cr.skip_reason


# ----------------------------------------------------------------------
# Determinism and caching
# ----------------------------------------------------------------------
class TestDeterminismAndCache:
    def test_second_run_is_fully_cached_and_byte_identical(self, tmp_path):
        kwargs = dict(grid="smoke", seed=0,
                      cache_dir=str(tmp_path / "cache"),
                      claim_ids=["intro-trivial", "thm-3.13-time-lb"])
        first = run_report(**kwargs)
        second = run_report(**kwargs)
        assert first.executed > 0
        assert second.executed == 0
        assert second.cached == first.cells
        assert render_json(first) == render_json(second)
        assert render_markdown(first) == render_markdown(second)

    def test_report_json_has_no_run_counters(self, tmp_path):
        report = run_report(grid="smoke", seed=0,
                            cache_dir=str(tmp_path / "cache"),
                            claim_ids=["intro-trivial"])
        doc = json.loads(render_json(report))
        assert "executed" not in json.dumps(doc)
        assert doc["verdicts"]["verified"] == 1

    def test_table1_is_cache_warm_after_report(self, tmp_path, monkeypatch):
        """`repro table1` must do zero simulation work on a warm cache."""
        from repro.experiments import runner as exp_runner

        calls = []
        real_execute = exp_runner.execute_cell
        monkeypatch.setattr(exp_runner, "execute_cell",
                            lambda cell: calls.append(cell)
                            or real_execute(cell))

        cache = str(tmp_path / "cache")

        def table1():
            report = run_report(grid="smoke", seed=0, cache_dir=cache)
            return summary_table(report, markdown=False)

        first = table1()
        cold_calls = len(calls)
        assert cold_calls > 0
        second = table1()
        assert len(calls) == cold_calls, \
            "warm table1 re-ran simulations instead of hitting the cache"
        assert first == second


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
class TestRendering:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("cache")
        return run_report(grid="smoke", seed=0, cache_dir=str(cache),
                          claim_ids=["intro-trivial"])

    def test_summary_table_text_and_markdown(self, report):
        text = summary_table(report)
        assert "Result" in text and "Verdict" in text
        markdown = summary_table(report, markdown=True)
        assert markdown.startswith("| Result |")
        # One header, one rule, one row per claim.
        assert len(markdown.splitlines()) == len(CLAIMS) + 2

    def test_markdown_report_structure(self, report):
        doc = render_markdown(report)
        assert doc.startswith("# EXPERIMENTS")
        assert "repro report --grid smoke --seed 0" in doc
        for claim_id in CLAIMS:
            assert claim_id in doc

    def test_json_roundtrip(self, report):
        doc = json.loads(render_json(report))
        assert doc["pipeline"] == "repro.report"
        assert doc["grid"] == "smoke" and doc["seed"] == 0
        assert len(doc["claims"]) == len(CLAIMS)
        for claim in doc["claims"]:
            assert claim["verdict"] in {"verified", "diverged", "skipped"}
            for check in claim["checks"]:
                assert set(check) == {"name", "claimed", "measured",
                                      "passed"}

    def test_check_result_json(self):
        check = CheckResult(name="n", claimed="c", measured="m",
                            passed=True)
        assert check.to_json() == {"name": "n", "claimed": "c",
                                   "measured": "m", "passed": True}


# ----------------------------------------------------------------------
# The truncated-elect task backing Theorem 3.13
# ----------------------------------------------------------------------
class TestTruncatedElectTask:
    def test_sweep_reports_truncation_metrics(self, tmp_path):
        from repro.experiments import run_sweep

        sweep = run_sweep(ExperimentSpec(
            name="trunc-test", task="truncated-elect",
            algorithms=["least-el"],
            params={"instance": ["16:4"], "frac": [0.25, 6.0]},
            trials=2, seed=0))
        assert sweep.cells == 4
        for result in sweep.results:
            metrics = result.metrics
            assert metrics["d_prime"] >= 1
            assert metrics["horizon"] >= 1
            assert isinstance(metrics["success"], bool)
        groups = sweep.groups()
        early = min(groups, key=lambda g: g.params["frac"])
        late = max(groups, key=lambda g: g.params["frac"])
        # The long horizon clears the diameter; the short one cannot.
        assert late.rates["success"] >= early.rates["success"]
        assert all(r.metrics["truncated"] for r in sweep.results
                   if r.cell.param_dict["frac"] == 0.25)

    def test_bad_params_rejected(self):
        from repro.experiments import execute_cell

        spec = ExperimentSpec(name="t", task="truncated-elect",
                              algorithms=["least-el"],
                              params={"instance": ["16:4"],
                                      "frac": [-1.0]}, seed=0)
        with pytest.raises(ValueError, match="positive"):
            execute_cell(spec.expand()[0])

        spec = ExperimentSpec(name="t", task="truncated-elect",
                              algorithms=["least-el"], graphs=["ring:8"],
                              params={"instance": ["16:4"],
                                      "frac": [1.0]}, seed=0)
        with pytest.raises(ValueError, match="does not support"):
            execute_cell(spec.expand()[0])


class TestClaimMath:
    def test_trivial_success_probability_is_about_one_over_e(self):
        # Sanity-check the claim's tolerance window against the exact
        # value n·(1/n)·(1−1/n)^(n−1) at the smoke grid's n=16.
        exact = (1 - 1 / 16) ** 15
        assert 0.15 < exact < 0.65
        assert exact == pytest.approx(1 / math.e, abs=0.03)
