import pytest

from coopmab.suites import SUITES, run_suite

EXPECTED = {"exp3"}


def test_suite_registry():
    assert set(SUITES) == EXPECTED
    with pytest.raises(ValueError):
        run_suite("bogus", 0)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_suite_passes(name):
    report = run_suite(name, 1)
    assert report.ok, report.lines()
    assert report.checks
    lines = report.lines()
    assert lines[0].startswith(f"suite {name}:")
    assert all("PASS" in ln for ln in lines[1:])


def test_suites_seeded_reports_are_stable():
    a = run_suite("exp3", 5)
    b = run_suite("exp3", 5)
    assert a.lines() == b.lines()
