"""The suite's own pytest settings still report every failing test as a failure."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_is_one_failure_not_an_internal_error(pytester):
    # With warnings as errors, a warning raised while Hypothesis reports a
    # failing example would abort the whole run and hide every later result.
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    (pytester.mkdir("tests") / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_below_five(x):\n"
        "    assert x < 5\n"
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
