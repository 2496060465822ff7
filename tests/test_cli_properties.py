"""Property test of the CLI's exit-code contract on random, often malformed, JSON.

Every run of an instance command exits 0, 1, 2 or 3.  Exit 1 prints
exactly one `error:` line to standard error and no report; exits 0 and 2
print one JSON report.
"""
import contextlib
import io
import json

import pytest

from wefhouse.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

GOOD_WEIGHTS = st.one_of(st.integers(1, 6), st.sampled_from(["1", "2", "1/2", "3/4", " 5 "]))
GOOD_UTILITIES = st.one_of(st.integers(0, 6), st.sampled_from(["1", "0", "1/3", "0.25", "2/3"]))
ODD_NUMBERS = st.one_of(
    st.integers(-3, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
    st.sampled_from([
        "1_0", "١٢", "１/２", "1e99999", "1e4300", "1e-30", "-1", "1/0", "0/0", "",
        "x", "+3", "nan", "inf", "1/2/3", "0x10", "1 / 2", "\n", "1\n2",
    ]),
)
LABELS = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=3),
    st.lists(st.one_of(st.text(max_size=3), st.integers(), st.none()), max_size=4),
)
MODES = [
    ["solve"],
    ["check-wefable", "--allocation", "{allocation}"],
    ["subsidy", "--allocation", "{allocation}"],
    *(["special", "--mode", mode] for mode in ("auto", "identical", "two-type", "bivalued", "normalized")),
    ["oracle", "--query", "wef"],
    ["oracle", "--query", "wefable"],
]


@st.composite
def documents(draw):
    """An (instance, allocation) pair of JSON values, well formed or not."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 4))
    weight, utility = GOOD_WEIGHTS, GOOD_UTILITIES
    if draw(st.booleans()):
        weight, utility = st.one_of(weight, ODD_NUMBERS), st.one_of(utility, ODD_NUMBERS)
    instance = {
        "weights": draw(st.lists(weight, min_size=n, max_size=n)),
        "utilities": draw(st.lists(st.lists(utility, min_size=m, max_size=m), min_size=n, max_size=n)),
    }
    for key in ("agent_labels", "house_labels"):
        if draw(st.integers(0, 4)) == 0:
            instance[key] = draw(LABELS)
    if draw(st.integers(0, 9)) == 0:  # a row or a weight too many
        instance[draw(st.sampled_from(["weights", "utilities"]))].append(draw(weight))
    if draw(st.integers(0, 9)) == 0:
        instance = draw(st.one_of(ODD_NUMBERS, st.lists(ODD_NUMBERS, max_size=3)))
    assignment = draw(st.one_of(
        st.permutations(range(m)).map(lambda houses: houses[:n]),
        st.lists(st.one_of(st.integers(-1, m), ODD_NUMBERS), max_size=4),
    ))
    allocation = {"assignment": assignment} if draw(st.integers(0, 9)) else assignment
    return instance, allocation


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_mode_keeps_the_exit_code_contract(tmp_path):
    instance_path, allocation_path = tmp_path / "instance.json", tmp_path / "allocation.json"

    @hypothesis.settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @hypothesis.given(documents())
    def check(document):
        instance, allocation = document
        instance_path.write_text(json.dumps(instance), encoding="utf-8")
        allocation_path.write_text(json.dumps(allocation), encoding="utf-8")
        for mode in MODES:
            argv = [mode[0], "--input", str(instance_path), *mode[1:]]
            argv = [word.replace("{allocation}", str(allocation_path)) for word in argv]
            code, out, err = _run(argv)
            assert code in (0, 1, 2, 3), (argv, code)
            if code == 1:
                assert out == "", (argv, out)
                assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
            elif code in (0, 2):
                assert json.loads(out)["command"] == mode[0], (argv, out)

    check()
