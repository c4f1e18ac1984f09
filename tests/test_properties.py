"""Property tests over the documented input domain: cells anywhere in (0, 1]
(subnormals included) and mutated input files.

Every estimator returns a finite posterior that sums to 1 or raises a typed
:class:`~qlr.errors.QlrError`; swapping the two feature rows leaves each
posterior unchanged; and the command line exits 0, 2 or 3 on any file,
never with a traceback.  Draws are derandomized so the suite is repeatable.
"""

import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlr import (
    OverlapMatrix,
    QlrError,
    bayes_posterior,
    naive_posterior,
    new_table,
    overlap_coefficients,
    posterior_2x2,
    posterior_general,
    posterior_via_wavefunction,
)
from qlr.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

# Extreme draws must reach a typed error without a numpy warning on the way.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

# Complementarity tolerance of the constraint suites.
SUM_TOL = 1e-12
# Row swap only reorders the additions and products behind each posterior,
# so the two results differ by a few roundings of numbers at most 1.
SWAP_TOL = 1e-12

CELLS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_subnormal=True)


@st.composite
def tables(draw, shapes=((1, 2), (2, 2), (2, 3), (3, 2), (3, 3))):
    m, n = draw(st.sampled_from(shapes))
    x = [[draw(CELLS) for _ in range(n)] for _ in range(m)]
    raw = draw(st.none() | st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    priors = None if raw is None else [v / math.fsum(raw) for v in raw]
    return new_table(x, priors)


def _swapped(table):
    """The table with its first two feature rows exchanged."""
    order = [1, 0, *range(2, table.m)]
    return new_table(table.x[order], table.priors)


def _identity(table):
    return OverlapMatrix.identity(table.n, table.m)


def _solved(table):
    return overlap_coefficients(table).overlap_matrix()


def _estimators(table):
    """Every estimator that applies to ``table``, by name, as callables of
    the table (the row-swap test feeds them the swapped table)."""
    calls = {
        "naive": naive_posterior,
        "general_identity": lambda t: posterior_general(t, _identity(t)),
        "wavefunction_identity": lambda t: posterior_via_wavefunction(t, _identity(t)),
    }
    if (table.m, table.n) == (2, 2):
        for hbar in (None, 0.0, 0.5, 3.0):
            calls[f"posterior_2x2_hbar_{hbar}"] = lambda t, h=hbar: posterior_2x2(t, h)
        calls["general_solved"] = lambda t: posterior_general(t, _solved(t))
        calls["wavefunction_solved"] = lambda t: posterior_via_wavefunction(t, _solved(t))
    return calls


def _outcome(call, table):
    """The posterior's probabilities, or the class of the typed error."""
    try:
        pd = call(table)
    except QlrError as exc:
        return type(exc)
    probs = pd.probabilities
    assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs), probs
    assert abs(math.fsum(probs) - 1.0) <= SUM_TOL, probs
    return np.array(probs)


@PROPERTY_SETTINGS
@given(tables())
def test_every_estimator_gives_a_posterior_or_a_typed_error(table):
    for i in range(table.m):
        _outcome(lambda t: bayes_posterior(t, i), table)
    for call in _estimators(table).values():
        _outcome(call, table)


@PROPERTY_SETTINGS
@given(tables(shapes=((2, 2), (2, 3), (3, 2), (3, 3))))
def test_row_swap_leaves_every_posterior_unchanged(table):
    swapped = _swapped(table)
    for i, j in ((0, 1), (1, 0)):
        a = _outcome(lambda t: bayes_posterior(t, i), table)
        b = _outcome(lambda t: bayes_posterior(t, j), swapped)
        np.testing.assert_array_equal(a, b)
    for name, call in _estimators(table).items():
        a, b = _outcome(call, table), _outcome(call, swapped)
        if isinstance(a, type) or isinstance(b, type):
            assert a is b, name
        else:
            np.testing.assert_allclose(a, b, rtol=0.0, atol=SWAP_TOL, err_msg=name)


# --------------------------------------------------------------- CLI fuzz

INPUTS = {
    name: (REPO_ROOT / "docs" / name).read_bytes() for name in ("streets.csv", "streets.json")
}


@st.composite
def mutated_inputs(draw):
    """One of the two example files with a few bytes replaced, inserted or
    deleted, and the flags of one command line."""
    name = draw(st.sampled_from(sorted(INPUTS)))
    data = bytearray(INPUTS[name])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(st.sampled_from(b"0123456789.-+eE,\n\"[]{}: \x00\xff") | st.integers(0, 255))
        if edit == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if edit == "replace":
                data[at] = byte
            else:
                del data[at]
    command = draw(st.sampled_from(("analyze", "ranges")))
    flags = []
    if command == "analyze":
        method = draw(st.sampled_from((None, "all", "quantum", "wavefunction", "naive")))
        if method is not None:
            flags += ["--method", method]
        hbar = draw(st.none() | st.sampled_from(("0", "0.5", "-1", "nan", "inf")))
        if hbar is not None:
            flags.append(f"--hbar={hbar}")
    return name, bytes(data), [command, *flags, "--format", draw(st.sampled_from(("json", "text")))]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@PROPERTY_SETTINGS
@given(case=mutated_inputs())
def test_cli_exits_0_2_or_3_on_mutated_files(fuzz_dir, case):
    name, data, argv = case
    path = fuzz_dir / name
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    # In process, an escaping exception (a traceback) fails the test itself.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
