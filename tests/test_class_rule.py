"""One class rule behind every surface that names a square class.

known_bounds, SearchQuery and the CLI's bounds and search commands each
take a kind with an order or block sides.  Given any mix of kinds and
values, they refuse together with one message, or accept with one order.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latindist import ParameterError, SearchQuery, SudokuShape, known_bounds
from latindist.cli import main

KINDS = ("plain", "pandiagonal", "sudoku")
# the CLI names a missing flag in its own words; the library names the same gap
PRESENCE = {
    "--kind sudoku needs --a and --b": "sudoku squares need a block shape (a, b)",
    "--kind plain needs --n": "plain squares need an order n",
    "--kind pandiagonal needs --n": "pandiagonal squares need an order n",
}
VALUES = st.one_of(st.none(), st.integers(0, 6), st.integers(0, 6).map(np.int64),
                   st.sampled_from([3.0, 2.5, True, False]))
# no sides at all as a case of its own, or most plain and pandiagonal draws would only meet
# the refusal of block sides
SIDES = st.one_of(st.just((None, None)), st.tuples(VALUES, VALUES))


def _library(build):
    """('ok', the order build() gives) or ('refused', its ParameterError's message)."""
    try:
        return "ok", build().n
    except ParameterError as exc:
        return "refused", str(exc)


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process run; argparse's refusals exit 2 too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS + ("latin", "magic")), n=VALUES, sides=SIDES)
def test_every_surface_applies_one_class_rule(kind, n, sides):
    a, b = sides
    bounds = _library(lambda: known_bounds(kind, n=n, a=a, b=b))
    try:
        shape = None if a is None and b is None else SudokuShape(a, b)
    except ParameterError:
        pass  # no SudokuShape states these sides, so no SearchQuery can be asked
    else:
        query = _library(lambda: SearchQuery(n=n, constraint=kind, shape=shape))
        if kind in KINDS:
            assert query == bounds
        else:
            assert query[0] == "refused" and query[1].startswith("constraint must be one of")

    flags = [arg for name, value in (("n", n), ("a", a), ("b", b)) if value is not None
             for arg in (f"--{name}", str(value))]
    runs = [("bounds", lambda doc: doc["n"], _cli(["bounds", "--kind", kind, *flags])),
            ("search", lambda doc: doc["query"]["n"],
             _cli(["search", "--kind", kind, *flags, "--min-dist", "1", "--mode", "exists",
                   "--budget", "1"]))]
    flag_values = all(v is None or isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                      for v in (n, a, b))
    if kind not in KINDS or not flag_values:
        # the flags cannot state another kind, a float or a bool: argparse refuses them, and
        # the library refuses the value itself
        assert bounds[0] == "refused"
        for command, _, (code, out, _) in runs:
            assert (code, out) == (2, ""), command
        return
    for command, order, (code, out, err) in runs:
        if bounds[0] == "ok":
            assert (code, err) == (0, ""), command
            assert order(json.loads(out)) == bounds[1], command
        else:
            assert (code, out) == (2, ""), command
            assert err.startswith("latindist: ") and err.endswith("\n"), command
            message = err[len("latindist: "):-1]
            assert PRESENCE.get(message, message) == bounds[1], command
