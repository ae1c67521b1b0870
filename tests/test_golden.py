"""Golden CLI envelopes: payload, verdicts, conjecture flags and exit code
of a fixed set of small argv, compared byte for byte with a recorded
fixture.  Refactors of the engine must leave every entry unchanged.

Regenerate the fixture (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from braidpow import cli

FIXTURE = Path(__file__).with_name("golden_envelopes.json")

ARGVS = [
    ["sym-power", "--l", "2", "--n", "3"],
    ["sym-power", "--l", "3", "--n", "3"],
    ["sym-power", "--l", "4", "--n", "3"],
    ["sym-power", "--l", "2", "--n", "4"],
    ["sym-power", "--l", "1", "--n", "2"],
    ["sym-power", "--l", "3", "--n", "3", "--mode", "specialize", "--seed", "1"],
    ["sym-power", "--l", "2", "--n", "4", "--mode", "specialize", "--seed", "3"],
    ["sym-power", "--d", "2", "--n", "4"],
    ["sym-power", "--d", "2", "--k", "2", "--n", "2"],
    ["sym-power", "--l", "7", "--n", "3"],
    ["ext-power", "--l", "4", "--n", "3"],
    ["ext-power", "--l", "4", "--n", "4"],
    ["ext-power", "--l", "3", "--n", "3", "--mode", "specialize", "--seed", "6"],
    ["ext-power", "--l", "4", "--n", "3", "--mode", "specialize", "--seed", "5"],
    ["ext-power", "--d", "3", "--n", "3"],
    ["ext-power", "--d", "2", "--k", "2", "--n", "3"],
    ["triple-product", "--beta", "2,1,1", "--eps", "+"],
    ["triple-product", "--beta", "2,2,2", "--eps", "-"],
    ["triple-product", "--beta", "3,2,3", "--eps", "+"],
    ["triple-product", "--beta", "2,1,1", "--eps", "+", "--mode", "specialize", "--seed", "2"],
    ["triple-product", "--beta", "1,2,3", "--eps", "-", "--mode", "specialize", "--seed", "4"],
    ["flatness", "--l", "2"],
    ["flatness", "--l", "3"],
    ["hilbert", "--l", "3", "--n", "4"],
    ["hilbert", "--l", "3", "--n", "4", "--mode", "specialize", "--seed", "7"],
    ["hilbert", "--l", "3", "--n", "6"],
    ["koszul-probe", "--l", "3", "--n", "8"],
    ["gl3-generic"],
    ["gl3-degrees", "--lam", "3,1,0"],
    ["convex-certify", "--m", "3", "--n", "3", "--trials", "10", "--seed", "5"],
    ["poisson-closure", "--l", "3", "--n", "4"],
    ["ext-four", "--l", "2"],
    ["valuation-cover", "--l", "3"],
    ["qmatrix-check", "--d", "2", "--k", "2"],
    ["howe-check", "--d", "2", "--k", "2", "--n", "2"],
    ["howe-check", "--d", "3", "--k", "2", "--n", "2"],
    # the larger specialize-mode runs, whose sample-point arithmetic is the
    # largest in the corpus
    ["hilbert", "--l", "5", "--n", "4", "--mode", "specialize", "--seed", "8"],
    ["sym-power", "--l", "6", "--n", "3", "--mode", "specialize", "--seed", "9"],
    ["ext-power", "--l", "6", "--n", "3", "--mode", "specialize", "--seed", "10"],
    ["triple-product", "--beta", "3,2,3", "--eps", "+", "--mode", "specialize", "--seed", "12"],
    # specialize-mode powers past degree 4 and the fourth powers, whose
    # dims and components the relative tower must reproduce
    ["hilbert", "--l", "5", "--n", "5", "--mode", "specialize", "--seed", "13"],
    ["hilbert", "--l", "3", "--n", "7", "--mode", "specialize", "--seed", "14"],
    ["sym-power", "--l", "4", "--n", "4", "--mode", "specialize", "--seed", "15"],
    ["ext-power", "--l", "4", "--n", "4", "--mode", "specialize", "--seed", "16"],
    # specialized standard and matrix powers, decomposed from their weight
    # dims over gl_3 and gl_2 x gl_2
    ["sym-power", "--d", "3", "--n", "4", "--mode", "specialize", "--seed", "17"],
    ["ext-power", "--d", "2", "--k", "2", "--n", "3", "--mode", "specialize", "--seed", "18"],
]


def envelope_core(argv) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(list(argv))
    env = json.loads(buf.getvalue())
    return {
        "argv": list(argv),
        "code": code,
        "payload": env["payload"],
        "verdicts": env["verdicts"],
        "conjecture_flags": env["conjecture_flags"],
    }


def _blob(entry) -> str:
    return json.dumps(entry, indent=1, sort_keys=True)


@pytest.mark.parametrize("index", range(len(ARGVS)), ids=lambda i: " ".join(ARGVS[i]))
def test_golden_envelope(index):
    recorded = json.loads(FIXTURE.read_text())
    assert [e["argv"] for e in recorded] == ARGVS
    assert _blob(envelope_core(ARGVS[index])) == _blob(recorded[index])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden.py --record")
    entries = [envelope_core(argv) for argv in ARGVS]
    FIXTURE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
