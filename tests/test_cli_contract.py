"""The CLI's exit-code contract under hostile arguments and input files.

Argument lists are built from ``build_parser()``'s own subcommands and
options, filled from a fixed pool of hostile tokens plus small valid
moduli, and from malformed files.  Whatever they hold, ``run`` returns
0 (ok), 1 (verification failure) or 2 (usage error) without raising,
and a usage error prints nothing on stdout and one ``error:`` line (or
argparse's usage message) on stderr.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import eweyl as E
from eweyl.cli import build_parser, run

HOSTILE = ["0", "-1", str(10**20), str(2**63), "-1/3", "1/0", "nan", "inf", "", "x"]
#: mid-size moduli pass the size limits but take minutes; only 1-3 are used
MODULI = ["1", "2", "3"]
INTEGERS = [t for t in HOSTILE if t.lstrip("-").isdigit()] + MODULI
#: tokens that get past argparse, by option
PLAUSIBLE = {
    "group": list(E.SUPPORTED_SELECTORS),
    "point": ["0", "1/2", "-1/3", "2/7", str(10**20)],
    "pin": ["0=1/3", "2=-1/2", "7=1", "1=1/0", "0=x"],
}


def _options():
    """Subcommand name -> its option actions, read from the parser."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in p._actions if a.option_strings and a.dest != "help"]
        for name, p in sub.choices.items()
    }


OPTIONS = _options()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid and malformed sample CSVs and coefficient JSONs, by option."""
    root = tmp_path_factory.mktemp("contract")
    system = E.system_from_selector("a1xa1")
    grid = E.build_point_grid(system, "e", 2)
    csv = "s0,s1,s0',s2,re,im\n" + "".join(
        ",".join([*map(str, gp.label), "0.5", "-0.25"]) + "\n" for gp in grid
    )
    spectrum = E.build_weight_grid(system, "e", 2)
    coeffs = {"group": "a1xa1", "kind": "e", "M": [2],
              "entries": [{"t": list(sp.label), "re": 0.5, "im": 0.0} for sp in spectrum]}
    text = json.dumps(coeffs)
    contents = {
        "samples": {
            "ok.csv": csv,
            "empty.csv": "",
            "truncated.csv": csv[: len(csv) // 2],
            "binary.csv": b"\xff\xfe\x00\x81" * 64,
            "oversize.csv": csv + csv.split("\n", 1)[1] * 2000,
        },
        "coeffs": {
            "ok.json": text,
            "empty.json": "",
            "truncated.json": text[: len(text) // 2],
            "binary.json": b"\x89PNG\r\n\x1a\n\xff" * 64,
            "oversize.json": json.dumps({**coeffs, "M": [10**20]}),
            "nested.json": "[" * 100_000,
        },
    }
    pools = {}
    for dest, files in contents.items():
        pools[dest] = [str(root)]  # a directory
        for name, data in files.items():
            path = root / name
            path.write_bytes(data if isinstance(data, bytes) else data.encode())
            pools[dest].append(str(path))
    pools["out"] = [str(root), str(root / "out.txt"), str(root / "missing" / "out.txt")]
    return root, pools


@st.composite
def _values(draw, action, pools):
    """Tokens for one option: mostly ones that get past argparse, else hostile."""
    if action.nargs == 0:
        return []
    plausible = INTEGERS if action.type is int else (
        PLAUSIBLE.get(action.dest, []) + pools.get(action.dest, [])
        + list(action.choices or ())
    )
    count = draw(st.integers(1, 4)) if action.nargs == "+" else 1
    return [
        draw(st.sampled_from(HOSTILE if draw(st.integers(0, 7)) == 0 else plausible))
        for _ in range(count)
    ]


@st.composite
def _argv(draw, pools):
    name = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [name]
    for action in OPTIONS[name]:
        if action.required or draw(st.booleans()):
            argv.append(action.option_strings[0])
            argv += draw(_values(action, pools))
    return argv


@settings(max_examples=500, deadline=5000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_exit_code_contract(inputs, monkeypatch, data):
    root, pools = inputs
    monkeypatch.chdir(root)  # a bare token given as --out lands here
    argv = data.draw(_argv(pools), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert err.getvalue().startswith("usage:") or (
            len(lines) == 1 and lines[0].startswith("error: ")
        ), lines


def test_every_subcommand_is_drawn():
    assert sorted(OPTIONS) == sorted(
        ["list-groups", "grid", "spectrum", "eval", "forward", "inverse", "interp",
         "verify", "tables", "contour", "dump-group"]
    )
