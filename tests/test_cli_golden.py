"""Golden digests of the CLI's stdout.

Each digest is the sha256 of what ``eweyl.cli.run`` prints for one
command line, run in-process, so any change of a printed value, of its
formatting or of the order of rows shows up here.  Only outputs that
need no BLAS product are covered: grids, spectra, tables, single
orbit sums, contours and group dumps.  The transform commands
(``forward``, ``inverse``, ``interp``, ``verify``) go through matrix
products whose last bits may differ between BLAS builds.

To print fresh digests after an intended change of output:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io

import eweyl as E
from eweyl.cli import run


def _grid_commands():
    out = []
    for sel in E.SUPPORTED_SELECTORS:
        factors = len(E.system_from_selector(sel).factors)
        for kind, ms in (("e", ["3"]), ("ee", ["3"] * factors)):
            for command in ("grid", "spectrum"):
                out.append((command, "--group", sel, "--kind", kind, "--M", *ms))
    return out


COMMANDS = _grid_commands() + [
    ("tables",),
    ("tables", "--json"),
    ("eval", "--group", "a1xg2", "--kind", "e", "--lambda", "1", "2", "1",
     "--point", "1/3", "-1/4", "2/5"),
    ("eval", "--group", "a1xc2", "--kind", "ee", "--lambda", "2", "0", "1",
     "--M", "4", "4", "--label", "1", "3", "1", "1", "1"),
    ("contour", "--group", "a1xa1", "--kind", "e", "--lambda", "2", "1",
     "--samples-per-axis", "8"),
    ("contour", "--group", "a1xg2", "--kind", "e", "--lambda", "1", "0", "1",
     "--samples-per-axis", "6", "--pin", "0=1/3"),
    ("dump-group", "--group", "a1xg2", "--kind", "e"),
]


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    assert code == 0, (argv, code)
    return buf.getvalue()


def digests():
    return {
        " ".join(argv): hashlib.sha256(_stdout(argv).encode()).hexdigest()[:20]
        for argv in COMMANDS
    }


GOLDEN = {
    'grid --group a1xa1 --kind e --M 3': 'b309e35640b481086651',
    'spectrum --group a1xa1 --kind e --M 3': '90b9774c77c5f6235405',
    'grid --group a1xa1 --kind ee --M 3 3': '280867b8a2361d080131',
    'spectrum --group a1xa1 --kind ee --M 3 3': '84a3cd1c3d8c7f4e7050',
    'grid --group a1xa2 --kind e --M 3': '7cbeb96d39b1131ca2e0',
    'spectrum --group a1xa2 --kind e --M 3': 'bb5182ea4300193269d2',
    'grid --group a1xa2 --kind ee --M 3 3': '47894e402df9db26a320',
    'spectrum --group a1xa2 --kind ee --M 3 3': '3ebc0c0e2035548b7fd5',
    'grid --group a1xc2 --kind e --M 3': 'd6f0b652cca0c087bc60',
    'spectrum --group a1xc2 --kind e --M 3': '72e2c556ce5dd26b85c1',
    'grid --group a1xc2 --kind ee --M 3 3': 'a29be49afe3de6a71bbd',
    'spectrum --group a1xc2 --kind ee --M 3 3': '1ec4701f28f3b2daa9b3',
    'grid --group a1xg2 --kind e --M 3': 'f019adeacb838419181c',
    'spectrum --group a1xg2 --kind e --M 3': '377ba0ff940ae5547749',
    'grid --group a1xg2 --kind ee --M 3 3': '7ffec96d232de8100050',
    'spectrum --group a1xg2 --kind ee --M 3 3': '7635fbf32b703c781405',
    'grid --group a1xa1xa1 --kind e --M 3': 'bd632535d10de9851d2e',
    'spectrum --group a1xa1xa1 --kind e --M 3': '81bcbe3a565cfaaaa27f',
    'grid --group a1xa1xa1 --kind ee --M 3 3 3': '87bf94d063ca0f19da2d',
    'spectrum --group a1xa1xa1 --kind ee --M 3 3 3': 'bee102b16c40f2865fd9',
    'tables': 'd93ea269cb66bb3e6418',
    'tables --json': '164571e952e97d1ea2ee',
    'eval --group a1xg2 --kind e --lambda 1 2 1 --point 1/3 -1/4 2/5': 'ee8c622d03d988498ce6',
    'eval --group a1xc2 --kind ee --lambda 2 0 1 --M 4 4 --label 1 3 1 1 1': 'c1ba0c7e5018577edb37',
    'contour --group a1xa1 --kind e --lambda 2 1 --samples-per-axis 8': '1b6be29081296056e200',
    'contour --group a1xg2 --kind e --lambda 1 0 1 --samples-per-axis 6 --pin 0=1/3': '3a194c5d86ff38283640',
    'dump-group --group a1xg2 --kind e': 'c47632da64b619ad116f',
}


def test_cli_stdout_matches_golden_digests():
    got = digests()
    assert set(got) == set(GOLDEN)
    wrong = sorted(key for key in GOLDEN if got[key] != GOLDEN[key])
    assert not wrong, f"stdout changed: {wrong}"


if __name__ == "__main__":
    for key, value in digests().items():
        print(f"    {key!r}: {value!r},")
