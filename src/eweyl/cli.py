"""Command-line front end.

Subcommands: list-groups, grid, spectrum, eval, forward, inverse,
interp, verify, tables, contour, dump-group.  All outputs are
deterministic: canonical grid order, fixed float formatting, rationals
as ``num/den`` strings.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np

from .lie_data import (
    ConfigurationError,
    Q,
    SUPPORTED_SELECTORS,
    UsageError,
    coweight_gram,
    system_from_selector,
)
from .weyl import check_moduli, even_subgroup, int_dtype
from .grids import (
    MAX_GRID_CELLS,
    build_point_grid,
    build_weight_grid,
    domain_mask,
    label_names,
)
from .efunc import scaled_orbit_sums, xi
from .transform import (
    CoefficientSet,
    forward_discrete,
    gram_residual,
    inverse_discrete,
    make_samples,
    TOL_ORTHOGONALITY,
)
from . import transform
from .verify import KNOWN_ERRATA, TABLE_IDS, regenerate_table


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}") from None


def _finite(re_part, im_part, what: str, item) -> complex:
    """A finite complex value from two real parts read from a file; errors name ``what item``."""
    try:
        value = complex(float(re_part), float(im_part))
    except (TypeError, ValueError):
        raise UsageError(f"{what} {item!r}: not a pair of real numbers") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise UsageError(f"{what} {item!r}: value is not finite")
    return value


def _system(args):
    if args.group not in SUPPORTED_SELECTORS:
        raise UsageError(
            f"unknown group selector {args.group!r}; use one of {', '.join(SUPPORTED_SELECTORS)}"
        )
    return system_from_selector(args.group)


@contextlib.contextmanager
def _output(args):
    """The ``--out`` file if one is given, else ``sys.stdout`` as it is now."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as out:
            yield out
    else:
        yield sys.stdout


def _write_csv(args, header, rows):
    """Comma-joined ``header`` and ``rows`` (iterables of strings) to :func:`_output`, in turn."""
    with _output(args) as out:
        print(",".join(header), file=out)
        for row in rows:
            print(",".join(row), file=out)


def _sample_header(system):
    return label_names(system, "s") + ["re", "im"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_list_groups(args):
    for sel in SUPPORTED_SELECTORS:
        sysm = system_from_selector(sel)
        ge = even_subgroup(sysm, "e")
        gee = even_subgroup(sysm, "ee")
        print(f"{sel}  rank={sysm.n}  detC={sysm.det_cartan}  |We|={ge.order}  |Wee|={gee.order}")
    return 0


def _cmd_grid(args):
    sysm = _system(args)
    grid = build_point_grid(sysm, args.kind, args.M)
    header = label_names(sysm, "s") + [f"x{i + 1}" for i in range(sysm.n)] + ["eps"]
    # coordinates in lowest terms as ``num/den``, straight from the integer numerators
    g = np.gcd(grid.numerators, grid.denominator)
    nums, dens = (grid.numerators // g).tolist(), (grid.denominator // g).tolist()
    _write_csv(args, header, (
        [*map(str, label), *map("{}/{}".format, n, d), str(eps)]
        for label, n, d, eps in zip(grid.labels.tolist(), nums, dens, grid.eps.tolist())
    ))
    return 0


def _cmd_spectrum(args):
    sysm = _system(args)
    spectrum = build_weight_grid(sysm, args.kind, args.M)
    header = label_names(sysm, "t") + [f"a{i + 1}" for i in range(sysm.n)] + ["h"]
    _write_csv(args, header, (
        [*map(str, label), *map(str, weight), str(h)] for label, weight, h in
        zip(spectrum.labels.tolist(), spectrum.weights.tolist(), spectrum.h.tolist())
    ))
    return 0


def _point_from_args(sysm, args):
    if args.point is not None and args.label is not None:
        raise UsageError("give either --point or --label, not both")
    if args.point is not None:
        return tuple(_parse_fraction(p) for p in args.point)
    if args.label is None:
        raise UsageError("one of --point or --label is required")
    if not args.M:
        raise UsageError("--label requires --M")
    grid = build_point_grid(sysm, args.kind, args.M)
    if len(args.label) == grid.labels.shape[1]:
        hits = np.flatnonzero((grid.labels == args.label).all(axis=1))
        if len(hits):  # the first one lies on the closed branch
            return grid[hits[0]].point
    raise UsageError(f"--label {args.label} is not a label of this grid (see 'eweyl grid')")


def _cmd_eval(args):
    sysm = _system(args)
    x = _point_from_args(sysm, args)
    value = xi(sysm, args.kind, args.lam, x)
    print(f"{value.real:.15g} {value.imag:.15g}")
    return 0


def _check_labels(labels, shown, canonical: np.ndarray, item: str, grid: str) -> None:
    """Refuse the first label (a tuple) unlike its ``canonical`` row, naming it as in ``shown``."""
    got = np.fromiter(labels, dtype=object, count=len(labels))
    want = np.fromiter(map(tuple, canonical.tolist()), dtype=object, count=len(canonical))
    k = int(np.argmax(got != want))  # the first mismatch, or 0 if there is none
    if got[k] != want[k]:
        raise UsageError(f"{item} label {shown[k]} does not match canonical {grid} label {want[k]}")


def _read_samples_csv(path, sysm, kind, ms):
    grid = build_point_grid(sysm, kind, ms)
    names = _sample_header(sysm)
    with open(path, encoding="utf-8") as fp:
        lines = [ln.strip() for ln in fp if ln.strip()]
    if not lines or lines[0].split(",") != names:
        raise UsageError(f"sample CSV header must be {','.join(names)!r}")
    rows = lines[1:]
    if len(rows) != len(grid):
        raise UsageError(f"sample CSV has {len(rows)} rows, grid has {len(grid)}")
    labels, cells = [], [row.split(",") for row in rows]
    for row, c in zip(rows, cells):
        if len(c) != len(names):
            raise UsageError(f"malformed sample row: {row!r}")
        try:
            labels.append(tuple(int(v) for v in c[:-2]))
        except ValueError:
            raise UsageError(f"malformed sample row: {row!r}") from None
    _check_labels(labels, labels, grid.labels, "sample row", "grid")
    values = [_finite(c[-2], c[-1], "sample row", row) for row, c in zip(rows, cells)]
    return make_samples(sysm, kind, ms, values)


def _write_coeff_json(out, coeffs: CoefficientSet):
    entries = []
    for label, v in zip(coeffs.spectrum.labels.tolist(), coeffs.values):
        t = ", ".join(str(x) for x in label)
        entries.append(
            f'    {{"t": [{t}], "re": {_fmt17(v.real)}, "im": {_fmt17(v.imag)}}}'
        )
    ms = ", ".join(str(m) for m in coeffs.ms)
    body = ",\n".join(entries)
    print(
        '{\n'
        f'  "group": "{coeffs.system.selector}",\n'
        f'  "kind": "{coeffs.kind}",\n'
        f'  "M": [{ms}],\n'
        '  "entries": [\n' + body + "\n  ]\n}",
        file=out,
    )


def _read_coeff_json(path):
    with open(path, encoding="utf-8") as fp:
        try:
            data = json.load(fp)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise UsageError(f"malformed coefficient JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError("coefficient JSON must be an object")
    for field in ("group", "kind", "M", "entries"):
        if field not in data:
            raise UsageError(f"coefficient JSON is missing field {field!r}")
    if not isinstance(data["entries"], list):
        raise UsageError("coefficient JSON field 'entries' must be a list")
    if data["group"] not in SUPPORTED_SELECTORS:
        raise UsageError(f"unknown group selector {data['group']!r} in JSON")
    sysm = system_from_selector(data["group"])
    kind = data["kind"]
    ms, _ = check_moduli(sysm, kind, data["M"])
    spectrum = build_weight_grid(sysm, kind, ms)
    if len(data["entries"]) != len(spectrum):
        raise UsageError(
            f"JSON has {len(data['entries'])} entries, spectrum has {len(spectrum)}"
        )
    labels, parts = [], []
    for entry in data["entries"]:
        try:
            labels.append(tuple(entry["t"]))
            parts.append((entry["re"], entry["im"], "coefficient entry", entry))
        except (KeyError, TypeError):
            raise UsageError(f"malformed coefficient entry {entry!r}") from None
    _check_labels(labels, [e["t"] for e in data["entries"]], spectrum.labels, "entry", "spectrum")
    return CoefficientSet(sysm, kind, ms, spectrum, [_finite(*p) for p in parts])


def _cmd_forward(args):
    sysm = _system(args)
    coeffs = forward_discrete(_read_samples_csv(args.samples, sysm, args.kind, args.M))
    with _output(args) as out:
        _write_coeff_json(out, coeffs)
    return 0


def _cmd_inverse(args):
    samples = inverse_discrete(_read_coeff_json(args.coeffs))
    _write_csv(args, _sample_header(samples.system), (
        [*map(str, label), _fmt17(v.real), _fmt17(v.imag)]
        for label, v in zip(samples.grid.labels.tolist(), samples.values)
    ))
    return 0


def _cmd_interp(args):
    coeffs = _read_coeff_json(args.coeffs)
    x = tuple(_parse_fraction(p) for p in args.point)
    value = transform.interpolate(coeffs, x)
    print(f"{value.real:.15g} {value.imag:.15g}")
    return 0


def _cmd_verify(args):
    sysm = _system(args)
    ms, _ = check_moduli(sysm, args.kind, args.M)
    transform.check_dense_size(sysm, args.kind, ms)
    grid = build_point_grid(sysm, args.kind, ms)
    most = MAX_GRID_CELLS // len(grid)
    if not 1 <= args.trials <= most:
        raise UsageError(f"--trials must be between 1 and {most} on a grid of {len(grid)} points")
    rng = random.Random(args.seed)
    residual = gram_residual(sysm, args.kind, ms)
    worst_rt = 0.0
    for _ in range(args.trials):
        vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(grid))]
        samples = make_samples(sysm, args.kind, ms, vals)
        back = inverse_discrete(forward_discrete(samples))
        worst_rt = max(worst_rt, max(map(abs, (back.values - samples.values).tolist())))
    ok = residual < TOL_ORTHOGONALITY and worst_rt < TOL_ORTHOGONALITY
    print(f"group {sysm.selector} kind {args.kind} M {list(ms)}")
    print(f"  gram residual      {residual:.3e}  (tolerance {TOL_ORTHOGONALITY:g})")
    print(f"  round-trip error   {worst_rt:.3e}  (tolerance {TOL_ORTHOGONALITY:g}, "
          f"{args.trials} random sample sets, seed {args.seed})")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_tables(args):
    reports = [regenerate_table(tid, args.M) for tid in ([args.table] if args.table else TABLE_IDS)]
    ok = True
    for report in reports:
        known, lines = 0, []
        for row in report.mismatches:
            pinned = KNOWN_ERRATA.get((report.table_id, row.coefficient, row.group, row.pattern))
            if pinned == (row.reference, row.computed):
                known += 1
            lines.append(
                f"  [{'UNEXPECTED' if pinned is None else 'errata'}] {row.coefficient} "
                f"{row.group} {row.pattern}: tabulated {row.reference}, computed {row.computed}"
            )
        unexpected, skipped = len(report.mismatches) - known, len(report.skipped)
        matched = sum(1 for r in report.rows if r.status == "match")
        ok = ok and not unexpected and not skipped
        if not args.json:
            print(
                f"{report.table_id}: {len(report.rows)} rows, {matched} match, "
                f"{known} known errata, {unexpected} unexpected, {skipped} skipped"
            )
            for line in lines:
                print(line)
    if args.json:
        print(json.dumps([dataclasses.asdict(report) for report in reports], indent=2))
    return 0 if ok else 1


def _parse_pin(text):
    if "=" not in text:
        raise UsageError("--pin takes the form INDEX=RATIONAL, e.g. 0=1/2")
    idx, _, val = text.partition("=")
    try:
        return int(idx), Q(val)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed --pin value {text!r}") from None


def _cmd_contour(args):
    sysm = _system(args)
    lam = tuple(args.lam)
    if len(lam) != sysm.n:
        raise UsageError(f"--lambda needs {sysm.n} integers for {sysm.selector}")
    pin = None
    if sysm.n > 2:
        if not args.pin:
            raise UsageError("rank-3 groups need --pin INDEX=RATIONAL to fix one coordinate")
        pin = _parse_pin(args.pin)
        if not 0 <= pin[0] < sysm.n:
            raise UsageError(f"--pin index out of range 0..{sysm.n - 1}")
    elif args.pin:
        raise UsageError("--pin only applies to rank-3 groups")
    free = [i for i in range(sysm.n) if pin is None or i != pin[0]]
    n_samples = args.samples_per_axis
    if n_samples < 1 or (2 * n_samples) ** len(free) > MAX_GRID_CELLS:
        raise UsageError(
            f"--samples-per-axis must be >= 1 and probe at most {MAX_GRID_CELLS} points "
            f"((2n)^{len(free)}), got {n_samples}"
        )
    # probe k of an axis is (2k + 1) / 2n - 1, all points as integers over ``den``
    den = 2 * n_samples * (1 if pin is None else pin[1].denominator)
    pinned = 0 if pin is None else pin[1].numerator * (den // pin[1].denominator)
    # every entry is below den or the pinned one; exact Python ints past int64
    dtype = int_dtype(max(den, abs(pinned)))
    odd = np.indices((2 * n_samples,) * len(free)).reshape(len(free), -1).T * 2 + 1 - 2 * n_samples
    probes = np.zeros((len(odd), sysm.n), dtype=dtype)
    probes[:, free] = odd.astype(dtype) * (den // (2 * n_samples))
    if pin is not None:
        probes[:, pin[0]] = pinned
    inside = domain_mask(sysm, args.kind, probes, den)
    gram = coweight_gram(sysm)
    sub = np.array(
        [[float(gram[i][j]) for j in free] for i in free], dtype=float
    )
    embed = np.linalg.cholesky(sub).T
    values = scaled_orbit_sums(sysm, args.kind, [lam], probes[inside], den)[0]
    # odd / 2n is the free coordinate v / den, rounded once from small exact ints
    table = np.column_stack([odd[inside] / (2 * n_samples) @ embed.T, values.real, values.imag])
    rows = (map(_fmt17, row) for row in map(np.ndarray.tolist, table))
    _write_csv(args, ["x", "y", "re", "im"], rows)
    return 0


def _cmd_dump_group(args):
    sysm = _system(args)
    group = even_subgroup(sysm, args.kind)
    payload = {
        "group": sysm.selector,
        "kind": args.kind,
        "order": group.order,
        "elements": [
            {
                "weight_matrix": [list(r) for r in w.weight_matrix],
                "coweight_matrix": [list(r) for r in w.coweight_matrix],
                "det": w.det,
            }
            for w in group
        ],
    }
    print(json.dumps(payload, indent=2))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_group_args(p, kinds=("e", "ee")):
    p.add_argument("--group", required=True, help="group selector, e.g. a1xc2")
    p.add_argument("--kind", required=True, choices=kinds, help="even group kind")


def _add_m_arg(p, required=True):
    p.add_argument(
        "--M",
        type=int,
        nargs="+",
        required=required,
        help="modulus (one value for kind e, one per factor for kind ee)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eweyl",
        description="Orbit functions of even Weyl groups: grids, transforms, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-groups", help="list supported group selectors")

    p = sub.add_parser("grid", help="emit the discrete point grid as CSV")
    _add_group_args(p)
    _add_m_arg(p)
    p.add_argument("--out")

    p = sub.add_parser("spectrum", help="emit the weight grid as CSV")
    _add_group_args(p)
    _add_m_arg(p)
    p.add_argument("--out")

    p = sub.add_parser("eval", help="evaluate one orbit sum at one point")
    _add_group_args(p)
    p.add_argument("--lambda", dest="lam", type=int, nargs="+", required=True)
    p.add_argument("--point", nargs="+", help="rational coordinates, e.g. 1/3 1/2")
    p.add_argument("--label", type=int, nargs="+", help="grid label (closed branch)")
    _add_m_arg(p, required=False)

    p = sub.add_parser("forward", help="discrete transform of a sample CSV")
    _add_group_args(p)
    _add_m_arg(p)
    p.add_argument("--samples", required=True)
    p.add_argument("--out")

    p = sub.add_parser("inverse", help="evaluate coefficients back to samples")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--out")

    p = sub.add_parser("interp", help="evaluate the interpolation series at a point")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--point", nargs="+", required=True)

    p = sub.add_parser("verify", help="orthogonality and round-trip self-test")
    _add_group_args(p)
    _add_m_arg(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=3)

    p = sub.add_parser("tables", help="regenerate the reference coefficient tables")
    p.add_argument("--table", choices=TABLE_IDS)
    p.add_argument("--M", type=int, default=5)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("contour", help="export orbit-sum values over the domain")
    _add_group_args(p)
    p.add_argument("--lambda", dest="lam", type=int, nargs="+", required=True)
    p.add_argument("--samples-per-axis", type=int, default=32)
    p.add_argument("--pin", help="INDEX=RATIONAL, fixes one coordinate of a rank-3 group")
    p.add_argument("--out")

    p = sub.add_parser("dump-group", help="dump group elements as JSON")
    p.add_argument("--group", required=True)
    p.add_argument("--kind", default="e", choices=("w", "e", "ee"))

    return parser


_COMMANDS = {
    "list-groups": _cmd_list_groups,
    "grid": _cmd_grid,
    "spectrum": _cmd_spectrum,
    "eval": _cmd_eval,
    "forward": _cmd_forward,
    "inverse": _cmd_inverse,
    "interp": _cmd_interp,
    "verify": _cmd_verify,
    "tables": _cmd_tables,
    "contour": _cmd_contour,
    "dump-group": _cmd_dump_group,
}


#: a negative rational such as ``-1/3``, which argparse would read as an
#: option; it is passed on as ``" -1/3"``, which still parses as a Fraction
_NEGATIVE_RATIONAL = re.compile(r"-\d+/\d+")


def run(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    argv = [" " + a if _NEGATIVE_RATIONAL.fullmatch(a) else a for a in argv]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigurationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
