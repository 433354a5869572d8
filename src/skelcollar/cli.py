"""Command-line front end: argument parsing, dispatch to the library
modules, and text, JSON, and SVG report emission.

`build_parser` is the one place a flag, its default and its handler are
declared; handlers, checks and headers all read the `argparse.Namespace`
it returns.  The library takes every run parameter (samples, seed, step,
kappa) as a required argument, so no default is declared twice; a default
the header must not print (weights, kappa, taus) is filled in by the
handler that uses it.  Every text report opens with a header repeating the
effective parameters (including the seed) so a result can be reproduced
from the report alone; JSON reports carry the same data in a "config"
object, and both keep a fixed cutoff key, auto, for compatibility with
earlier reports.
Exit codes: 0 on success, 2 for usage and input errors (a `ValueError`
among them), 3 when a check of the program's own answer fails or cannot
stabilise (an `exact.VerificationFailed`).  A call costs mostly this
module's import, so it loads only `exact` and `bundles`; every other
handler imports the library module it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

from .bundles import (
    BundleTransition,
    compare_line_bundles,
    moduli_dimension,
    picard_group,
    splitting_type,
    zu_terms,
)
from .exact import LaurentPoly, VerificationFailed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"weights must be comma-separated integers: {text!r}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _parse_taus(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"parameter list must be comma-separated rationals: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelcollar",
        description="exact computations for skeleta, collars, and the pairing between them",
    )
    # subcommands without --seed still report seed=1 in their header
    parser.set_defaults(seed=1)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, handler: Handler, formats: Sequence[str]) -> None:
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=list(formats), default="text")
        p.add_argument("--output", default=None, help="write the report to this path")

    p = sub.add_parser("skeleton", help="components of the cotangent-space skeleton")
    p.add_argument("--n", type=int, required=True)
    add_common(p, _run_skeleton, ("text", "json"))

    p = sub.add_parser("potential", help="flow potential for the weighted action")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", type=_parse_weights, default=None)
    p.add_argument("--kappa", type=_parse_fraction, default=None)
    add_common(p, _run_potential, ("text", "json"))

    p = sub.add_parser("resolve", help="minimal resolution of a plane quotient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    add_common(p, _run_resolve, ("text", "json", "svg"))

    p = sub.add_parser("fan", help="quotient cone and its dual")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--dual", action="store_true", help="draw the dual cone in SVG output")
    add_common(p, _run_fan, ("text", "json", "svg"))

    p = sub.add_parser("birmap", help="product-to-projective collapse round trip")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    add_common(p, _run_birmap, ("text", "json"))

    p = sub.add_parser("birstep", help="step map between consecutive skeleton components")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    add_common(p, _run_birstep, ("text", "json"))

    p = sub.add_parser("collar", help="line bundles on the punctured surface")
    collar_sub = p.add_subparsers(dest="collar_action", required=True)
    pic = collar_sub.add_parser("pic", help="residue classes and tensor table")
    pic.add_argument("--n", type=int, required=True)
    add_common(pic, _run_collar_pic, ("text", "json"))
    iso = collar_sub.add_parser("iso", help="isomorphism certificate for two twists")
    iso.add_argument("--n", type=int, required=True)
    # stored as j: headers and JSON configs report it under that key
    iso.add_argument("--j1", dest="j", metavar="J1", type=int, required=True)
    iso.add_argument("--j2", type=int, required=True)
    add_common(iso, _run_collar_iso, ("text", "json"))

    p = sub.add_parser("splitting", help="splitting type of a rank-2 transition matrix")
    p.add_argument("--matrix", dest="matrix_path", required=True, help="JSON file {n, matrix}")
    add_common(p, _run_splitting, ("text", "json"))

    p = sub.add_parser("moduli-dim", help="dimension of the splitting-type moduli")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    add_common(p, _run_moduli, ("text", "json"))

    p = sub.add_parser("ext1", help="basis of the extension group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    add_common(p, _run_ext1, ("text", "json"))

    p = sub.add_parser("deform", help="splitting profile of an index-step family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--taus", type=_parse_taus, default=None)
    add_common(p, _run_deform, ("text", "json"))

    p = sub.add_parser("duality", help="correspondence table with square certificates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--seed", type=int, default=1)
    add_common(p, _run_duality, ("text", "json"))

    return parser


# smallest accepted value of each numeric flag, with its wording
_LOWER_BOUNDS = {
    "n": (1, "at least 1"),
    "a": (0, "nonnegative"),
    "b": (0, "nonnegative"),
    "samples": (1, "positive"),
    "s": (1, "positive"),
}


def validate_config(args: argparse.Namespace) -> None:
    for key, (least, wording) in _LOWER_BOUNDS.items():
        value = getattr(args, key, None)
        if value is not None and value < least:
            raise ValueError(f"--{key} must be {wording}, got {value}")
    weights, n = getattr(args, "weights", None), getattr(args, "n", None)
    if weights is not None and n is not None and len(weights) != n:
        raise ValueError(f"--weights needs exactly {n} entries, got {len(weights)}")


# ---------------------------------------------------------------------------
# rendering helpers

_HEADER_KEYS = ("n", "a", "b", "j", "j2", "s", "weights", "kappa", "taus")


def _config_summary(args: argparse.Namespace) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for key in _HEADER_KEYS:
        value = getattr(args, key, None)
        if value is None:
            continue
        # weights and taus are tuples, printed comma-separated
        pairs.append((key, ",".join(map(str, value)) if isinstance(value, tuple) else str(value)))
    pairs.append(("seed", str(args.seed)))
    # no flag sets a cutoff; the key stays, fixed, because the golden reports
    # and the benchmark's duality check compare whole configs that carry it
    pairs.append(("cutoff", "auto"))
    return pairs


def _header(args: argparse.Namespace) -> str:
    name = args.subcommand
    if getattr(args, "collar_action", None):
        name += f" {args.collar_action}"
    params = " ".join(f"{k}={v}" for k, v in _config_summary(args))
    return f"# skelcollar {name} | {params}"


def _config_json(args: argparse.Namespace) -> dict:
    out: dict = {"subcommand": args.subcommand}
    if getattr(args, "collar_action", None):
        out["collar_action"] = args.collar_action
    for k, v in _config_summary(args):
        out[k] = v
    return out


def _var_key(name: str) -> tuple[str, int]:
    return (name[0], int(name[1:]))


def _zero_set(forced: frozenset[str]) -> str:
    names = sorted(forced, key=_var_key)
    return "{" + " = ".join(names + ["0"]) + "}" if names else "{}"


# ---------------------------------------------------------------------------
# SVG emission

_SVG_UNIT = 40
# the background grid has (2*extent - 1)^2 points, one element each
SVG_MAX_GRID_POINTS = 100_000


def _svg_rays(
    solid: Sequence[tuple[int, int]],
    dashed: Sequence[tuple[int, int]],
    title: str,
) -> str:
    points = list(solid) + list(dashed) + [(1, 1)]
    extent = max(max(abs(x), abs(y)) for x, y in points) + 1
    side = 2 * extent - 1
    if side * side > SVG_MAX_GRID_POINTS:
        raise ValueError(
            f"the figure needs a {side} x {side} grid ({side * side} points), "
            f"over the cap of {SVG_MAX_GRID_POINTS} grid points; use --format text or json"
        )
    half = _SVG_UNIT * extent
    size = 2 * half

    def cx(x: int) -> int:
        return half + _SVG_UNIT * x

    def cy(y: int) -> int:
        return half - _SVG_UNIT * y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="8" y="18" font-family="monospace" font-size="14">{title}</text>',
    ]
    for gx in range(-extent + 1, extent):
        for gy in range(-extent + 1, extent):
            parts.append(
                f'<circle cx="{cx(gx)}" cy="{cy(gy)}" r="2" fill="#c0c0c0"/>'
            )
    for x, y in solid:
        parts.append(
            f'<line x1="{cx(0)}" y1="{cy(0)}" x2="{cx(x)}" y2="{cy(y)}" '
            f'stroke="#202020" stroke-width="3"/>'
        )
    for x, y in dashed:
        parts.append(
            f'<line x1="{cx(0)}" y1="{cy(0)}" x2="{cx(x)}" y2="{cy(y)}" '
            f'stroke="#606060" stroke-width="2" stroke-dasharray="6,4"/>'
        )
    for x, y in list(solid) + list(dashed):
        parts.append(f'<circle cx="{cx(x)}" cy="{cy(y)}" r="5" fill="#202020"/>')
        parts.append(
            f'<text x="{cx(x) + 8}" y="{cy(y) - 8}" font-family="monospace" '
            f'font-size="13">({x}, {y})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# handlers: each returns (exit code, json payload, text body, optional svg
# builder); the figure is only built under --format svg, which argparse
# offers only to the handlers that return one

Figure = Optional[Callable[[], str]]
Handler = Callable[[argparse.Namespace], tuple[int, dict, str, Figure]]


def _check_cap(cells: int, cap: int, need: str) -> None:
    """Refuse a command whose work, ``need``, comes to more than ``cap`` cells."""
    if cells > cap:
        raise ValueError(f"{need}, {cells} cells, over the cap of {cap}")


# bounds the chart work: each of the n + 1 components pushes the action
# through an n x n fiber transition (a few tenths of a second at n = 21)
SKELETON_MAX_TRANSITION_CELLS = 10_000


def _run_skeleton(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    from .skeleton import skeleton
    n = args.n
    _check_cap((n + 1) * n * n, SKELETON_MAX_TRANSITION_CELLS,
               f"--n {n} needs {n + 1} fiber transitions of {n} x {n}")
    components = skeleton(args.n)
    lines = []
    payload = []
    for comp in components:
        lines.append(f"L_{comp.j}: {comp.description} | {_zero_set(comp.forced)}")
        payload.append(
            {
                "j": comp.j,
                "classification": comp.shape_json(),
                "description": comp.description,
                "forced": sorted(comp.forced, key=_var_key),
                "free_base": list(comp.free_base),
                "free_fiber": list(comp.free_fiber),
            }
        )
    return EXIT_OK, {"components": payload}, "\n".join(lines), None


# bounds the exponent table of h, n + 1 terms over 2n + 1 variables, which
# the residual check differentiates 2n times (0.24 s in-process at n = 149
# on 2 vCPUs, 0.52 s at n = 200)
POTENTIAL_MAX_TERM_CELLS = 45_000


def _run_potential(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    from .potential import CONSTANT_SYMBOL, hamiltonian_residual, solve_potential
    n = args.n
    _check_cap((n + 1) * (2 * n + 1), POTENTIAL_MAX_TERM_CELLS,
               f"--n {n} needs a potential of {n + 1} terms over {2 * n + 1} variables")
    weights = args.weights if args.weights is not None else tuple(range(1, args.n + 1))
    pot = solve_potential(weights, args.kappa if args.kappa is not None else 2)
    residual = hamiltonian_residual(pot, weights)
    ok = residual.is_zero
    code = EXIT_OK if ok else EXIT_VERIFY
    lines = [
        f"h = {pot.h}",
        f"kappa = {pot.kappa}",
        f"residual against the symbolic test field: {'0' if ok else residual}",
    ]
    payload = {
        "h": pot.h.to_json_dict(),
        "h_display": str(pot.h),
        "kappa": str(pot.kappa),
        "constant_symbol": CONSTANT_SYMBOL,
        "residual_zero": ok,
    }
    return code, payload, "\n".join(lines), None


# bounds the r x r intersection matrix of the r exceptional curves, which
# the JSON report prints in full (1.45 MB at r = 399)
RESOLVE_MAX_MATRIX_CELLS = 40_000


def _run_resolve(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    from .toric import QuotientSingularity, hj_length, minimal_resolution
    singularity = QuotientSingularity(args.n, args.a)
    curves = hj_length(args.n, args.a) if args.n > 1 else 0  # before building the chain
    _check_cap(curves ** 2, RESOLVE_MAX_MATRIX_CELLS,
               f"--n {args.n} --a {args.a} needs an intersection matrix of {curves} x {curves}")
    chain = minimal_resolution(singularity)
    cone = chain.cone
    matrix = chain.intersection_matrix
    lines = [
        f"cone rays: {cone.rays[0]} {cone.rays[1]}",
        f"subdividing rays: {' '.join(str(r) for r in chain.rays) if chain.rays else '(none)'}",
        f"self-intersections: {list(chain.self_intersections)}",
    ]
    payload = {
        "cone": [list(cone.rays[0]), list(cone.rays[1])],
        "rays": [list(r) for r in chain.rays],
        "self_intersections": list(chain.self_intersections),
        "intersection_matrix": [list(row) for row in matrix],
    }
    svg = partial(
        _svg_rays,
        cone.rays,
        chain.rays,
        f"resolved quotient cone n={args.n} a={args.a}",
    )
    return EXIT_OK, payload, "\n".join(lines), svg


def _run_fan(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    from .toric import QuotientSingularity, quotient_cone
    cone = quotient_cone(QuotientSingularity(args.n, args.a))
    dual = cone.dual()
    lines = [
        f"cone rays: {cone.rays[0]} {cone.rays[1]}",
        f"dual cone rays: {dual.rays[0]} {dual.rays[1]}",
    ]
    payload = {
        "cone": [list(cone.rays[0]), list(cone.rays[1])],
        "dual": [list(dual.rays[0]), list(dual.rays[1])],
    }
    shown = dual if args.dual else cone
    which = "dual cone" if args.dual else "cone"
    svg = partial(_svg_rays, shown.rays, (), f"{which} n={args.n} a={args.a}")
    return EXIT_OK, payload, "\n".join(lines), svg


def _verdict_result(verdict, source: str) -> tuple[int, dict, str, Figure]:
    from .birmaps import point_text
    code = EXIT_OK if verdict.passed else EXIT_VERIFY
    status = "passed" if verdict.passed else "FAILED"
    lines = [
        f"{source}: round trip {status}",
        f"samples checked: {verdict.checked}, skipped: {verdict.skipped}",
    ]
    payload = {
        "passed": verdict.passed,
        "checked": verdict.checked,
        "skipped": verdict.skipped,
        "failures": len(verdict.failures),
    }
    if verdict.failures:
        point, image = verdict.failures[0]
        lines.append(f"failures: {len(verdict.failures)}")
        lines.append(f"first failure: {point_text(point)} comes back as {point_text(image)}")
        payload["first_failure"] = {
            "point": [[str(c) for c in factor] for factor in point],
            "image": [[str(c) for c in factor] for factor in image],
        }
    return code, payload, "\n".join(lines), None


# bounds the round trip: each of the (a + 1)(b + 1) Segre components is
# checked over the a + b + 2 variables of the factors, then evaluated once
# per sample; at the cap the per-sample cost dominates small maps, and
# a = b = 1 with 12496 samples takes about half a second.  birstep counts
# the components of its two collapses times its n + 1 variables and the
# samples; at the cap its slowest case, n = 2, j = 0 with 12497 samples,
# took 0.41 s in-process on 2 vCPUs
BIRMAP_MAX_SEGRE_CELLS = 50_000


def _run_birmap(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    from .birmaps import product_to_projective, verify_birational
    components, reads = (args.a + 1) * (args.b + 1), args.a + args.b + 2 + args.samples
    _check_cap(components * reads, BIRMAP_MAX_SEGRE_CELLS,
               f"--a {args.a} --b {args.b} --samples {args.samples} needs {components} "
               f"Segre components times {reads} variables and samples")
    pair = product_to_projective(args.a, args.b)
    verdict = verify_birational(pair, samples=args.samples, seed=args.seed)
    return _verdict_result(verdict, f"collapse of the ({args.a}, {args.b}) product")


def _run_birstep(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    from .birmaps import bir_step, verify_birational
    n, j, samples = args.n, args.j, args.samples
    components, reads = (j + 1) * (n - j) + (j + 2) * (n - j - 1), n + 1 + samples
    _check_cap(components * reads, BIRMAP_MAX_SEGRE_CELLS,
               f"--n {n} --j {j} --samples {samples} needs {components} Segre components "
               f"times {reads} variables and samples")
    verdict = verify_birational(bir_step(n, j), samples=samples, seed=args.seed)
    return _verdict_result(verdict, f"step map {j} -> {j + 1} in dimension {n}")


# bounds the n x n tensor table the report prints; the certificates, one
# per degree 0..2n-2, are cheap beside it
PIC_MAX_TABLE_CELLS = 4096


def _run_collar_pic(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    if args.n * args.n > PIC_MAX_TABLE_CELLS:
        raise ValueError(
            f"--n {args.n} needs a tensor table of {args.n * args.n} cells, "
            f"over the cap of {PIC_MAX_TABLE_CELLS}"
        )
    group = picard_group(args.n)
    lines = [f"residue classes mod {args.n}: {list(group.classes)}"]
    lines.append("tensor table:")
    for i, row in enumerate(group.table):
        lines.append(f"  {i}: {list(row)}")
    payload = {
        "classes": list(group.classes),
        "table": [list(row) for row in group.table],
    }
    return EXIT_OK, payload, "\n".join(lines), None


def _run_collar_iso(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    comparison = compare_line_bundles(args.n, args.j, args.j2)
    lines = [
        f"residues: {comparison.residue1} and {comparison.residue2} (mod {args.n})",
        f"isomorphic on the punctured surface: {'yes' if comparison.isomorphic else 'no'}",
    ]
    payload = {
        "j1": args.j,
        "j2": args.j2,
        "residue1": comparison.residue1,
        "residue2": comparison.residue2,
        "isomorphic": comparison.isomorphic,
        "certificate": None,
    }
    cert = comparison.certificate
    if cert is not None:
        v_entry = cert.v_frame[0][0]
        u_entry = cert.u_frame[0][0]
        lines.append(f"certificate frames: v side {v_entry}, u side {u_entry}")
        payload["certificate"] = {
            "v_frame": [[str(e) for e in row] for row in cert.v_frame],
            "u_frame": [[str(e) for e in row] for row in cert.u_frame],
        }
    return EXIT_OK, payload, "\n".join(lines), None


# section counts solve systems whose width grows with the z spread of the
# matrix; at spread 64 a splitting type takes a few seconds
SPLITTING_MAX_Z_SPREAD = 64
# bounds the terms of the parsed matrix before its determinant, whose cost
# is the product of the term counts of the entries it multiplies; at the cap,
# off-diagonal entries of 255 fiber terms each took 0.2 s in-process on
# 2 vCPUs to be refused as not unit, 1200 each took 4.3 s
SPLITTING_MAX_TERMS = 512
# bounds the coefficient sizes both multiply, as the total bit length of every
# numerator and denominator: four bits a term at the term cap, above 510 small
# fiber terms (1752 bits) and every golden and benchmark matrix (at most 62).
# At the cap, two entries of 255 fiber terms were refused as not unit in 0.37 s
# in-process on 2 vCPUs
SPLITTING_MAX_COEFFICIENT_BITS = 2048
# bounds the section counts, which see only the u-free terms: s^3 * (8 * terms
# + bits) for their z spread s, fitted to timed [[z^s, p], [0, z^-s]] with
# u-free p.  In-process on 2 vCPUs the slowest under the cap took 0.8 s
# (s = 32, two 2-bit terms in p); benchmark requests need at most a third
SPLITTING_MAX_COUNT_WORK = 1_500_000


def _read_matrix_file(path: str) -> tuple[int, list[list[LaurentPoly]]]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if (type(data) is not dict or "n" not in data or type(data.get("matrix")) is not list
            or not all(type(row) is list for row in data["matrix"])):
        raise ValueError('matrix file must be a JSON object {"n": ..., "matrix": [[...], ...]}')
    if type(data["n"]) is not int:
        raise ValueError(f'"n" must be a JSON integer, got {data["n"]!r}')
    rows = []
    for i, row in enumerate(data["matrix"]):
        rows.append([])
        for k, entry in enumerate(row):
            try:
                rows[-1].append(LaurentPoly.from_json_dict(entry))
            except ValueError as exc:
                raise ValueError(f"matrix entry [{i}][{k}], {exc}") from None
    return data["n"], rows


def _run_splitting(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    try:
        n, rows = _read_matrix_file(args.matrix_path)
    except RecursionError:
        # parsing or printing deeply nested arrays exhausts the stack
        raise ValueError("matrix file is nested too deeply") from None
    coefficients = [c for row in rows for p in row for c in p.terms.values()]
    if len(coefficients) > SPLITTING_MAX_TERMS:
        raise ValueError(
            f"the matrix has {len(coefficients)} terms, over the cap of {SPLITTING_MAX_TERMS}"
        )
    bits = sum(c.numerator.bit_length() + c.denominator.bit_length() for c in coefficients)
    if bits > SPLITTING_MAX_COEFFICIENT_BITS:
        raise ValueError(f"the matrix coefficients have {bits} bits, "
                         f"over the cap of {SPLITTING_MAX_COEFFICIENT_BITS}")
    trans = BundleTransition.from_rows(n, rows)
    if trans.z_spread() > SPLITTING_MAX_Z_SPREAD:
        raise ValueError(
            f"the matrix has z exponents up to {trans.z_spread()} in absolute value, "
            f"over the cap of {SPLITTING_MAX_Z_SPREAD}"
        )
    free = [(abs(e), c) for row in rows for p in row for e, m, c in zu_terms(p) if m == 0]
    s = max((e for e, _ in free), default=0)
    bits = sum(c.numerator.bit_length() + c.denominator.bit_length() for _, c in free)
    _check_cap(s**3 * (8 * len(free) + bits), SPLITTING_MAX_COUNT_WORK,
               f"the section counts on {len(free)} u-free terms of z spread {s} need "
               f"{s}^3 * (8 * {len(free)} + {bits} bits)")
    pair = splitting_type(trans)
    lines = [f"splitting type: {pair}"]
    payload = {"n": trans.n, "splitting": list(pair)}
    return EXIT_OK, payload, "\n".join(lines), None


def _run_moduli(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    result = moduli_dimension(args.n, args.j)
    if result.dimension is None:
        lines = [f"empty: {result.note}"]
    else:
        lines = [f"dimension: {result.dimension}"]
    payload = {"dimension": result.dimension, "note": result.note}
    return EXIT_OK, payload, "\n".join(lines), None


# bounds the basis ext1 builds: its (2j - 2) // n + 1 fiber levels times the
# 2j - 1 monomials of the widest; at the cap, one level of 19999 took 0.8-1.3 s
# in-process on 2 vCPUs, --n 1 --j 71 (141 levels of up to 141) 0.4 s
EXT1_MAX_WINDOW_CELLS = 20_000


def _run_ext1(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    from .deform import ext1_basis
    n, j = args.n, args.j
    levels = max(0, (2 * j - 2) // n + 1)
    _check_cap(levels * (2 * j - 1), EXT1_MAX_WINDOW_CELLS,
               f"--n {n} --j {j} needs a basis window of {levels} fiber levels of up to "
               f"{2 * j - 1} monomials")
    basis = ext1_basis(n, j)
    lines = [f"dimension: {len(basis)}"]
    if basis:
        lines.append("basis monomials: " + ", ".join(str(m) for m in basis))
    payload = {
        "dimension": len(basis),
        "basis": [m.to_json_dict() for m in basis],
        "display": [str(m) for m in basis],
    }
    return EXIT_OK, payload, "\n".join(lines), None


# bounds the section counts: the two endpoint checks read a splitting type of
# at most t = j + s, from section counts at up to 2t + 2 twists over windows
# of up to 2t + 2 z-degrees, and every tau reads its type from them; at the
# cap, --n 1 --j 20 took 0.3-0.5 s in-process on 2 vCPUs, with or without --taus
DEFORM_MAX_SECTION_CELLS = 4_000


def _run_deform(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    from .deform import family_splitting_profile, index_step_family
    taus = args.taus if args.taus is not None else (Fraction(0), Fraction(1))
    side = max(0, 2 * (args.j + args.s) + 2)
    _check_cap(2 * side * side, DEFORM_MAX_SECTION_CELLS,
               f"--n {args.n} --j {args.j} --s {args.s} needs 2 splitting types of "
               f"{side} twists over windows of {side} z-degrees")
    family = index_step_family(args.n, args.j, args.s)
    profile = family_splitting_profile(family, taus)
    lines = [f"family entry: {family.entry}"]
    for tau, value in zip(taus, profile):
        lines.append(f"tau = {tau}: splitting {value}")
    payload = {
        "entry": str(family.entry),
        "profile": [
            {"tau": str(tau), "splitting": value} for tau, value in zip(taus, profile)
        ],
    }
    return EXIT_OK, payload, "\n".join(lines), None


# bounds the squares: each of the n - 1 walks up to 4n section-count twists and
# round-trips --samples points over about n coordinates; in-process on 2 vCPUs,
# n = 14 at the default 40 samples took 1.2 s, n = 17 at one sample 2.0 s
DUALITY_MAX_SQUARE_CELLS = 20_000


def _run_duality(args: argparse.Namespace) -> tuple[int, dict, str, Figure]:
    from .duality import duality_report
    n, samples = args.n, args.samples
    _check_cap((n - 1) * (4 * n + samples) * n, DUALITY_MAX_SQUARE_CELLS,
               f"--n {n} --samples {samples} needs {n - 1} squares of {4 * n} section "
               f"counts and {samples} samples over {n} coordinates")
    report = duality_report(n, samples=samples, seed=args.seed)
    code = EXIT_OK if report.all_ok else EXIT_VERIFY
    return code, report.to_json_dict(), report.to_text(), None


def dispatch(args: argparse.Namespace) -> tuple[int, str]:
    """Run one parsed command; returns (exit code, rendered report)."""
    validate_config(args)
    code, payload, text_body, svg = args.handler(args)
    if args.format == "json":
        document = {"config": _config_json(args)}
        document.update(payload)
        rendered = json.dumps(document, indent=2, sort_keys=True) + "\n"
    elif args.format == "svg":
        rendered = svg()
    else:
        rendered = _header(args) + "\n" + text_body + "\n"
    return code, rendered


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        code, rendered = dispatch(args)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
    # a VerificationFailed is a failed check of the program's own answer: the
    # program, not the input, is at fault, and the message names it
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output is None:
        sys.stdout.write(rendered)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
