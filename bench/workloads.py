"""Seeded request lists for the benchmark workloads, and the closed forms
their answers are checked against.

Every expected answer here is written out by hand from the mathematics; no
function of the package under test is asked for it.  A request is a JSON
object: ``op`` names the kind, the remaining keys are its parameters, and
CLI requests carry the exact ``argv`` the program receives.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("duality", "splitting", "certificates")

# verify_birational's default sample count in `skelcollar duality`
DUALITY_SAMPLES = 40


# ---------------------------------------------------------------------------
# polynomials in (z, u) as {(z_exp, u_exp): Fraction}, the benchmark's own
# arithmetic for building inputs and re-checking certificates


def poly_json(poly: dict) -> dict:
    """The package's Laurent-polynomial JSON schema for a (z, u) polynomial."""
    terms = sorted((e, c) for e, c in poly.items() if c)
    return {
        "vars": ["u", "z"],
        "terms": [
            {"exp": [ue, ze], "num": str(c.numerator), "den": str(c.denominator)}
            for (ze, ue), c in terms
        ],
    }


def poly_from_json(data: dict) -> dict:
    names = data["vars"]
    out: dict = {}
    for term in data["terms"]:
        exps = dict(zip(names, term["exp"]))
        key = (exps.get("z", 0), exps.get("u", 0))
        out[key] = out.get(key, Fraction(0)) + Fraction(int(term["num"]), int(term["den"]))
    return {k: c for k, c in out.items() if c}


def poly_from_text(text: str) -> dict:
    """Parse the CLI's display form, e.g. ``-3/2*u^-1*z^4 + z``."""
    tokens = text.split(" ")
    chunks = [("+", tokens[0])] + list(zip(tokens[1::2], tokens[2::2]))
    out: dict = {}
    for sign, chunk in chunks:
        negative = (sign == "-") != chunk.startswith("-")
        coeff = Fraction(1)
        exps = {"z": 0, "u": 0}
        for factor in chunk.lstrip("-").split("*"):
            name, _, power = factor.partition("^")
            if name in exps:
                exps[name] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        key = (exps["z"], exps["u"])
        out[key] = out.get(key, Fraction(0)) + (-coeff if negative else coeff)
    return {k: c for k, c in out.items() if c}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (za, ua), ca in a.items():
        for (zb, ub), cb in b.items():
            key = (za + zb, ua + ub)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def _det(m: list) -> dict:
    if len(m) == 1:
        return m[0][0]
    ad = _mul(m[0][0], m[1][1])
    bc = _mul(m[0][1], m[1][0])
    out = dict(ad)
    for k, c in bc.items():
        out[k] = out.get(k, Fraction(0)) - c
    return {k: c for k, c in out.items() if c}


def _evaluate(poly: dict, z: Fraction, u: Fraction) -> Fraction:
    return sum((c * z**ze * u**ue for (ze, ue), c in poly.items()), Fraction(0))


def _matmul_at(a: list, b: list, z: Fraction, u: Fraction) -> list:
    va = [[_evaluate(p, z, u) for p in row] for row in a]
    vb = [[_evaluate(p, z, u) for p in row] for row in b]
    size = len(va)
    return [
        [sum(va[i][t] * vb[t][j] for t in range(size)) for j in range(size)]
        for i in range(size)
    ]


def certificate_problem(n: int, m1: list, m2: list, u_frame: list, v_frame: list,
                        seed: int) -> str | None:
    """Re-check m2 * U = V * m1 at seeded rational points, and that U and V
    are invertible on their charts: det U = c u^b, det V = c z^(n b) u^b."""
    rng = random.Random(seed)
    for _ in range(3):
        z = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        u = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if _matmul_at(m2, u_frame, z, u) != _matmul_at(v_frame, m1, z, u):
            return f"m2*U != V*m1 at z={z}, u={u}"
    det_u, det_v = _det(u_frame), _det(v_frame)
    if len(det_u) != 1 or next(iter(det_u))[0] != 0:
        return f"U frame determinant {det_u} is not a unit on the U chart"
    if len(det_v) != 1 or next(iter(det_v))[0] != n * next(iter(det_v))[1]:
        return f"V frame determinant {det_v} is not a unit on the V chart"
    return None


# ---------------------------------------------------------------------------
# request generation


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _canonical(k: int, p: dict) -> list:
    """[[z^k, p], [0, z^-k]] as (z, u) polynomials."""
    return [[{(k, 0): Fraction(1)}, p], [{}, {(-k, 0): Fraction(1)}]]


def _matrix_json(m: list) -> list:
    return [[poly_json(p) for p in row] for row in m]


def _duality(rng: random.Random) -> list:
    # one report per n in 2..7: the only workload reaching skeleton, birmaps,
    # deform and the ext1 window cache.  n = 8 and 9 alone take about 10 s
    # cold, which would leave a run one cold reading per request.
    out = []
    for n in range(2, 8):
        seed = rng.randint(1, 10**6)
        out.append({
            "op": "duality", "n": n, "seed": seed,
            "argv": ["duality", "--n", str(n), "--seed", str(seed), "--format", "json"],
        })
    return out


# (k, number of u-free terms of p, j = min |m| over them).  k spans 4..24
# and the term count spans 1..k, but dense p only at small k: one dense p
# at k = 24 costs about 9 s, more than a whole pass.  The answer j is fixed
# per shape because splitting_type counts sections at 2j + 1 twists, so a
# seeded j would make the cost of a pass a draw of the seed.
SPLITTING_SHAPES = (
    (4, 4, 0), (6, 6, 1), (8, 3, 3), (10, 10, 0), (12, 4, 5),
    (14, 2, 7), (16, 1, 10), (18, 2, 9), (21, 1, 6), (24, 1, 12),
)


def _splitting(rng: random.Random) -> list:
    out = []
    for k, count, j in SPLITTING_SHAPES:
        sign = rng.choice((-1, 1))
        # |m| <= k keeps the degree window at k for every seed
        mags = [j] + rng.sample(range(j + 1, k + 1), count - 1)
        p = {(sign * m, 0): _rational(rng) for m in mags}
        for _ in range(rng.randint(0, 2)):
            # fiber terms vanish on the zero section and leave j unchanged
            p[(sign * rng.randint(0, k), rng.randint(1, 2))] = _rational(rng)
        n = rng.randint(1, 4)
        out.append({
            "op": "splitting", "n": n, "k": k,
            "p": [[ze, ue, str(c)] for (ze, ue), c in sorted(p.items())],
            "argv": ["splitting", "--format", "json"],
            "matrix": {"n": n, "matrix": _matrix_json(_canonical(k, p))},
        })
    rng.shuffle(out)
    return out


# rank-2 pairs [[z^k, a z^e], [0, z^-k]] against the same with a scaled by c;
# diag(c, 1) on both sides identifies them, so each pair is isomorphic.
# (n, k, e, bound); None is the library's default bound.
RANK2_SHAPES = ((2, 1, -1, None), (1, 1, -1, None), (3, 1, 1, None))
# pairs that were inconclusive when the benchmark was written, kept verbatim:
# (n, k, e, a, c, bound)
RANK2_KNOWN = ((3, 1, -1, 1, 2, None), (2, 1, -1, 1, 3, 4))
# exhaustive line pairs (n, j1, j2), j1 = j2 mod n; the search bound grows
# with |j1| + |j2|, so the seed only swaps the pair and flips both signs
LINE_SHAPES = ((2, 1, 3), (4, 0, 4), (3, 2, 5), (4, 1, 5), (5, 1, 6), (6, 0, 6),
               (7, 0, 7), (3, 0, 6))


def _rank2_request(n, k, e, a, c, bound) -> dict:
    m1 = _canonical(k, {(e, 0): Fraction(a)})
    m2 = _canonical(k, {(e, 0): Fraction(a) * c})
    return {
        "op": "cert", "n": n, "bound": bound, "exhaustive": False,
        "m1": _matrix_json(m1), "m2": _matrix_json(m2),
    }


def _line_request(n, j1, j2) -> dict:
    return {
        "op": "cert", "n": n, "bound": None, "exhaustive": True,
        "m1": _matrix_json([[{(-j1, 0): Fraction(1)}]]),
        "m2": _matrix_json([[{(-j2, 0): Fraction(1)}]]),
    }


def _certificates(rng: random.Random) -> list:
    out = []
    # cheap: the CLI line-bundle verdict over a seeded grid.  op_p50_s falls
    # among these; 120 of them spread it over the whole pass, not over a
    # few tenths of a second at one speed of the host
    for _ in range(120):
        n = rng.randint(1, 9)
        j1 = rng.randint(-12, 12)
        j2 = j1 + n * rng.randint(-2, 2) if rng.random() < 0.5 else rng.randint(-12, 12)
        out.append({
            "op": "iso", "n": n, "j1": j1, "j2": j2,
            "argv": ["collar", "iso", "--n", str(n), "--j1", str(j1), "--j2", str(j2),
                     "--format", "json"],
        })
    # costly: kernel searches on pairs isomorphic by construction
    for n, k, e, bound in RANK2_SHAPES:
        a = _rational(rng)
        c = _rational(rng)
        while c == 1:
            c = _rational(rng)
        out.append(_rank2_request(n, k, e, a, c, bound))
    for shape in RANK2_KNOWN:
        out.append(_rank2_request(*shape))
    for n, j1, j2 in LINE_SHAPES:
        sign = rng.choice((-1, 1))
        pair = (sign * j1, sign * j2)
        out.append(_line_request(n, *(pair if rng.random() < 0.5 else pair[::-1])))
    rng.shuffle(out)
    return out


_GENERATORS = {"duality": _duality, "splitting": _splitting, "certificates": _certificates}


def build(workload: str, seed: int) -> list:
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# closed forms


def skeleton_text(d: int, j: int) -> str:
    """Component j of the cotangent bundle of projective d-space: the fiber
    over a fixed point, the zero section, or a rank-(d - j) bundle with
    every fiber twist -1."""
    if j == 0:
        return f"affine fiber of dimension {d}"
    if j == d:
        return f"zero section of dimension {d}"
    twists = ", ".join(["-1"] * (d - j))
    return f"rank-{d - j} bundle over a dimension-{j} base, fiber twists ({twists})"


def _pair(n: int, j: int) -> list:
    return [j % n, (-j) % n]


def _check_duality(req: dict, doc: dict) -> str | None:
    n = req["n"]
    if doc.get("config") != {"cutoff": "auto", "n": str(n), "seed": str(req["seed"]),
                             "subcommand": "duality"}:
        return f"config echo {doc.get('config')}"
    if doc["n"] != n or doc["all_ok"] is not True:
        return "report not verified"
    if len(doc["squares"]) != n - 1:
        return f"{len(doc['squares'])} squares, closed form {n - 1}"
    entries = [(e["j"], e["skeleton"], e["collar_pair"]) for e in doc["entries"]]
    if entries != [(j, skeleton_text(n - 1, j), _pair(n, j)) for j in range(n)]:
        return "correspondence table differs from the closed form"
    for j, sq in zip(range(n - 1), doc["squares"]):
        expected = {
            "j": j, "step": 1, "lower_pair": _pair(n, j), "upper_pair": _pair(n, j + 1),
            "def_endpoints": [j + 1, j], "def_pair": _pair(n, j + 1),
            "verdict": True, "failure": None, "bir_passed": True,
        }
        if any(sq.get(key) != value for key, value in expected.items()):
            return f"square {j} differs from the closed form"
        if sq["bir_checked"] < 1 or sq["bir_checked"] + sq["bir_skipped"] != DUALITY_SAMPLES:
            return f"square {j} sample accounting"
    return None


def splitting_answer(k: int, p: list) -> int:
    """j = min(k, min |m|) over the z-exponents m of the u-free terms of a
    one-signed p; terms with a fiber factor vanish on the zero section."""
    return min([k] + [abs(ze) for ze, ue, _ in p if ue == 0])


def _check_splitting(req: dict, doc: dict) -> str | None:
    j = splitting_answer(req["k"], req["p"])
    if doc["splitting"] != [j, -j] or doc["n"] != req["n"]:
        return f"splitting {doc['splitting']}, closed form {[j, -j]}"
    return None


def _check_iso(req: dict, doc: dict, seed: int) -> str | None:
    n, j1, j2 = req["n"], req["j1"], req["j2"]
    iso = (j1 - j2) % n == 0
    got = (doc["j1"], doc["j2"], doc["residue1"], doc["residue2"], doc["isomorphic"])
    if got != (j1, j2, j1 % n, j2 % n, iso):
        return f"verdict {got}, closed form {(j1, j2, j1 % n, j2 % n, iso)}"
    cert = doc["certificate"]
    if (cert is None) == iso:
        return "certificate presence does not match the verdict"
    if cert is None:
        return None
    frames = [[[poly_from_text(s) for s in row] for row in cert[key]]
              for key in ("u_frame", "v_frame")]
    return certificate_problem(n, [[{(-j1, 0): Fraction(1)}]], [[{(-j2, 0): Fraction(1)}]],
                               *frames, seed)


def _check_cert(req: dict, res: dict, seed: int) -> str | None:
    m1, m2 = ([[poly_from_json(p) for p in row] for row in req[key]] for key in ("m1", "m2"))
    u_frame, v_frame = ([[poly_from_json(p) for p in row] for row in res[key]]
                        for key in ("u_frame", "v_frame"))
    return certificate_problem(req["n"], m1, m2, u_frame, v_frame, seed)


def judge(req: dict, res: dict, seed: int) -> tuple[str, str | None]:
    """Classify one executed request as ("ok" | "failed" | "wrong", reason).

    A failure is a raised error, a nonzero exit, or an inconclusive search
    (no certificate) on a pair that is isomorphic by construction.
    """
    if res.get("error"):
        return "failed", res["error"]
    if req["op"] == "cert":
        if res["payload"] is None:
            return "failed", "inconclusive: no certificate for an isomorphic pair"
        problem = _check_cert(req, res["payload"], seed)
    else:
        if res["exit"] != 0:
            return "failed", f"exit code {res['exit']}"
        doc = res["payload"]
        if req["op"] == "duality":
            problem = _check_duality(req, doc)
        elif req["op"] == "splitting":
            problem = _check_splitting(req, doc)
        else:
            problem = _check_iso(req, doc, seed)
    return ("wrong", problem) if problem else ("ok", None)
