"""Workloads of the stemsize benchmark: request pools and seeded selection.

A workload is a list of strata.  Each stratum holds request variants of
about the same cost and says how many of them one pass runs.  A run's seed
picks that many variants from every stratum and shuffles the picks, so each
seed gives a different request list with nearly the same total work, and
the same seed always gives the same list.

The pools are built once by `build_pool` from a fixed pool seed and pinned,
with the SHA-256 of each request's stdout and its exit code, in
`pinned/<workload>.json` (see `pin.py`).  Pinning also splits a stratum
that picks k variants into k strata of neighbouring measured cost, so the
cost of a pass hardly depends on the seed.  A run reads only the pinned
pool.

A request is a dict with an ``id``, either ``argv`` (arguments to
``stemsize.cli.main``) or ``api`` (a public library call whose result is
serialized to JSON), optional ``files`` (input files written before the
pass; ``{name}`` in an argument stands for the path of file ``name``), an
optional ``oracle`` cross-check, and the pinned ``sha256`` and ``rc``.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil

WORKLOADS = ("generic_fold", "chain_bracket", "cli_mix")

POOL_SEED = 20220301
PINNED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned")


# ---------------------------------------------------------------------------
# seeded selection (every run)
# ---------------------------------------------------------------------------


def load_pool(name: str) -> list[dict]:
    with open(os.path.join(PINNED_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)["strata"]


def select(strata: list[dict], seed: int) -> list[dict]:
    """The seed's request list: `pick` variants of every stratum, shuffled."""
    rng = random.Random(seed)
    chosen = []
    for stratum in strata:
        chosen.extend(rng.sample(stratum["variants"], stratum["pick"]))
    rng.shuffle(chosen)
    return chosen


def materialize(requests: list[dict], workdir: str) -> list[dict]:
    """Write the requests' input files under `workdir` (emptied first) and
    return the requests with file placeholders replaced by paths."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = []
    for req in requests:
        req = dict(req)
        files = req.pop("files", {})
        paths = {}
        for key, text in files.items():
            path = os.path.join(workdir, f"{req['id']}.{key}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            paths[key] = path
        if "oracle" in req:
            req["oracle"] = dict(req["oracle"], spec=files["spec"])
        if "argv" in req:
            req["argv"] = [a.format(**paths) if "{" in a else a for a in req["argv"]]
        out.append(req)
    return out


def make_inputs(name: str, seed: int, workdir: str) -> list[dict]:
    return materialize(select(load_pool(name), seed), workdir)


# ---------------------------------------------------------------------------
# pool construction (pin.py only)
# ---------------------------------------------------------------------------


def _stratum(name: str, pick: int, variants: list[dict]) -> dict:
    for i, req in enumerate(variants):
        req["id"] = f"{name}-{i:03d}"
    if pick > len(variants):
        raise ValueError(f"stratum {name}: pick {pick} > {len(variants)} variants")
    return {"name": name, "pick": pick, "variants": variants}


def _cli(*argv, files=None, **extra) -> dict:
    req = {"argv": [str(a) for a in argv]}
    if files:
        req["files"] = files
    req.update(extra)
    return req


def _preset(name, p, n, *flags, fmt="json"):
    return _cli("preset", "--name", name, "--p", p, "--max-degree", n,
                "--format", fmt, *flags)


def _asym(p, *args, fmt="json"):
    return _cli("asymptotics", "--p", p, *args, "--format", fmt)


FORMATS = ("json", "csv")
CUMULATIVE = ((), ("--cumulative",))


def _generic_spec(rng: random.Random) -> str:
    """A spec whose degrees mix a quadratic, an offset geometric and a
    bounded arithmetic family: no divisibility chain, gcd 1 in practice."""
    p = rng.choice((2, 3, 5))
    a, b, c = rng.randint(2, 3), rng.randint(0, 6), rng.randint(1, 9)
    base, c2 = rng.choice((3, 5, 6, 7)), rng.randint(1, 6)
    kind = rng.choice(("ext", f"trunc({rng.randint(2, 4)})"))
    d = rng.randint(5, 40)
    c3, top = rng.randint(1, d - 1), rng.randint(15, 30)
    d4, m4 = rng.randint(2, 30), rng.randint(1, 3)
    return (
        f"p = {p}\n"
        f"gen poly deg = {a}*i^2 + {b}*i + {c} for i = 1..inf\n"
        f"gen poly deg = {base}^i + {c2} for i = 0..inf\n"
        f"gen {kind} deg = {d}*j + {c3} for j = 0..{top}\n"
        f"gen poly deg = {d4} mult = {m4}\n"
    )


def _generic_cost_ok(text: str, n: int) -> bool:
    """Keep specs of about equal fold cost and no chain structure."""
    from stemsize import algebra

    spec = algebra.parse_spec(text)
    gens = algebra.instantiate(spec, n)
    poly = sum(g.multiplicity for g in gens if g.kind.name == "poly")
    degrees = sorted({g.degree for g in gens})
    chain = all(b % a == 0 for a, b in zip(degrees, degrees[1:]))
    if chain or math.gcd(*degrees) != 1 or not 42 <= poly <= 52:
        return False
    bits = max(c.bit_length() for c in algebra.hilbert(spec, n))
    return 60 <= bits <= 80


def _pool_generic_fold(rng: random.Random) -> list[dict]:
    n_dsl = 4096
    specs = []
    while len(specs) < 96:
        text = _generic_spec(rng)
        if _generic_cost_ok(text, n_dsl):
            specs.append(text)
    return [
        # The two heaviest requests are fixed, so the 90th percentile of a
        # pass, which lies between them and mrs_e2_model, hardly depends on
        # the seed.
        _stratum("may_e1_p2", 1, [_preset("may_e1", 2, 2**14, "--drop-q0")]),
        _stratum("may_e1_p3", 1, [_preset("may_e1", 3, 3**9, "--drop-q0", "--cumulative")]),
        _stratum("dual_steenrod", 1, [_preset("dual_steenrod", p, 2**14, *c)
                                      for p in (2, 3) for c in CUMULATIVE]),
        _stratum("mrs_e2_model", 1, [_preset("mrs_e2_model", 2, 2**14, "--h", 2, *c)
                                     for c in CUMULATIVE]),
        _stratum("y_h_lifted", 1, [_preset("y_h_lifted", 2, 2**14, "--h", h, *c)
                                   for h in (2, 3) for c in CUMULATIVE]),
        # Sixteen, so that the median request of a pass lies inside this
        # group of like cost rather than on its edge with the presets.
        _stratum("generic_dsl", 16, [
            _cli("hilbert", "--spec", "{spec}", "--max-degree", n_dsl, "--format",
                 "json", *rng.choice(CUMULATIVE), files={"spec": text})
            for text in specs
        ]),
        *_coverage(rng),
    ]


def _pool_chain_bracket(rng: random.Random) -> list[dict]:
    def bracket(model, cases):
        return [_asym(p, "--name", model, "--n", m, fmt=f)
                for p, m in cases for f in FORMATS]

    def profiles(p, los, hi):
        return [_asym(p, "--name", "s_k", "--h", k, "--points", f"{p}^{lo}..{p}^{hi}",
                      "--exponent", e, fmt=f)
                for k in (0, 1) for e in (2, 3) for lo in los for f in FORMATS]

    return [
        _stratum("may_model_p2_m9", 1, bracket("may_model", [(2, 9)])),
        _stratum("may_model_p2_m8", 1, bracket("may_model", [(2, 8)])),
        _stratum("may_model_p3_m6", 1, bracket("may_model", [(3, 6)])),
        _stratum("may_model_small", 1, bracket("may_model", [(3, 5), (5, 4)])),
        _stratum("r_h_einf_p2_m12", 1, bracket("r_h_einf", [(2, 12)])),
        _stratum("r_h_einf_small", 1, bracket("r_h_einf", [(2, 10), (3, 7)])),
        _stratum("r_h_e2_p2_m12", 1, bracket("r_h_e2", [(2, 12)])),
        _stratum("r_h_e2_p2_m11", 1, bracket("r_h_e2", [(2, 11)])),
        _stratum("r_h_e2_small", 1, bracket("r_h_e2", [(2, 10), (3, 7)])),
        _stratum("s_k_profile_p2", 10, profiles(2, (4, 5, 6), 13)),
        _stratum("s_k_profile_p3", 2, profiles(3, (3, 4), 8)),
        *_coverage(rng),
    ]


def _small_spec(rng: random.Random) -> str:
    p = rng.choice((2, 3, 5))
    lines = [f"p = {p}"]
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("poly", "ext", f"trunc({rng.randint(2, 5)})"))
        form = rng.randint(0, 4)
        if form == 0:
            lines.append(f"gen {kind} deg = {rng.randint(1, 12)}")
        elif form == 1:
            d, c = rng.randint(1, 6), rng.randint(1, 7)
            lines.append(f"gen {kind} deg = {d}*i + {c} for i = 0..{rng.randint(0, 3)}")
        elif form == 2:
            lines.append(f"gen {kind} deg = {rng.randint(2, 3)}^i + {rng.randint(0, 2)}"
                         " for i = 1..inf")
        elif form == 3:
            lines.append(f"gen {kind} deg = {rng.randint(1, 12)} mult = {rng.randint(1, 3)}")
        else:
            lines.append(f"gen {kind} deg = 2*p^i - 1 for i = 1..inf")
    return "\n".join(lines) + "\n"


def _oracle_cheap(text: str, n: int) -> bool:
    """The oracle walks every monomial, so keep specs with few of them."""
    from stemsize import algebra

    return algebra.hilbert_cumulative(algebra.parse_spec(text), n)[n] <= 5000


def _checked_hilbert(rng: random.Random, count: int, fmt: str | None = None) -> list[dict]:
    """`hilbert` requests on small random specs, each cross-checked with the
    oracle; in format `fmt`, or a random one."""
    out = []
    while len(out) < count:
        text, n = _small_spec(rng), rng.randint(20, 60)
        if not _oracle_cheap(text, n):
            continue
        fmt_i, cum = fmt or rng.choice(FORMATS), rng.choice(CUMULATIVE)
        out.append(_cli("hilbert", "--spec", "{spec}", "--max-degree", n,
                        "--format", fmt_i, *cum, files={"spec": text},
                        oracle={"n": n, "format": fmt_i, "cumulative": bool(cum)}))
    return out


def _coverage(rng: random.Random) -> list[dict]:
    """A few tiny requests that reach every layer the workload's main
    requests skip, so that no per-layer time reads zero on every run.  They
    cost a few percent of a pass."""
    return [
        _stratum("cover_tensor", 1, [_asym(p, "--name", "r_h_e2", "--n", m, fmt=f)
                                     for p, m in ((2, 4), (3, 3)) for f in FORMATS]),
        _stratum("cover_max_over_h", 1, [_asym(p, "--name", "r_h_einf", "--n", m, fmt=f)
                                         for p, m in ((2, 4), (3, 3)) for f in FORMATS]),
        _stratum("cover_profile", 1, [
            _asym(3, "--name", "s_k", "--h", k, "--points", "3^2..3^4", "--exponent", e)
            for k in (0, 1) for e in (2, 3)]),
        _stratum("cover_ehp", 1, [_cli("ehp", "--p", 3, "--excess", n, "--max-dim", 30,
                                       "--format", f) for n in (1, 2) for f in FORMATS]),
        _stratum("cover_admissible", 1, [{"api": ["ehp.admissible_series", 3, n]}
                                         for n in (50, 60, 70)]),
        _stratum("cover_torsion", 1, [_cli("torsion", "--p", p, "--n", 200, "--format", f)
                                      for p in (2, 3) for f in FORMATS]),
        _stratum("cover_verify", 1, [_cli("verify", "--suite", "series", "--seed", s)
                                     for s in range(1720, 1724)]),
        _stratum("cover_hilbert", 1, _checked_hilbert(rng, 4)),
    ]


MALFORMED_SPECS = (
    "p = 4\ngen poly deg = 2\n",
    "gen poly deg = 2\n",
    "p = 2\ngen poly deg =\n",
    "p = 2\ngen foo deg = 3\n",
    "p = 2\ngen poly deg = 2*i for i = 1..inf x\n",
    "p = 2\ngen poly deg = 0\n",
    "p = 3\ngen poly deg = i - 5 for i = 0..3\n",
    "p = 2\ngen trunc(1) deg = 3\n",
    "p = 2\ngen poly deg = 3 mult = 0 - 1\n",
    "p = 2\ngen ext deg = q + 1 for i = 1..3\n",
    "p = 2\ngen poly deg = 2 $ 3\n",
    "p = 5\ngen poly deg = 7 for i = 1..inf\n",
)


# No record of real CLI traffic exists, so cli_mix weighs every subcommand
# the same: PER_SUBCOMMAND requests of each per pass, split equally between
# JSON and CSV where the subcommand has --format, and equally between its
# modes (see _pool_cli_mix).  On top come one request for each error exit
# code the CLI documents: 1 for bad input, 3 for a --lower-ceiling below
# the need.
PER_SUBCOMMAND = 60


def _pool_cli_mix(rng: random.Random) -> list[dict]:
    half, sixth, fifth = PER_SUBCOMMAND // 2, PER_SUBCOMMAND // 6, PER_SUBCOMMAND // 5

    def by_format(name, pick, make):
        """One stratum per format, `pick` requests each, from `make(fmt)`."""
        return [_stratum(f"{name}_{f}", pick, make(f)) for f in FORMATS]

    def presets(fmt):
        out = []
        for _ in range(80):
            p = rng.choice((2, 3, 5))
            name = rng.choice(("may_e1", "may_model", "dual_steenrod", "s_k", "r_h_e2",
                               "r_h_einf", "y_h_lifted", "mrs_e2_model", "yn_conj", "q_poly"))
            flags: list = []
            if name in ("may_e1", "q_poly"):
                flags.append("--drop-q0")
            if name == "may_e1" and p != 2 and rng.random() < 0.5:
                flags.append("--simplify-odd")
            if name == "s_k":
                flags += ["--h", rng.randint(0, 3)]
            elif name not in ("may_e1", "may_model", "dual_steenrod", "q_poly"):
                flags += ["--h", rng.randint(1, 3)]
            flags += rng.choice(CUMULATIVE)
            out.append(_preset(name, p, rng.randint(20, 200), *flags, fmt=fmt))
        return out

    def torsion(fmt):
        out = []
        for _ in range(60):
            p, curve = rng.choice((2, 3, 5, 7)), rng.choice(("linear", "sqrt", "table"))
            files = None
            if curve == "table":
                n = rng.randint(1, 400)
                files = {"table": "".join(f"{max(1, math.isqrt(i))}\n"
                                          for i in range(1, n + 1))}
                curve = "table:{table}"
            else:
                n = rng.randint(1, 3000)
            out.append(_cli("torsion", "--p", p, "--n", n, "--curve", curve,
                            "--format", fmt, files=files))
        return out

    def listings(fmt):  # completely unadmissible sequences
        out = []
        for _ in range(40):
            p = rng.choice((2, 3, 5))
            out.append(_cli("ehp", "--p", p, "--excess", rng.randint(1, 4), "--max-dim",
                            rng.randint(10, 34 if p == 2 else 60), "--format", fmt))
        return out

    def a_series(fmt):  # A(n;t)
        out = []
        for _ in range(40):
            p = rng.choice((2, 3, 5))
            out.append(_cli("ehp", "--p", p, "--excess", rng.randint(1, 6), "--max-degree",
                            rng.randint(30, 90 if p == 2 else 120), "--format", fmt))
        return out

    # ehp's third enumeration has no subcommand: the library call, in JSON.
    admissible = [{"api": ["ehp.admissible_series", 2, n]} for n in range(100, 172, 4)]
    admissible += [{"api": ["ehp.admissible_series", 3, n]} for n in range(150, 300, 8)]

    def constants(fmt):
        return [_asym(p, fmt=fmt) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]

    def bracketing(fmt):
        return [_asym(p, "--name", model, "--n", m, fmt=fmt)
                for p in (2, 3) for model, ms in (("may_model", (3, 4, 5)),
                                                   ("r_h_e2", (3, 4, 5, 6)),
                                                   ("r_h_einf", (3, 4, 5, 6)))
                for m in ms]

    def profiles(fmt):
        return [_asym(p, "--name", "s_k", "--h", k, "--points",
                      f"{p}^2..{p}^{6 if p == 3 else 9}", "--exponent", e, fmt=fmt)
                for p in (2, 3) for k in (0, 1, 2) for e in (2, 3)]

    def suites(name):
        return [_cli("verify", "--suite", name, "--seed", s) for s in range(1720, 1740)]

    exit1 = [_cli("hilbert", "--spec", "{spec}", "--max-degree", 30, files={"spec": t})
             for t in MALFORMED_SPECS]
    exit1 += [
        _cli("torsion", "--p", 2, "--n", 10, "--curve", "cubic"),
        _cli("torsion", "--p", 2, "--n", 0),
        _asym(2, "--name", "s_k", "--h", 0, "--points", "2^9..3^12"),
        _asym(2, "--name", "s_k", "--h", 0, "--points", "2^9..2^4"),
        _preset("r_h_e2", 2, 40),
        _preset("may_e1", 2, 40),
        _cli("ehp", "--p", 2, "--excess", 0, "--max-dim", 10),
        _cli("verify", "--suite", "nope"),
    ]
    exit3 = [_asym(2, "--name", "may_model", "--n", m, "--lower-ceiling", c)
             for m, c in ((5, 40), (6, 10), (6, 100), (7, 300))]

    return [
        *by_format("hilbert", half, lambda f: _checked_hilbert(rng, 120, f)),
        *by_format("preset", half, presets),
        *by_format("torsion", half, torsion),
        # ehp: listings, A(n;t) and admissible_series, a third each
        *by_format("ehp_listing", sixth, listings),
        *by_format("ehp_a_series", sixth, a_series),
        _stratum("ehp_admissible", 2 * sixth, admissible),
        # asymptotics: growth constants, bracketing checks and s_k profiles
        *by_format("constants", sixth, constants),
        *by_format("bracketing", sixth, bracketing),
        *by_format("profile", sixth, profiles),
        # verify: the five suites (it has no --format)
        *(_stratum(f"verify_{name}", fifth, suites(name))
          for name in ("series", "algebra", "presets", "ehp", "torsion")),
        _stratum("errors_exit1", 1, exit1),
        _stratum("errors_exit3", 1, exit3),
    ]


_BUILDERS = {
    "generic_fold": _pool_generic_fold,
    "chain_bracket": _pool_chain_bracket,
    "cli_mix": _pool_cli_mix,
}


def build_pool(name: str) -> list[dict]:
    """The unpinned request pool of a workload, from the fixed pool seed."""
    return _BUILDERS[name](random.Random(f"{POOL_SEED}-{name}"))
