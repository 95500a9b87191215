"""The four workloads: their items, how each item runs, and how it is checked.

An item calls mfvc's public API once (a CLI command run in-process with
stdout captured, or a library call) and returns what it produced.  `check`
compares that against the built-in checks and the golden digests recorded
at the seed commit (`golden.json`).  Items run in a closed loop: the next
one starts when the previous one has returned and been checked.
"""

import contextlib
import hashlib
import io
import json
import random

# mfvc is imported only inside the items, so that run.py can start (and
# refuse to run) in a directory without the program.
FAMILIES = ("loop", "chain", "bp")
SWEEP_SPECS = [(fam, p, q) for fam in FAMILIES for p in range(2, 7) for q in range(2, 7)]
LARGE_COMMANDS = (
    ("mirror-check", ["mirror-check", "--family", "loop", "--p", "8", "--q", "8"]),
    ("homtable", ["homtable", "--family", "loop", "--p", "8", "--q", "8"]),
    ("quiver", ["quiver", "--side", "both", "--family", "loop", "--p", "6", "--q", "6"]),
)
# bside.gabriel_quiver is the only caller of directed.path_algebra_dimension
GABRIEL_SPEC = ("chain", 6, 6)
ORACLE_CASES = 100   # the first 100 of acceptance criterion 6's 200 cases
ORACLE_SEED = 2024   # criterion 6's generator seed
TRANSPORT_TOL = 1e-6  # transport-verify's default --tol
WORKLOADS = ("sweep", "large", "oracle", "numeric")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv):
    """mfvc.cli.main in-process; returns (exit code, captured stdout)."""
    from mfvc import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def spec_args(fam, p, q):
    return ["--family", fam, "--p", str(p), "--q", str(q)]


class Item:
    """One unit of work: `run()` calls the program, `observe(out)` reduces
    its output to the facts the checks compare."""

    def __init__(self, key, run, observe):
        self.key = key
        self.run = run
        self.observe = observe


def _cli_observe(rc, text, command):
    obs = {"rc": rc, "digest": digest(text), "bytes": len(text.encode())}
    if command == "mirror-check":
        obs["pass"] = json.loads(text)["pass"] if text else None
    return obs


def _cli_item(key, argv):
    return Item(key, lambda: run_cli(argv), lambda out: _cli_observe(*out, argv[0]))


def sweep_items():
    return [_cli_item(f"mirror-check {fam} {p} {q}", ["mirror-check"] + spec_args(fam, p, q))
            for fam, p, q in SWEEP_SPECS]


def run_gabriel(fam, p, q):
    """The B side's Gabriel quiver, checked against the sum of hom dimensions."""
    from mfvc.bside import gabriel_quiver
    from mfvc.families import FamilySpec

    return gabriel_quiver(FamilySpec(fam, p, q))


def _quiver_observe(quiver):
    return {"digest": digest(json.dumps(quiver.to_json_dict(), sort_keys=True))}


def large_items():
    fam, p, q = GABRIEL_SPEC
    return [_cli_item(name, argv) for name, argv in LARGE_COMMANDS] + [
        Item(f"gabriel_quiver {fam} {p} {q}", lambda: run_gabriel(fam, p, q), _quiver_observe)]


def oracle_cases():
    """Plain-data cases drawn exactly as acceptance criterion 6 draws them."""
    rng = random.Random(ORACLE_SEED)
    cases = []
    for _ in range(ORACLE_CASES):
        family = rng.choice(list(FAMILIES))
        p, q = rng.randint(2, 5), rng.randint(2, 5)
        ex, ey = rng.randint(1, p), rng.randint(1, q)
        with_w = rng.random() < 0.5
        with_f = rng.random() < 0.3
        delta = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-1, 1))
        cases.append((family, p, q, ex, ey, with_w, with_f, delta))
    return cases


def run_oracle_case(case):
    """(Groebner piece dimension, brute-force oracle dimension)."""
    from mfvc.grading import make_grading_group
    from mfvc.polyring import (QuotientRing, brute_force_piece_dim, family_factor,
                               family_w, poly_x, poly_y)

    family, p, q, ex, ey, with_w, with_f, delta = case
    g = make_grading_group(family, p, q)
    gens = [poly_x(ex), poly_y(ey)]
    if with_w:
        gens.append(family_w(family, p, q))
    if with_f:
        f = family_factor(family, p, q)
        if f is not None:
            gens.append(f)
    d = g.element(*delta)
    bound = 3 * p * q
    dim = len(QuotientRing(g, gens).graded_piece_basis(d, bound=bound))
    return dim, brute_force_piece_dim(g, gens, g.zero, d, bound)


def oracle_items():
    def observe(out):
        dim, oracle = out
        return {"dims": [dim, oracle], "digest": digest(f"{dim} {oracle}")}

    return [Item(f"oracle case {i:03d}", lambda c=case: run_oracle_case(c), observe)
            for i, case in enumerate(oracle_cases())]


def transport_rows(csv_text):
    """Row count and per-row ok flags of a transport-verify CSV."""
    rows = csv_text.strip().splitlines()[1:]
    flags = []
    for row in rows:
        fields = row.split(",")
        flags.append(float(fields[3]) <= TRANSPORT_TOL and float(fields[4]) <= TRANSPORT_TOL)
    return len(rows), flags


NEWTON_FIELDS = ("count", "expected_count", "interior_count", "count_ok", "morse_ok",
                 "value_args_ok", "ok")


def run_numeric(fam, p, q):
    from mfvc.aside import numeric_morsification_check
    from mfvc.families import FamilySpec

    rc, text = run_cli(["transport-verify"] + spec_args(fam, p, q))
    return rc, text, numeric_morsification_check(FamilySpec(fam, p, q))


def _numeric_observe(out):
    rc, text, report = out
    n_rows, flags = transport_rows(text)
    newton = {k: report[k] for k in NEWTON_FIELDS}
    return {
        "rc": rc,
        "bytes": len(text.encode()),
        "rows": n_rows,
        "rows_ok": all(flags),
        "digest": digest(f"{n_rows} {''.join('1' if f else '0' for f in flags)}"),
        "newton_ok": report["ok"],
        "newton_digest": digest(json.dumps(newton, sort_keys=True)),
    }


def numeric_items():
    return [Item(f"numeric {fam} {p} {q}", lambda a=(fam, p, q): run_numeric(*a), _numeric_observe)
            for fam, p, q in SWEEP_SPECS]


BUILDERS = {"sweep": sweep_items, "large": large_items, "oracle": oracle_items,
            "numeric": numeric_items}


def build(workload):
    return BUILDERS[workload]()


def check(obs, golden):
    """Reasons an observed item fails, and whether it shows the known
    numeric-morsification defect.  `golden` is the item's recorded entry.

    An item fails if it raised, exited with another code than recorded, has
    a mirror check whose `pass` is false, an output digest that differs from
    the golden one, an oracle mismatch, or a transport row that is not ok.
    A Newton report with `ok` false counts as the known defect when the
    golden record has the same report; any other Newton report fails."""
    if "error" in obs:
        return [obs["error"]], False
    if golden is None:
        return ["no golden record"], False
    reasons = []
    if "rc" in obs and obs["rc"] != golden["rc"]:
        reasons.append(f"exit code {obs['rc']} != {golden['rc']}")
    if obs.get("pass") is False:
        reasons.append("mirror check pass is false")
    if "dims" in obs and obs["dims"][0] != obs["dims"][1]:
        reasons.append(f"oracle mismatch {obs['dims'][0]} != {obs['dims'][1]}")
    if obs.get("rows_ok") is False:
        reasons.append("transport row not ok")
    if obs["digest"] != golden["digest"]:
        reasons.append("output digest differs from golden")
    defect = False
    if "newton_digest" in obs:
        if obs["newton_digest"] != golden["newton_digest"]:
            reasons.append("Newton report differs from golden")
        elif not obs["newton_ok"]:
            defect = True
    return reasons, defect


def golden_entry(obs):
    """The part of an observation recorded in golden.json."""
    keep = ("rc", "digest", "newton_digest", "newton_ok")
    return {k: obs[k] for k in keep if k in obs}
