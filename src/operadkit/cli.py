"""Command line surface for the verification workbench.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or input
error.  All sampling is seeded (default seed 0) so runs reproduce exactly;
report JSON is byte-identical across runs with equal seeds.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bv, cacti, gravity, groups, stringbr
from .operads import require_at_least, require_at_most
from .poisson import poincare_polynomial
from .reports import default_suite

# Largest arity each command accepts, refused above before any enumeration:
# bases grow like k! (|G|^k for groups).  Times at each limit are in CHANGES.md.
ARITY_BUDGET = {
    "dims e2": 11, "dims grav": 8, "dims moduli": 40,
    "verify jacobi": 9, "verify bv": 7, "verify free-module": 8,
    "verify closure": 7, "verify generation": 7, "verify lie": 8, "verify grav4": 7,
    "group fixed-points": 5, "group verify": 5, "cacti verify": 10,
    "string gravity": 16,
}
# The int options each verify law reads, with their defaults; each law has
# its own subparser, so an option it does not read is refused.
VERIFY_OPTIONS = {
    "jacobi": {"--k": 2, "--l": 0}, "bv": {"--arity": 4}, "free-module": {"--arity": 4},
    **{law: {"--max-arity": 5} for law in ("closure", "generation", "lie", "grav4")},
}
# The group commands enumerate |G|^k tuples, so |G|^k is bounded as well: by
# S4 at arity 5, the largest request the bundled groups make
# (`group fixed-points --table S4 --arity 5` takes about 2 s on a 2-vCPU
# x86-64 host, since the fixed-point scan runs inside itertools).
GROUP_TUPLE_BUDGET = 24**5
# `string gravity` enumerates b_dim^(k+l) basis tuples and expands k(k-1)/2
# bracket-first terms in each, so that product is bounded: by the bundled
# blocks pair at k = 4, l = 1 (about 5.4 s on a 2-vCPU x86-64 host, since
# terms with a zero head are skipped).
STRING_GRAVITY_BUDGET = 6 * 14**5
# Every `string` action first builds tables with a key per pair of basis
# entries, so each basis list is bounded too: 256 entries, with no product,
# take about 0.2 s and 32 MB to validate and 0.5 s to check transfer-lie on a
# 256 x 256 pair, on a 2-vCPU x86-64 host.  The bundled bases have at most 28.
STRING_BASIS_BUDGET = 256


def _emit(reports):
    bad = False
    for rep in reports:
        print(rep.line())
        if not rep.passed:
            bad = True
    return 1 if bad else 0


def _cmd_dims(args):
    require_at_most("arity", args.arity, ARITY_BUDGET["dims " + args.table])
    b = args.bracket_degree
    if args.table == "e2":
        dims = poincare_polynomial(args.arity, b)
    elif args.table == "grav":
        dims = gravity.gravity_dims(args.arity, b)
    else:
        dims = gravity.moduli_dimension_oracle(args.arity, b)
    print(dims)
    return 0


def _cmd_verify(args):
    law = args.law
    if law == "jacobi":
        require_at_most("arity k+l", args.k + args.l, ARITY_BUDGET["verify jacobi"])
        return _emit([gravity.verify_generalized_jacobi(args.k, args.l)])
    if law in ("bv", "free-module"):
        require_at_most("arity", args.arity, ARITY_BUDGET["verify " + law])
        if law == "bv":
            return _emit(bv.check_bv_relations(args.arity))
        return _emit([gravity.check_free_module(args.arity)])
    require_at_most("max arity", args.max_arity, ARITY_BUDGET["verify " + law])
    check = {
        "closure": gravity.check_suboperad_closure,
        "generation": gravity.check_generation,
        "lie": gravity.check_lie_embedding,
        "grav4": gravity.grav4_table,
    }[law]
    return _emit([check(args.max_arity)])


def _cmd_cacti_verify(args):
    require_at_most("max arity", args.max_arity, ARITY_BUDGET["cacti verify"])
    fn = {
        "cocycle": cacti.check_cocycle,
        "coend": cacti.check_coend,
        "equivariance": cacti.check_rotation_equivariance,
        "associativity": cacti.check_associativity_batch,
    }[args.identity]
    return _emit([fn(args.max_arity, args.samples, args.seed, args.max_denominator)])


def _cmd_cacti_compose(args):
    loaded = []
    for path in (args.file1, args.file2):
        try:
            with open(path) as fh:
                loaded.append(cacti.cactus_from_dict(json.load(fh)))
        except (OSError, ValueError) as err:
            print("cannot load cactus %r: %s" % (path, err), file=sys.stderr)
            return 2
    c, d = loaded
    out = cacti.compose_i(c, d, args.at)
    print(json.dumps(cacti.cactus_to_dict(out), sort_keys=True))
    return 0


def _load_group(spec):
    lib = groups.bundled_groups()
    if spec in lib:
        return lib[spec]
    with open(spec) as fh:
        return groups.group_from_dict(json.load(fh), name=spec)


def _cmd_group(args):
    if args.action != "tomdieck":
        require_at_most("arity", args.arity, ARITY_BUDGET["group " + args.action])
    try:
        G = _load_group(args.table)
    except (OSError, ValueError) as err:
        print("cannot load group table %r: %s" % (args.table, err), file=sys.stderr)
        return 2
    if args.action != "tomdieck":
        require_at_most("group order^arity", G.order**args.arity, GROUP_TUPLE_BUDGET)
    if args.action == "fixed-points":
        require_at_least("arity", args.arity, 1)
        for k in range(1, args.arity + 1):
            fixed = groups.fixed_point_operad(G, k)
            print("arity %d: %d fixed tuples (center^%d)" % (k, len(fixed), k))
        return 0
    if args.action == "tomdieck":
        for rec in groups.tom_dieck_summands(G):
            mark = "*" if rec.is_representative else " "
            print(
                "%s H=%s |C(H)|=%d |W(H)|=%d"
                % (mark, list(rec.elements), len(rec.centralizer), rec.weyl_order)
            )
        return 0
    reports = [
        groups.check_fixed_points(G, args.arity),
        groups.check_conjugation_equivariance(G),
    ]
    reports.extend(groups.check_group_harness(G))
    return _emit(reports)


def _cmd_string(args):
    try:
        with open(args.data) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as err:
        print("cannot read data file %r: %s" % (args.data, err), file=sys.stderr)
        return 2
    parts = [raw, raw.get("B")] if isinstance(raw, dict) else []
    for field, part in zip(("basis", "B.basis"), parts):
        if isinstance(part, dict) and isinstance(part.get("basis"), list):
            require_at_most(field + " entries", len(part["basis"]), STRING_BASIS_BUDGET)
    if args.action == "validate":
        val = stringbr.validate_bv(raw)
        for line in val.lines():
            print(line)
        return 0 if val.accepted else 1
    try:
        pair = stringbr.pair_from_dict(raw)
    except stringbr.PairDataError as err:
        print("cannot load pair data %r: %s" % (args.data, err), file=sys.stderr)
        return 2
    except ValueError as err:
        print("pair data rejected: %s" % err, file=sys.stderr)
        return 1
    if args.action == "mbar":
        index = {nm: n for n, nm in enumerate(pair.b_names)}
        try:
            picks = [index[a] for a in args.args]
        except KeyError as err:
            print("unknown basis name %s" % err, file=sys.stderr)
            return 2
        if len(picks) != args.k:
            print("need exactly k arguments", file=sys.stderr)
            return 2
        print(stringbr.format_vec(stringbr.m_bar(pair, args.k, picks), pair.b_names))
        return 0
    if args.action == "gravity":
        require_at_least("k", args.k, 2)
        require_at_least("l", args.l, 0)
        require_at_least("arity k+l", args.k + args.l, 3)
        require_at_most("arity k+l", args.k + args.l, ARITY_BUDGET["string gravity"])
        work = pair.b_dim ** (args.k + args.l) * (args.k * (args.k - 1) // 2)
        require_at_most("b_dim^(k+l) * k(k-1)/2", work, STRING_GRAVITY_BUDGET)
        return _emit([stringbr.verify_gravity_algebra(pair, args.k, args.l)])
    return _emit([stringbr.check_transfer_lie(pair)])


def _cmd_report(args):
    doc = default_suite(seed=args.seed, fast=(args.suite == "fast"))
    text = doc.to_json() if args.format == "json" else doc.to_markdown()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("wrote %s (%d checks, verdict %s)" % (
            args.out, len(doc.entries), "pass" if doc.passed else "fail"))
    return 0 if doc.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="operadkit",
        description="exact verification workbench for chord-diagram operads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension tables")
    p.add_argument("table", choices=["e2", "grav", "moduli"])
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--bracket-degree", type=int, default=1)
    p.set_defaults(fn=_cmd_dims)

    p = sub.add_parser("verify", help="algebraic identity batteries")
    laws = p.add_subparsers(dest="law", required=True)
    for law, options in VERIFY_OPTIONS.items():
        pl = laws.add_parser(law)
        for flag, default in options.items():
            pl.add_argument(flag, type=int, default=default)
        pl.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cacti", help="spineless cacti checks")
    csub = p.add_subparsers(dest="cacti_command", required=True)
    pv = csub.add_parser("verify", help="seeded identity batches")
    pv.add_argument(
        "identity", choices=["cocycle", "coend", "equivariance", "associativity"]
    )
    pv.add_argument("--samples", type=int, default=1000)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--max-arity", type=int, default=5)
    pv.add_argument("--max-denominator", type=int, default=64)
    pv.set_defaults(fn=_cmd_cacti_verify)
    pc = csub.add_parser("compose", help="splice two cactus files")
    pc.add_argument("file1")
    pc.add_argument("file2")
    pc.add_argument("--at", type=int, required=True)
    pc.set_defaults(fn=_cmd_cacti_compose)

    p = sub.add_parser("group", help="finite group operads")
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("fixed-points", "tomdieck", "verify"):
        pa = actions.add_parser(action)
        pa.add_argument("--table", required=True,
                        help="JSON table file, or the name of a bundled group (e.g. S3)")
        if action != "tomdieck":
            pa.add_argument("--arity", type=int, default=3)
        pa.set_defaults(fn=_cmd_group)

    p = sub.add_parser("string", help="data-driven string brackets")
    p.add_argument("action", choices=["validate", "mbar", "gravity", "transfer-lie"])
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--args", nargs="*", default=[])
    p.set_defaults(fn=_cmd_string)

    p = sub.add_parser("report", help="run a suite and render a report")
    p.add_argument("--suite", choices=["default", "fast"], default="default")
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.add_argument("--out", default="-")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_report)
    return parser


def run_cli(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
