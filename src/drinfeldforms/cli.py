"""Command-line front end.

Subcommands:

  dims    print genus, cusp count, expected and computed dimensions
  hecke   emit operator matrices (json/csv/latex), optionally certified
  verify  run a verification suite over a (q, n, k) grid
  graph   export the quotient graph (dot/json)

Exit codes: 0 success, 1 verification failure (a wrong dimension
included), 2 usage error, 3 resource bound exceeded (the orbit bound, a
level whose q^(2(n-1)) stable orbits exceed it, a T_m whose q^deg(m)
transports per orbit exceed it, or a truncation depth too small for the
evaluation reach or the stability gates).  Every error ends
in one line on stderr.  Outputs are deterministic for a fixed
configuration and seed.
"""

import argparse
import os
import sys

from .cocycles import CocycleSpace, depth_default
from .errors import DimensionMismatchError, ReachError, ResourceBoundError, StabilityError, UsageError
from .fq import field
from .groups import group_context
from .hecke import HeckeEngine, check_operator_argument, operator_chunks, ordinary_certificate
from .serialize import canonical_json_dumps, parse_terms, poly_from_terms
from .tree import MAX_ORBITS, QuotientGraph
from .verify import (
    congruence_suite_items,
    goss_suite_items,
    paper_nmax,
    paper_suite_items,
    run_suite,
    suite_passed,
)

MAX_Q = 64


def _env_max_orbits():
    raw = os.environ.get("DRINFELDFORMS_MAX_ORBITS")
    if not raw:
        return MAX_ORBITS
    try:
        bound = int(raw)
    except ValueError:
        raise UsageError(f"DRINFELDFORMS_MAX_ORBITS must be an integer, got {raw!r}") from None
    _at_least("DRINFELDFORMS_MAX_ORBITS", bound, 1)
    return bound


def _check_q(q):
    try:
        field(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if q > MAX_Q:
        raise UsageError(f"q = {q} exceeds the supported bound {MAX_Q}")


def _at_least(option, value, low):
    if value is not None and value < low:
        raise UsageError(f"{option} must be >= {low}, got {value}")


def _check_out(out):
    """Reject an --out path in a missing directory before any work runs."""
    if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise UsageError(f"cannot write --out {out}: no such directory")


def _check_common(args):
    """Validate the options shared by dims, hecke and graph.

    An unset --max-orbits takes its value from the environment here.
    """
    _check_q(args.q)
    _at_least("--n", args.n, 1)
    _at_least("--k", getattr(args, "k", None), 2)
    _at_least("--depth", args.depth, 0)
    _at_least("--max-orbits", args.max_orbits, 1)
    _check_out(args.out)
    if args.max_orbits is None:
        args.max_orbits = _env_max_orbits()
    _check_level(args.q, args.n, args.max_orbits)


def _check_level(q, n, max_orbits):
    """Exit 3 before any work when the level is out of reach.

    Every quotient graph is seeded with the q^(2(n-1)) stable edge orbits,
    so a count above the orbit bound always ends in exit 3; the
    congruence suite walks as many label pairs.  Checking it first skips
    the group context, which alone lists q^(n-1) labels.
    """
    e = 2 * (n - 1)
    if _exceeds(q, e, max_orbits):
        raise ResourceBoundError(
            f"level t^{n} over F_{q} has {q}^{e} stable edge orbits, more than the "
            f"orbit bound {max_orbits}"
        )


def _exceeds(q, e, bound):
    """q^e > bound; as q >= 2, that holds once e >= bit_length(bound), so no huge power is formed."""
    return e >= bound.bit_length() or q**e > bound


def _write(chunks, out):
    """Write the strings of ``chunks`` in order to --out or stdout; an OSError is a usage error.

    A failed stdout (a closed pipe) is pointed at devnull, so the flush at exit prints nothing."""
    try:
        if out:
            with open(out, "w") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if out:
            raise UsageError(f"cannot write --out {out}: {exc.strerror}") from None
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write to stdout: {exc.strerror}") from None


def cmd_dims(args):
    _check_common(args)
    ctx = group_context(args.q, args.n)
    space = CocycleSpace(
        ctx,
        args.k,
        depth=args.depth,
        max_orbits=args.max_orbits,
    )
    expected = ctx.dim_sk(args.k)
    report = {
        "q": args.q,
        "n": args.n,
        "k": args.k,
        "g": ctx.genus(),
        "h": ctx.cusp_count(),
        "dim": expected,
        "r": ctx.ordinary_rank(),
        "computed_dim": space.dim,
    }
    _write([canonical_json_dumps(report)], args.out)
    return 0 if space.dim == expected else 1


def _parse_ops(fq, n, max_orbits, specs):
    """The --op specs as (kind, argument), checked before the group context is built.

    A diamond argument is reduced mod t^n as it is parsed, and a T_m with
    more than the orbit bound of transports q^deg(m) per orbit exits 3, so
    no polynomial of a huge degree is formed.
    """
    ops = []
    for spec in specs:
        if spec == "Ut":
            ops.append(("Ut", None))
            continue
        if ":" not in spec:
            raise UsageError(f"bad operator spec {spec!r}: expected Ut, Tm:<poly>, Diamond:<poly>")
        kind, _, arg = spec.partition(":")
        if kind not in ("Tm", "Diamond"):
            raise UsageError(f"unknown operator kind {kind!r}")
        terms = parse_terms(fq, arg)
        if kind == "Diamond":
            terms = {e: c for e, c in terms.items() if e < n}
        elif _exceeds(fq.q, max(terms, default=0), max_orbits):
            raise ResourceBoundError(
                f"T_m of degree {max(terms)} has {fq.q}^{max(terms)} transports per orbit, "
                f"more than the orbit bound {max_orbits}"
            )
        p = poly_from_terms(fq, terms)
        check_operator_argument(kind, p)
        ops.append((kind, p))
    return ops


def cmd_hecke(args):
    _check_common(args)
    ops = _parse_ops(field(args.q), args.n, args.max_orbits, args.op or ["Ut"])
    ctx = group_context(args.q, args.n)
    space = CocycleSpace(ctx, args.k, depth=args.depth, max_orbits=args.max_orbits)
    engine = HeckeEngine(space)
    make = {"Ut": lambda _: engine.u_t(), "Tm": engine.t_m, "Diamond": engine.diamond}
    built = [make[kind](arg) for kind, arg in ops]  # the engine builds each operator once
    heckes = [op for (kind, _), op in zip(ops, built) if kind == "Tm"]
    cert = ordinary_certificate(engine.u_t(), heckes) if args.certify else None
    _write(operator_chunks(args.format, built, cert), args.out)
    return 0 if cert is None or cert.valid() else 1


def cmd_verify(args):
    qs = args.q or [2, 3]
    for q in qs:
        _check_q(q)
    _at_least("--nmax", args.nmax, 1)
    _at_least("--kmax", args.kmax, 2)
    _at_least("--imax", args.imax, 1)
    _at_least("--jobs", args.jobs, 1)
    _check_out(args.out)
    max_orbits = _env_max_orbits()
    if args.suite == "paper":
        for q in qs:
            _check_level(q, paper_nmax(q, args.nmax), max_orbits)
        items = paper_suite_items(
            qs, nmax=args.nmax, kmax=args.kmax, seed=args.seed, max_orbits=max_orbits
        )
    elif args.suite == "goss":
        items = goss_suite_items(qs, imax=args.imax)
    elif args.suite == "congruences":
        nmax = args.nmax or 3
        for q in qs:
            _check_level(q, nmax, max_orbits)
        items = congruence_suite_items(qs, lambda q: nmax)
    else:
        raise UsageError(f"unknown suite {args.suite!r}")
    records = run_suite(items, jobs=args.jobs)
    ok = suite_passed(records)
    payload = {
        "suite": args.suite,
        "passed": ok,
        "items": records,
    }
    _write([canonical_json_dumps(payload)], args.out)
    return 0 if ok else 1


def cmd_graph(args):
    _check_common(args)
    ctx = group_context(args.q, args.n)
    depth = depth_default(args.n, 2) if args.depth is None else args.depth
    graph = QuotientGraph(ctx, depth, max_orbits=args.max_orbits)
    if args.format == "dot":
        text = graph.to_dot()
    elif args.format == "json":
        text = canonical_json_dumps(graph.to_json_dict())
    else:
        raise UsageError(f"unsupported graph output format {args.format!r}")
    _write([text], args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="drinfeldforms",
        description="Exact harmonic-cocycle computations for Drinfeld cuspform "
        "spaces of level Gamma_1(t^n): dimensions, Hecke/diamond matrices, and "
        "the verification suites.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--q", type=int, required=True, help="field size, a prime power")
        sp.add_argument("--n", type=int, required=True, help="level exponent, n >= 1")
        sp.add_argument("--depth", type=int, default=None, help="override truncation depth")
        sp.add_argument(
            "--max-orbits",
            type=int,
            default=None,
            help=f"orbit-table bound (default $DRINFELDFORMS_MAX_ORBITS or {MAX_ORBITS})",
        )
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    d = sub.add_parser("dims", help="dimension and genus data")
    common(d)
    d.add_argument("--k", type=int, default=2)
    d.set_defaults(func=cmd_dims)

    h = sub.add_parser("hecke", help="operator matrices")
    common(h)
    h.add_argument("--k", type=int, default=2)
    h.add_argument("--op", action="append", help="Ut | Tm:<poly> | Diamond:<poly>")
    h.add_argument("--format", default="json", choices=["json", "csv", "latex"])
    h.add_argument("--certify", action="store_true", help="attach the ordinary certificate")
    h.set_defaults(func=cmd_hecke)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", default="paper", choices=["paper", "goss", "congruences"])
    v.add_argument("--q", type=int, action="append", help="repeatable; default 2 and 3")
    v.add_argument("--nmax", "--n", type=int, default=None, dest="nmax")
    v.add_argument("--kmax", type=int, default=4)
    v.add_argument("--imax", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("graph", help="quotient graph export")
    common(g)
    g.add_argument("--format", default="dot", choices=["dot", "json"])
    g.set_defaults(func=cmd_graph)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceBoundError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except ReachError as exc:
        print(f"evaluation reach exceeded: {exc}", file=sys.stderr)
        return 3
    except StabilityError as exc:
        print(f"truncation unstable: {exc}", file=sys.stderr)
        return 3
    except DimensionMismatchError as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return 1


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
