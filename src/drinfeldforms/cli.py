"""Command-line front end.

Subcommands:

  dims    print genus, cusp count, expected and computed dimensions
  hecke   emit operator matrices (json/csv/latex), optionally certified
  verify  run a verification suite over a (q, n, k) grid
  graph   export the quotient graph (dot/json)

Options are read off the table COMMANDS as ``--flag value`` or
``--flag=value``; a flag is spelled out in full, and ``-h`` or ``--help``
prints the help read off the same table.  Exit codes: 0 success, 1
verification failure (a wrong dimension included), 2 usage error, 3
resource bound exceeded (the orbit bound, a level whose q^(2(n-1)) stable
orbits exceed it, a T_m whose q^deg(m) transports per orbit exceed it, or
a truncation depth too small for the evaluation reach or the stability
gates).  Every error, a malformed command line included, ends in one line
on stderr.  Outputs are deterministic for a fixed configuration and seed.
"""

import os
import sys
from types import SimpleNamespace

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
    else:
        nmax = args.nmax or 3
        for q in qs:
            _check_level(q, nmax, max_orbits)
        items = congruence_suite_items(qs, lambda q: nmax)
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
    _write([graph.to_dot() if args.format == "dot" else canonical_json_dumps(graph.to_json_dict())], args.out)
    return 0


_COMMON = {
    "--q": (int, None, "field size, a prime power"),
    "--n": (int, None, "level exponent, n >= 1"),
    "--depth": (int, None, "override truncation depth"),
    "--max-orbits": (int, None, f"orbit-table bound (default $DRINFELDFORMS_MAX_ORBITS or {MAX_ORBITS})"),
    "--out": (str, None, "output file (default stdout)"),
}

# command: (handler, summary, required flags, {flag: (kind, default, help)}).  A kind is int, str, a tuple
# of the allowed values, bool for a bare flag, or [int] or [str] when repeatable; a flag mapped to a flag is an alias.
COMMANDS = {
    "dims": (cmd_dims, "dimension and genus data", ("--q", "--n"), {**_COMMON, "--k": (int, 2, "weight")}),
    "hecke": (cmd_hecke, "operator matrices", ("--q", "--n"), {
        **_COMMON,
        "--k": (int, 2, "weight"),
        "--op": ([str], None, "Ut | Tm:<poly> | Diamond:<poly>, repeatable (default Ut)"),
        "--format": (("json", "csv", "latex"), "json", "output format"),
        "--certify": (bool, False, "attach the ordinary certificate"),
    }),
    "verify": (cmd_verify, "run a verification suite", (), {
        "--suite": (("paper", "goss", "congruences"), "paper", "the suite to run"),
        "--q": ([int], None, "field size, repeatable (default 2 and 3)"),
        "--nmax": (int, None, "largest level exponent"),
        "--n": "--nmax",
        "--kmax": (int, 4, "largest weight"),
        "--imax": (int, None, "largest Goss index"),
        "--seed": (int, 0, "seed of the sampled checks"),
        "--jobs": (int, 1, "worker processes"),
        "--out": _COMMON["--out"],
    }),
    "graph": (cmd_graph, "quotient graph export", ("--q", "--n"), {
        **_COMMON, "--format": (("dot", "json"), "dot", "output format")}),
}


def _help(name):
    """A namespace whose handler prints the --help text of command ``name``, or of the program for None."""
    commands = {cmd: (bool, None, row[1]) for cmd, row in COMMANDS.items()}
    summary, required, options = COMMANDS[name][1:] if name else ("<command> --help lists its options", (), commands)
    lines = [f"usage: drinfeldforms {name or '<command>'} [--flag value | --flag=value ...]: {summary}"]
    for flag, spec in options.items():
        kind, default, text = (bool, None, f"alias of {spec}") if isinstance(spec, str) else spec
        meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else "" if kind is bool else flag[2:].upper()
        note = " (required)" if flag in required else f" (default {default})" if default not in (None, False) else ""
        lines.append(f"  {flag + ' ' + meta:<34}{text}{note}")
    return SimpleNamespace(func=lambda _: _write(["\n".join(lines) + "\n"], None) or 0)


def parse_args(argv):
    """The namespace of ``argv`` read against COMMANDS; a malformed argv raises UsageError.

    A token starting with "-" is a value only as a negative integer; a repeated option keeps its last value.
    """
    name, *tokens = argv or [None]
    if name in ("-h", "--help"):
        return _help(None)
    if name not in COMMANDS:
        raise UsageError(f"expected a command ({', '.join(COMMANDS)}), got {name!r}")
    func, _, required, options = COMMANDS[name]
    args = {flag: spec[1] for flag, spec in options.items() if not isinstance(spec, str)}
    while tokens:
        token = tokens.pop(0)
        if token in ("-h", "--help"):
            return _help(name)
        flag, eq, value = token.partition("=")
        flag = options.get(flag) if isinstance(options.get(flag), str) else flag
        kind = options.get(flag, (None,))[0]
        if kind is None or kind is bool and eq:
            raise UsageError(f"{name}: unrecognized argument {token!r}")
        if kind is not bool and not eq:
            if not tokens or tokens[0].startswith("-") and not tokens[0][1:].isdigit():
                raise UsageError(f"{flag} expects a value")
            value = tokens.pop(0)
        try:
            parsed = True if kind is bool else int(value) if kind in (int, [int]) else value
        except ValueError:
            parsed = None
        if parsed is None or isinstance(kind, tuple) and value not in kind:
            choices = "one of " + ", ".join(kind) if isinstance(kind, tuple) else "an integer"
            raise UsageError(f"{flag} expects {choices}, got {value!r}")
        args[flag] = (args[flag] or []) + [parsed] if isinstance(kind, list) else parsed
    missing = [flag for flag in required if args[flag] is None]
    if missing:
        raise UsageError(f"{name} needs {' and '.join(missing)}")
    return SimpleNamespace(func=func, **{flag[2:].replace("-", "_"): value for flag, value in args.items()})


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
