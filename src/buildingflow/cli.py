"""Command-line surface.

Commands: ``count`` (exact cycle counts by DP, closed form, or the
building oracle), ``validate`` (the full cross-validation matrix),
``entropy`` (growth rates and the recurrence margin), ``graph`` and
``weights`` (transition-table exports).

Counts cross the process boundary as decimal text so arbitrary
precision survives every format; half-integer edge indices are
serialized doubled (k2 = 2k, l2 = 2l).  Exit codes: 0 success,
1 validation mismatch, 2 invalid input, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import deque

from . import analysis, building, crosscheck, shift
from .algebra import is_supported_q
from .errors import BudgetExceededError, UnsupportedFieldError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

_PERIOD = {"pgl3": 3, "pgl2": 2}


class CliError(Exception):
    """Invalid configuration; maps to exit code 2."""


def _read_config_file(path: str) -> dict[str, str]:
    """key = value lines; '#' starts a comment; flags win over the file."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


_CONFIG_TYPES = {
    "q": int,
    "steps": int,
    "m_max": int,
    "max_leaves": int,
    "threads": int,
    "flow": str,
    "method": str,
    "kind": str,
    "format": str,
    "from_oracle": lambda s: s.lower() in ("1", "true", "yes"),
}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file, then from defaults."""
    file_vals: dict = {}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in _CONFIG_TYPES:
                raise CliError(f"unknown config key {key!r}")
            try:
                file_vals[key] = _CONFIG_TYPES[key](raw)
            except ValueError as exc:
                raise CliError(f"bad value for {key!r}: {raw!r}") from exc
    for key, val in file_vals.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, val)
    for key, default in getattr(args, "_defaults", {}).items():
        if getattr(args, key, None) is None:
            setattr(args, key, default)
    return args


def _require_supported_q(q: int) -> None:
    if q is None:
        raise CliError("--q is required")
    if not is_supported_q(q):
        raise CliError(
            f"q={q} is not a supported field size (primes up to 10000, or 4, 8, 9)"
        )


def _choice(value: str, allowed: tuple[str, ...], what: str) -> str:
    if value not in allowed:
        raise CliError(f"{what} must be one of {allowed}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _count_rows(args) -> list[tuple[int, int]]:
    period = _PERIOD[args.flow]
    ns = range(period, args.steps + 1, period)
    first_return = args.kind == "f"
    if args.method == "dp":
        if ns and args.flow != "pgl3":
            raise CliError("method dp is defined for flow pgl3 only")
        profs = shift.dp_sweep(args.q, args.steps - args.steps % period, taboo=first_return)
        base = shift.base_edge()
        return [(n, p.get(base, 0)) for n, p in enumerate(profs) if n and n % period == 0]
    if args.method == "closed":
        if args.flow == "pgl2":
            return [(n, analysis.pgl2_closed(args.q, n, args.kind)) for n in ns]
        closed = analysis.closed_f if first_return else analysis.closed_g
        return [(n, closed(args.q, n)) for n in ns]
    dim = 3 if args.flow == "pgl3" else 2
    return [
        (n, building.oracle_counts(args.q, n, dim, first_return, args.max_leaves, args.threads))
        for n in ns
    ]


def _profile_rows(args) -> list[tuple[int, int, int]]:
    n = args.steps
    if n % 3:
        raise CliError("kind N needs steps to be a multiple of 3")
    if args.method == "dp":
        prof = deque(shift.dp_sweep(args.q, n), maxlen=1).pop()
    elif args.method == "closed":
        m = n // 3
        prof = {}
        for e in shift.all_valid_edges(n + 2):
            if (e.k2 + e.l2) % 3 != 1:
                continue
            v = analysis.closed_N(args.q, m, e.k2, e.l2)
            if v:
                prof[e] = v
    else:
        prof = building.oracle_terminal_profile(args.q, n, max_leaves=args.max_leaves)
    return [(e.k2, e.l2, c) for e, c in sorted(prof.items(), key=lambda x: (x[0].k2, x[0].l2))]


def cmd_count(args) -> int:
    _require_supported_q(args.q)
    if args.steps is None or args.steps < 1:
        raise CliError("--steps must be >= 1")
    _choice(args.flow, ("pgl3", "pgl2"), "--flow")
    _choice(args.method, ("dp", "closed", "oracle"), "--method")
    _choice(args.kind, ("g", "f", "N"), "--kind")
    fmt = _choice(args.format, ("human", "json", "csv"), "--format")

    if args.kind == "N":
        if args.flow != "pgl3":
            raise CliError("kind N is defined for flow pgl3 only")
        rows = _profile_rows(args)
        cols, titles, widths = ("k2", "l2", "count"), ("k", "l", "count"), (6, 6, 12)
        human = [(_half(k2), _half(l2), c) for k2, l2, c in rows]
    else:
        rows = _count_rows(args)
        cols, titles, widths, human = ("n", "count"), ("n", "count"), (4, 24), rows
    if fmt == "human":
        for cells in (titles, *human):
            print(" ".join(f"{v:>{w}}" for v, w in zip(cells, widths)))
        return EXIT_OK
    rows = [(*r[:-1], str(r[-1])) for r in rows]  # counts cross the wire as decimal text
    if fmt == "csv":
        print(_csv(list(cols), rows))
        return EXIT_OK
    print(
        _json(
            {
                "command": "count",
                "q": args.q,
                "flow": args.flow,
                "kind": args.kind,
                "method": args.method,
                "steps": args.steps,
                "rows": [dict(zip(cols, r)) for r in rows],
            }
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    _require_supported_q(args.q)
    fmt = _choice(args.format, ("human", "json"), "--format")
    cfg = crosscheck.ValidationConfig(
        q=args.q,
        steps=args.steps,
        m_max=args.m_max,
        max_leaves=args.max_leaves,
        threads=args.threads,
    )
    results = crosscheck.run_validation(cfg)
    ok = crosscheck.all_passed(results)
    if fmt == "json":
        print(
            _json(
                {
                    "command": "validate",
                    "q": args.q,
                    "steps": args.steps,
                    "m_max": args.m_max,
                    "passed": ok,
                    "checks": [r.as_dict() for r in results],
                }
            )
        )
    else:
        for r in results:
            status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
            line = f"{status:4} {r.name}"
            if not r.passed:
                line += f"  expected={r.expected}  actual={r.actual}"
            if r.detail and (not r.passed or r.skipped):
                line += f"  [{r.detail}]"
            print(line)
        n_checks = len(results)
        n_skip = sum(1 for r in results if r.skipped)
        print(
            f"{'OK' if ok else 'MISMATCH'}: {n_checks} checks, "
            f"{sum(1 for r in results if r.passed and not r.skipped)} passed, "
            f"{n_skip} skipped, {sum(1 for r in results if not r.passed)} failed"
        )
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def cmd_entropy(args) -> int:
    _require_supported_q(args.q)
    fmt = _choice(args.format, ("human", "json", "csv"), "--format")
    rep = analysis.spr_report(args.q)
    if fmt == "json":
        print(
            _json(
                {
                    "command": "entropy",
                    "q": rep.q,
                    "h_nats": rep.h_nats,
                    "growth_f_nats": rep.growth_f_nats,
                    "margin_nats": rep.margin_nats,
                    "paper_claimed_growth_nats": rep.paper_claimed_growth_nats,
                    "spr": rep.spr,
                    "exact": {
                        "h": list(rep.exact_h),
                        "growth_f": list(rep.exact_growth_f),
                    },
                    "note": rep.note,
                }
            )
        )
    elif fmt == "csv":
        print(
            _csv(
                ["q", "h_nats", "growth_f_nats", "margin_nats", "paper_claimed_growth_nats", "spr"],
                [
                    (
                        rep.q,
                        f"{rep.h_nats:.12f}",
                        f"{rep.growth_f_nats:.12f}",
                        f"{rep.margin_nats:.12f}",
                        f"{rep.paper_claimed_growth_nats:.12f}",
                        rep.spr,
                    )
                ],
            )
        )
    else:
        a, b = rep.exact_h
        c, d = rep.exact_growth_f
        print(f"q                    : {rep.q}")
        print(f"entropy h            : {rep.h_nats:.6f} nats  (exact (1/3)·log(q^{a}))")
        print(
            f"first-return growth  : {rep.growth_f_nats:.6f} nats  "
            f"(exact (1/3)·log(q^{c}·(q^2+q-1)^{d}))"
        )
        print(f"margin h - growth    : {rep.margin_nats:.6f} nats")
        print(f"announced growth     : {rep.paper_claimed_growth_nats:.6f} nats ((5/3)·log q)")
        print(f"strongly pos. rec.   : {rep.spr}")
        print(f"note                 : {rep.note}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# graph / weights
# ---------------------------------------------------------------------------


def cmd_graph(args) -> int:
    _require_supported_q(args.q)
    fmt = _choice(args.format, ("dot", "json"), "--format")
    if args.m_max is None or args.m_max < 2:
        raise CliError("--m-max must be >= 2")
    table = shift.build_graph(args.q, args.m_max)
    if fmt == "dot":
        sys.stdout.write(shift.graph_to_dot(table))
    else:
        print(
            _json(
                {
                    "command": "graph",
                    "q": args.q,
                    "m_max": args.m_max,
                    "edges": shift.graph_records(table),
                }
            )
        )
    return EXIT_OK


def cmd_weights(args) -> int:
    _require_supported_q(args.q)
    fmt = _choice(args.format, ("human", "json", "csv"), "--format")
    if args.m_max is None or args.m_max < 2:
        raise CliError("--m-max must be >= 2")
    if args.from_oracle:
        table = building.oracle_transition_census(args.q, args.m_max)
    else:
        table = shift.build_graph(args.q, args.m_max)
    items = list(shift.sorted_table_items(table))
    source = "oracle census" if args.from_oracle else "fold rule"
    if fmt == "human":
        print(f"{'from':>12} {'to':>12} {'weight':>8}   ({source}, m <= {args.m_max})")
        for e, s, w in items:
            print(f"{e.pretty():>12} {s.pretty():>12} {w:>8}")
    elif fmt == "json":
        print(
            _json(
                {
                    "command": "weights",
                    "q": args.q,
                    "m_max": args.m_max,
                    "source": "oracle" if args.from_oracle else "fold",
                    "edges": shift.graph_records(table),
                }
            )
        )
    else:
        print(
            _csv(
                ["from_k2", "from_l2", "to_k2", "to_l2", "weight"],
                [(e.k2, e.l2, s.k2, s.l2, str(w)) for e, s, w in items],
            )
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _half(x2: int) -> str:
    return str(x2 // 2) if x2 % 2 == 0 else f"{x2}/2"


def _json(obj) -> str:
    return json.dumps(obj, indent=2)


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().rstrip("\n")


def _add_common(sub: argparse.ArgumentParser, defaults: dict) -> None:
    sub.add_argument("--q", type=int, help="field size (prime <= 10000, or 4, 8, 9)")
    sub.add_argument("--config", help="key = value config file; flags win")
    sub.add_argument("--format", help="output format")
    sub.add_argument(
        "--max-leaves",
        dest="max_leaves",
        type=int,
        help="oracle budget: refuse enumerations beyond this many leaves",
    )
    sub.add_argument("--threads", type=int, help="worker processes for oracle subtrees")
    sub.set_defaults(
        _defaults={"max_leaves": building.DEFAULT_MAX_LEAVES, "threads": 1, **defaults}
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buildingflow",
        description=(
            "Exact cycle counting for the type-1 discrete geodesic flow on the "
            "PGL3 building quotient, with cross-validation and exports. "
            "Counts are emitted as decimal text (arbitrary precision); "
            "half-integer edge indices are serialized doubled as k2 = 2k, l2 = 2l."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="exact cycle counts")
    _add_common(p, {"format": "human", "flow": "pgl3", "method": "dp", "kind": "g"})
    p.add_argument("--steps", type=int, help="count up to this flow length")
    p.add_argument("--flow", help="pgl3 or pgl2")
    p.add_argument("--method", help="dp, closed, or oracle")
    p.add_argument("--kind", help="g (closed), f (first return), or N (endpoint profile)")
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("validate", help="run the cross-validation matrix")
    _add_common(p, {"format": "human", "steps": 6, "m_max": 5})
    p.add_argument("--steps", type=int, help="oracle horizon (flow length)")
    p.add_argument("--m-max", dest="m_max", type=int, help="graph truncation bound")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("entropy", help="entropy, first-return growth, recurrence margin")
    _add_common(p, {"format": "human"})
    p.set_defaults(func=cmd_entropy)

    p = subs.add_parser("graph", help="export the weighted shift graph")
    _add_common(p, {"format": "dot", "m_max": 3})
    p.add_argument("--m-max", dest="m_max", type=int, help="graph truncation bound")
    p.set_defaults(func=cmd_graph)

    p = subs.add_parser("weights", help="dump the transition weight table")
    _add_common(p, {"format": "human", "m_max": 3})
    p.add_argument("--m-max", dest="m_max", type=int, help="graph truncation bound")
    p.add_argument(
        "--from-oracle",
        dest="from_oracle",
        action="store_const",
        const=True,
        help="emit the measured census instead of the fold-rule table",
    )
    p.set_defaults(func=cmd_weights)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        if args.threads < 1:
            raise CliError("--threads must be >= 1")
        if getattr(args, "from_oracle", None) is None and hasattr(args, "from_oracle"):
            args.from_oracle = False
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CliError, UnsupportedFieldError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
