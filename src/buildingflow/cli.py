"""Command-line surface.

Commands: ``count`` (exact cycle counts by DP, closed form, or the
building oracle), ``validate`` (the full cross-validation matrix),
``entropy`` (growth rates and the recurrence margin), ``graph`` and
``weights`` (transition-table exports).

``_emit`` is the one writer of stdout: each command hands it one lazy
view per format it takes, so the wire format lives in this module
alone.  Counts cross the process boundary as decimal text so arbitrary
precision survives every format; half-integer edge indices are
serialized doubled (k2 = 2k, l2 = 2l).  Exit codes: 0 success,
1 validation mismatch, 2 invalid input, 3 budget refusal, and
141 = 128 + SIGPIPE, quietly, when the reader of stdout goes away (as
under ``| head``), the status a shell shows for other tools cut off so.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import signal
import sys
from collections import deque
from itertools import chain

from . import analysis, building, crosscheck, shift
from .algebra import is_supported_q
from .errors import BudgetExceededError, UnsupportedFieldError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 128 + signal.SIGPIPE

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


def _yes_no(raw: str) -> bool:
    """A boolean config value: 1, true or yes, or 0, false or no, in any
    case; anything else raises ValueError."""
    word = raw.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(raw)
    return word in ("1", "true", "yes")


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
    "from_oracle": _yes_no,
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


def _emit(args, fmt: str, **views) -> None:
    """Write the command's output in ``fmt``; nothing else writes stdout.

    Each view is called only if its format is chosen: ``json`` returns the
    record that follows the ``"command"`` key, ``csv`` returns
    (header, rows), and any other format returns its lines, printed one
    at a time so that a long table is never held as one string.
    """
    view = views[fmt]()
    if fmt == "json":
        print(json.dumps({"command": args.command, **view}, indent=2))
    elif fmt == "csv":
        header, rows = view
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in view:
            print(line)


def _records(items) -> list[dict]:
    """JSON-ready (from, to, weight) records; indices doubled, weights as
    decimal text."""
    return [
        {"from": {"k2": e.k2, "l2": e.l2}, "to": {"k2": s.k2, "l2": s.l2}, "weight": str(w)}
        for e, s, w in items
    ]


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _count_rows(args) -> list[tuple[int, int]]:
    period = _PERIOD[args.flow]
    ns = range(period, args.steps + 1, period)
    first_return = args.kind == "f"
    if args.method == "dp":
        if args.flow != "pgl3":
            raise CliError("method dp is defined for flow pgl3 only")
        profs = shift.dp_sweep(args.q, args.steps - args.steps % period, taboo=first_return)
        return [(n, p.get(shift.BASE_KEY, 0)) for n, p in enumerate(profs) if n and n % period == 0]
    if args.method == "closed":
        if args.flow == "pgl2":
            return [(n, analysis.pgl2_closed(args.q, n, args.kind)) for n in ns]
        closed = analysis.closed_f if first_return else analysis.closed_g
        return [(n, closed(args.q, n)) for n in ns]
    dim = 3 if args.flow == "pgl3" else 2
    for n in ns:  # refuse at the table's first length over budget, before the walk
        leaves = building.oracle_leaves(args.q, n, dim)
        if leaves > args.max_leaves:
            raise BudgetExceededError(leaves, args.max_leaves)
    if not ns:
        return []
    walked = building.oracle_returns(args.q, ns[-1], dim, args.max_leaves)
    return [(n, walked[n][first_return]) for n in ns]


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
                prof[e.k2, e.l2] = v
    else:
        walked = building.oracle_terminal_profile(args.q, n, max_leaves=args.max_leaves)
        prof = {(e.k2, e.l2): c for e, c in walked.items()}
    return [(k2, l2, c) for (k2, l2), c in sorted(prof.items())]


def cmd_count(args) -> int:
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
        human = ((shift.half(k2), shift.half(l2), c) for k2, l2, c in rows)
    else:
        rows = _count_rows(args)
        cols, titles, widths, human = ("n", "count"), ("n", "count"), (4, 24), rows

    def table():
        for cells in chain([titles], human):
            yield " ".join(f"{v:>{w}}" for v, w in zip(cells, widths))

    def wire():  # counts cross the wire as decimal text
        return ((*r[:-1], str(r[-1])) for r in rows)

    _emit(args, fmt, human=table, csv=lambda: (cols, wire()), json=lambda: {
        "q": args.q,
        "flow": args.flow,
        "kind": args.kind,
        "method": args.method,
        "steps": args.steps,
        "rows": [dict(zip(cols, r)) for r in wire()],
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _check_lines(results, ok: bool):
    for r in results:
        status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
        line = f"{status:4} {r.name}"
        if not r.passed:
            line += f"  expected={r.expected}  actual={r.actual}"
        if r.detail and (not r.passed or r.skipped or r.cut_short):
            line += f"  [{r.detail}]"
        yield line
    yield (
        f"{'OK' if ok else 'MISMATCH'}: {len(results)} checks, "
        f"{sum(1 for r in results if r.passed and not r.skipped)} passed, "
        f"{sum(1 for r in results if r.skipped)} skipped, "
        f"{sum(1 for r in results if not r.passed)} failed"
    )


def cmd_validate(args) -> int:
    fmt = _choice(args.format, ("human", "json"), "--format")
    cfg = crosscheck.ValidationConfig(
        q=args.q,
        steps=args.steps,
        m_max=args.m_max,
        max_leaves=args.max_leaves,
    )
    results = crosscheck.run_validation(cfg)
    ok = crosscheck.all_passed(results)
    _emit(args, fmt, human=lambda: _check_lines(results, ok), json=lambda: {
        "q": args.q,
        "steps": args.steps,
        "m_max": args.m_max,
        "passed": ok,
        "checks": [dataclasses.asdict(r) for r in results],
    })
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def cmd_entropy(args) -> int:
    fmt = _choice(args.format, ("human", "json", "csv"), "--format")
    rep = analysis.spr_report(args.q)
    rates = ("h_nats", "growth_f_nats", "margin_nats", "paper_claimed_growth_nats")
    (a, _), (c, d) = rep.exact_h, rep.exact_growth_f
    _emit(
        args, fmt,
        json=lambda: {
            "q": rep.q,
            **{k: getattr(rep, k) for k in rates},
            "spr": rep.spr,
            "exact": {"h": list(rep.exact_h), "growth_f": list(rep.exact_growth_f)},
            "note": rep.note,
        },
        csv=lambda: (
            ("q", *rates, "spr"),
            [(rep.q, *(f"{getattr(rep, k):.12f}" for k in rates), rep.spr)],
        ),
        human=lambda: (
            f"q                    : {rep.q}",
            f"entropy h            : {rep.h_nats:.6f} nats  (exact (1/3)·log(q^{a}))",
            f"first-return growth  : {rep.growth_f_nats:.6f} nats  "
            f"(exact (1/3)·log(q^{c}·(q^2+q-1)^{d}))",
            f"margin h - growth    : {rep.margin_nats:.6f} nats",
            f"announced growth     : {rep.paper_claimed_growth_nats:.6f} nats ((5/3)·log q)",
            f"strongly pos. rec.   : {rep.spr}",
            f"note                 : {rep.note}",
        ),
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# graph / weights
# ---------------------------------------------------------------------------


def _dot_lines(table):
    """Deterministic DOT rendering; edge labels are lift multiplicities."""
    nodes = set(table).union(*table.values())
    yield "digraph shift {"
    for e in sorted(nodes, key=lambda x: (x.k2, x.l2)):
        yield f'  "{e.pretty()}" [k2={e.k2}, l2={e.l2}];'
    for e, s, w in shift.sorted_table_items(table):
        yield f'  "{e.pretty()}" -> "{s.pretty()}" [label="{w}"];'
    yield "}"


def cmd_graph(args) -> int:
    fmt = _choice(args.format, ("dot", "json"), "--format")
    if args.m_max is None or args.m_max < 2:
        raise CliError("--m-max must be >= 2")
    table = shift.build_graph(args.q, args.m_max)
    _emit(args, fmt, dot=lambda: _dot_lines(table), json=lambda: {
        "q": args.q, "m_max": args.m_max, "edges": _records(shift.sorted_table_items(table)),
    })
    return EXIT_OK


def cmd_weights(args) -> int:
    fmt = _choice(args.format, ("human", "json", "csv"), "--format")
    if args.m_max is None or args.m_max < 2:
        raise CliError("--m-max must be >= 2")
    if args.from_oracle:
        table = building.oracle_transition_census(args.q, args.m_max)
    else:
        table = shift.build_graph(args.q, args.m_max)
    items = list(shift.sorted_table_items(table))
    source = "oracle census" if args.from_oracle else "fold rule"

    def human():
        yield f"{'from':>12} {'to':>12} {'weight':>8}   ({source}, m <= {args.m_max})"
        for e, s, w in items:
            yield f"{e.pretty():>12} {s.pretty():>12} {w:>8}"

    _emit(
        args, fmt, human=human,
        json=lambda: {
            "q": args.q,
            "m_max": args.m_max,
            "source": "oracle" if args.from_oracle else "fold",
            "edges": _records(items),
        },
        csv=lambda: (
            ("from_k2", "from_l2", "to_k2", "to_l2", "weight"),
            ((e.k2, e.l2, s.k2, s.l2, str(w)) for e, s, w in items),
        ),
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


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
    sub.add_argument("--threads", type=int, help="accepted (>= 1) but has no effect")
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
    _add_common(p, {"format": "human", "m_max": 3, "from_oracle": False})
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
        _require_supported_q(args.q)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nothing is left to tell a reader that has gone; point stdout at
        # devnull so that the interpreter's final flush stays quiet too.
        sys.stdout = open(os.devnull, "w")
        return EXIT_BROKEN_PIPE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CliError, UnsupportedFieldError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
