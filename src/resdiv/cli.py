"""Command-line interface.

Subcommands:

  find    run the divisor search on one instance
  bench   run the scaling benchmark and emit CSV (plus a gnuplot .dat twin)
  verify  check a packaged family instance against its promised count
  search  enumerate small instances with many divisors in one class

Exit codes: 0 success, 1 argument/element parse failure, 2 invalid
instance, 3 failed verification.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .algorithms import DivisorReport, find_divisors
from .base import ElementSyntaxError, InvalidInstanceError
from .bench import format_csv, format_dat, run_bench
from .families import (
    cohen_instance,
    search_records,
    seven_signed_instance,
    standalone_instance,
    verify_family,
)
from .remseq import build_instance
from .rings import RING_NAMES, ring_from_name
from .syntax import format_element, parse_element

class _ArgParser(argparse.ArgumentParser):
    """argparse exits with 2 on bad arguments; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _alpha(n, s) -> float:
    ln_n = math.log(abs(n))
    return math.log(abs(s)) / ln_n if ln_n else float("nan")


def _stats_pairs(rep: DivisorReport, alpha: float | None):
    pairs = [(k, str(v)) for k, v in rep.stats.items() if k != "seconds"]
    pairs.append(("seconds", f"{rep.stats['seconds']:.6g}"))
    if alpha is not None:
        pairs.append(("alpha", f"{alpha:.6g}"))
    return pairs


def _cmd_find(args) -> int:
    ring = ring_from_name(args.ring)
    n_el = parse_element(args.N, ring)
    s_el = parse_element(args.S, ring)
    r_el = parse_element(args.r, ring)
    lead_list = None
    if args.lead_list is not None:
        if not ring.is_poly:
            raise ElementSyntaxError("--lead-list only applies to ring zx")
        lead_list = [int(v) for v in args.lead_list.split(",") if v.strip()]

    inst = build_instance(ring, n_el, s_el, r_el, lead_list=lead_list)
    rep = find_divisors(inst)
    alpha = _alpha(n_el, s_el) if ring.is_int else None

    if args.format == "json":
        doc = {
            "instance": {
                "ring": args.ring,
                "N": format_element(n_el),
                "S": format_element(s_el),
                "r": format_element(inst.r),
            },
            "divisors": [format_element(d) for d in rep.divisors],
            "stats": rep.stats,
        }
        if alpha is not None:
            doc["alpha"] = alpha
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "lines":
        lines = [format_element(d) for d in rep.divisors]
        lines += [f"{k}={v}" for k, v in _stats_pairs(rep, alpha)]
        text = "\n".join(lines) + "\n"
    else:
        rows = []
        for d in rep.divisors:
            x, y, at = rep.witnesses[d]
            rows.append(
                (format_element(d), format_element(x), format_element(y),
                 f"{at[0]}.{at[1]}")
            )
        body = _table(("divisor", "x", "y", "found"), rows)
        trailer = " ".join(f"{k}={v}" for k, v in _stats_pairs(rep, alpha))
        text = f"{body}\n{trailer}\n"
    _emit(text, args.out)
    return 0


def _cmd_bench(args) -> int:
    ring = ring_from_name(args.ring)
    ks = [k for tok in args.ks.split(",") if tok.strip()
          for k in _parse_range(tok.strip())]
    rows = run_bench(ks, args.samples, args.seed, ring)
    csv = format_csv(rows)
    if args.out:
        _emit(csv, args.out)
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        _emit(format_dat(rows), stem + ".dat")
    else:
        sys.stdout.write(csv)
    return 0


def _parse_range(text: str) -> list[int]:
    """'7' -> [7]; '3..10' -> [3..10] inclusive."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [int(text)]


def _family_instances(args):
    if args.family == "standalone":
        return [standalone_instance()]
    if args.param is None:
        where = "level, >= 3" if args.family == "cohen" else "base, >= 2"
        raise ValueError(f"--param (the {where}) is required for {args.family}")
    build = cohen_instance if args.family == "cohen" else seven_signed_instance
    return [build(v) for v in _parse_range(args.param)]


def _cmd_verify(args) -> int:
    reports = [verify_family(fi) for fi in _family_instances(args)]
    all_ok = all(rep.ok for rep in reports)
    if args.format == "json":
        doc = [
            {
                "family": rep.instance.source,
                "N": rep.instance.N,
                "S": rep.instance.S,
                "r": rep.instance.r,
                "alpha": rep.instance.alpha,
                "divisors": list(rep.divisors),
                "positive": len(rep.positive),
                "oracle_checked": rep.oracle_checked,
                "ok": rep.ok,
            }
            for rep in reports
        ]
        text = json.dumps(doc[0] if len(doc) == 1 else doc, indent=2) + "\n"
    elif args.format == "lines":
        lines = []
        for rep in reports:
            fi = rep.instance
            lines += [str(d) for d in rep.divisors]
            lines += [
                f"family={fi.source}", f"N={fi.N}", f"S={fi.S}", f"r={fi.r}",
                f"alpha={fi.alpha:.6g}", f"positive={len(rep.positive)}",
                f"oracle_checked={rep.oracle_checked}", f"ok={rep.ok}",
            ]
        text = "\n".join(lines) + "\n"
    else:
        chunks = []
        for rep in reports:
            fi = rep.instance
            rows = [(str(d), str(fi.N // d)) for d in rep.divisors]
            body = _table(("divisor", "cofactor"), rows)
            chunks.append(
                f"{fi.source}: N={fi.N} S={fi.S} r={fi.r} alpha={fi.alpha:.4f}\n"
                f"{body}\npositive={len(rep.positive)} "
                f"oracle_checked={rep.oracle_checked} ok={rep.ok}\n"
            )
        text = "".join(chunks)
    _emit(text, args.out)
    return 0 if all_ok else 3


def _cmd_search(args) -> int:
    out = search_records(
        range(args.s_start, args.s_stop + 1),
        target=args.target,
        r=args.r,
        max_checks=args.max_checks,
    )
    if args.format == "json":
        doc = {
            "hits": [
                {"N": h.N, "S": h.S, "r": h.r, "positive": h.expected_positive}
                for h in out.hits
            ],
            "checked": out.checked,
            "exhausted": out.exhausted,
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        rows = [
            (str(h.N), str(h.S), str(h.r), str(h.expected_positive))
            for h in out.hits
        ]
        body = _table(("N", "S", "r", "positive"), rows)
        text = f"{body}\nchecked={out.checked} exhausted={out.exhausted}\n"
    _emit(text, args.out)
    return 0


def _build_parser() -> _ArgParser:
    top = _ArgParser(prog="resdiv",
                     description="divisors in residue classes: search tools")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_ArgParser)

    p_find = sub.add_parser("find", help="search one instance")
    p_find.add_argument("--ring", choices=tuple(RING_NAMES), default="z")
    p_find.add_argument("-N", required=True, help="the number to factor along the class")
    p_find.add_argument("-S", required=True, help="the modulus")
    p_find.add_argument("-r", required=True, help="the residue")
    p_find.add_argument("--lead-list",
                        help="comma-separated leading-coefficient divisors (ring zx)")
    p_find.add_argument("--format", choices=("table", "lines", "json"),
                        default="table")
    p_find.add_argument("--out")
    p_find.set_defaults(func=_cmd_find)

    p_bench = sub.add_parser("bench", help="scaling benchmark")
    p_bench.add_argument("--ks", default="10,20,30,40",
                         help="digit scales: comma list and/or a..b ranges")
    p_bench.add_argument("--samples", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--ring", default="zi",
                         choices=[n for n, r in RING_NAMES.items() if r.is_quad])
    p_bench.add_argument("--out", help="CSV path; a .dat twin is written beside it")
    p_bench.set_defaults(func=_cmd_bench)

    p_ver = sub.add_parser("verify", help="check a packaged family instance")
    p_ver.add_argument("--family", choices=("cohen", "seven", "standalone"),
                       required=True)
    p_ver.add_argument("--param",
                       help="family parameter or range, e.g. 3 or 3..10")
    p_ver.add_argument("--format", choices=("table", "lines", "json"),
                       default="table")
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=_cmd_verify)

    p_sea = sub.add_parser("search", help="hunt small record instances")
    p_sea.add_argument("--s-start", type=int, required=True)
    p_sea.add_argument("--s-stop", type=int, required=True)
    p_sea.add_argument("--target", type=int, required=True,
                       help="minimum count of positive divisors in the class")
    p_sea.add_argument("--r", type=int, default=1)
    p_sea.add_argument("--max-checks", type=int, default=2000)
    p_sea.add_argument("--format", choices=("table", "json"), default="table")
    p_sea.add_argument("--out")
    p_sea.set_defaults(func=_cmd_search)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ElementSyntaxError as exc:
        print(f"resdiv: parse error: {exc}", file=sys.stderr)
        return 1
    except InvalidInstanceError as exc:
        print(f"resdiv: invalid instance: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"resdiv: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"resdiv: verification failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
