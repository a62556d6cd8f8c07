"""Command-line interface: batch identifiability analysis of network files.

Subcommands: check, separable, decouple, combinatorial, oracle, gen.
Exit codes: 0 identifiable/success, 1 not identifiable, 2 inconclusive,
3 usage or input error.  All output on stdout is a pure function of
(input file, flags, seed); wall-clock timing goes to stderr only.  The
NETIDENT_SEED environment variable supplies the default seed of check,
decouple and gen.  Node indices in files and reports are 1-based.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .combinatorial import (
    TooLargeError,
    _walk_route,
    format_monomial,
    monomial_degree,
    repetition_table,
)
from .generate import GenerationError, random_network
from .identifiability import (
    IDENTIFIABLE,
    INCONCLUSIVE,
    NOT_IDENTIFIABLE,
    NoUnknownEdgesError,
    Verdict,
    decoupled_identifiability,
    local_identifiability,
)
from .netmodel import (
    NetworkFormatError,
    NetworkModel,
    NotSeparableError,
    NotSquareError,
    ValidationError,
    decouple,
    load_network,
    network_to_dict,
    save_network,
    separate,
)
from .numeric import AllSamplesSingularError
from .oracle import coefficient, symbolic_det, terms_sorted

__all__ = ["main"]

EXIT_IDENTIFIABLE = 0
EXIT_NOT_IDENTIFIABLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

_DECISION_EXIT = {
    IDENTIFIABLE: EXIT_IDENTIFIABLE,
    NOT_IDENTIFIABLE: EXIT_NOT_IDENTIFIABLE,
    INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class OptionError(ValueError):
    """A command-line option or NETIDENT_SEED lies outside its range."""


# Smallest value each numeric option accepts; the seed feeds numpy in `gen`, which refuses negatives.
_OPTION_MINIMUM = {"max_degree": 0, "seed": 0}


def _check_options(args: argparse.Namespace) -> None:
    for name, minimum in _OPTION_MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < minimum:
            raise OptionError(f"--{name.replace('_', '-')} must be >= {minimum}, got {value}")


def _default_seed() -> int:
    raw = os.environ.get("NETIDENT_SEED", "0")
    try:
        seed = int(raw)
    except ValueError as exc:
        raise OptionError(f"NETIDENT_SEED must be an integer, got {raw!r}") from exc
    if seed < 0:
        raise OptionError(f"NETIDENT_SEED must be >= 0, got {seed}")
    return seed


def _net_summary(net: NetworkModel) -> dict:
    return {
        "nodes": net.n,
        "known_edges": len(net.known_edges),
        "unknown_edges": net.m_unknown,
        "excited": net.n_excited,
        "measured": net.n_measured,
    }


def _print_summary(net: NetworkModel) -> None:
    s = _net_summary(net)
    print(
        f"network: nodes={s['nodes']} known={s['known_edges']} unknown={s['unknown_edges']}"
        f" excited={s['excited']} measured={s['measured']}"
    )


def _verdict_line(v: Verdict) -> str:
    bits = []
    if v.rank is not None:
        bits.append(f"rank {v.rank}/{v.m_unknown}")
    if v.max_degree is not None:
        bits.append(f"max degree {v.max_degree}")
    if v.exhaustive is not None:
        bits.append("exhaustive" if v.exhaustive else "bounded")
    if v.seed is not None:
        bits.append(f"seed {v.seed}")
    detail = f" ({', '.join(bits)})" if bits else ""
    return f"{v.notion}: {v.decision}{detail}"


def _print_witness(v: Verdict) -> None:
    if not v.witness:
        return
    w = v.witness
    if "zero_columns" in w:
        print("  zero columns (unreachable unknown edges): " + " ".join(w["zero_columns"]))
    if "no_walk_pivots" in w:
        print("  unknown edges with no walk: " + " ".join(w["no_walk_pivots"]))
    if "no_walk_rows" in w:
        print("  (excitation, measurement) pairs with no walk: " + " ".join(f"({b}, {c})" for b, c in w["no_walk_rows"]))
    if "rank_bound" in w:
        bound = w["rank_bound"]
        limit = ""
        if "node" in bound:
            side = "into" if bound["by"] == "heads" else "out of"
            limit = f": the {bound['unknown_edges']} unknown edges {side} node {bound['node']} have rank at most {bound['rank']}"
        elif bound["by"] == "product":
            limit = (
                f": {bound['heads_to_measured']} disjoint walks from the unknown edges' heads to the measurements"
                f" times {bound['excited_to_tails']} from the excitations to their tails"
            )
        print(f"  structural rank bound {bound['bound']} < {v.m_unknown} unknown edges (by {bound['by']}{limit})")
    if "monomial" in w:
        print(f"  witness monomial: {w['monomial']} (repetition {w['repetition']:+d})")
    for walk in w.get("walks", ()):
        nodes = walk["nodes"]
        print("  witness walk: " + " -> ".join(str(v_) for v_ in nodes) + f" (unknown edge {walk['pivot']})")


def _json_report(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def cmd_check(args: argparse.Namespace) -> int:
    net = load_network(args.path)
    seed = args.seed if args.seed is not None else _default_seed()
    local = local_identifiability(net, seed=seed)
    dec = decoupled_identifiability(net, seed=seed)
    if args.json:
        _json_report(
            {
                "command": "check",
                "network": _net_summary(net),
                "verdicts": [local.to_dict(), dec.to_dict()],
            }
        )
    else:
        _print_summary(net)
        print(_verdict_line(local))
        _print_witness(local)
        print(_verdict_line(dec))
        _print_witness(dec)
    return _DECISION_EXIT[local.decision]


def cmd_separable(args: argparse.Namespace) -> int:
    net = load_network(args.path)
    try:
        blocks = separate(net)
    except NotSeparableError as exc:
        if args.json:
            _json_report({"command": "separable", "network": _net_summary(net), "separable": False, "reason": str(exc)})
        else:
            print("separable: no")
            print(f"reason: {exc}")
        return EXIT_NOT_IDENTIFIABLE
    if args.json:
        _json_report(
            {
                "command": "separable",
                "network": _net_summary(net),
                "separable": True,
                "excited_part": sorted(v + 1 for v in blocks.b_part),
                "measured_part": sorted(v + 1 for v in blocks.c_part),
                "cross_edges": [str(e) for e in net.unknown_edges],
            }
        )
    else:
        print("separable: yes")
        print("excited part: " + " ".join(str(v + 1) for v in sorted(blocks.b_part)))
        print("measured part: " + " ".join(str(v + 1) for v in sorted(blocks.c_part)))
        print("cross unknown edges: " + " ".join(str(e) for e in net.unknown_edges))
    return EXIT_IDENTIFIABLE


def cmd_decouple(args: argparse.Namespace) -> int:
    net = load_network(args.path)
    seed = args.seed if args.seed is not None else _default_seed()
    dec = decouple(net, seed)
    save_network(dec, args.out)
    print(f"decoupled network: {dec.n} nodes, {dec.m_unknown} unknown edges -> {args.out}")
    return EXIT_IDENTIFIABLE


def cmd_combinatorial(args: argparse.Namespace) -> int:
    net = load_network(args.path)
    target, table, verdict = _walk_route(net, args.max_degree, args.decouple_first, full_table=True)
    if args.json:
        _json_report(
            {
                "command": "combinatorial",
                "network": _net_summary(net),
                "decouple_first": args.decouple_first,
                "table": [
                    {"monomial": format_monomial(target, mu), "degree": monomial_degree(mu), "repetition": r}
                    for mu, r in table.sorted_items()
                ],
                "verdict": verdict.to_dict(),
            }
        )
    else:
        _print_summary(net)
        if args.decouple_first:
            print(f"analyzed decoupled form: {target.n} nodes (excited copy offset +{net.n})")
        print(_verdict_line(verdict))
        print(f"repetition table (degree bound {table.max_degree}, {'exhaustive' if table.exhaustive else 'partial'}):")
        if not table.entries:
            print("  (no walk collections within the bound)")
        for mu, r in table.sorted_items():
            print(f"  r[{format_monomial(target, mu)}] = {r:+d}")
        _print_witness(verdict)
    return _DECISION_EXIT[verdict.decision]


def cmd_oracle(args: argparse.Namespace) -> int:
    net = load_network(args.path)
    # 2n by default: every simple path of each block, twice over.
    max_degree = 2 * net.n if args.max_degree is None else args.max_degree
    if net.m_unknown == 0:
        raise NoUnknownEdgesError()
    # The determinant first: its size guard must refuse before the walk table is enumerated.
    poly = symbolic_det(net, max_degree)
    table = repetition_table(net, max_degree)
    monomials = set(table.entries) | {mu for mu, _ in terms_sorted(poly)}
    rows = sorted(monomials, key=lambda mu: (monomial_degree(mu), mu))
    agree = True
    print(f"degree bound {max_degree}; comparing {len(rows)} monomials")
    for mu in rows:
        r = table.entries.get(mu, 0)
        c = coefficient(poly, mu)
        ok = r == c
        agree = agree and ok
        print(f"  {format_monomial(net, mu)}: walks {r:+d}, determinant {c:+d}{'' if ok else '  MISMATCH'}")
    print(f"agreement: {'yes' if agree else 'no'}")
    return EXIT_IDENTIFIABLE if agree else EXIT_NOT_IDENTIFIABLE


def cmd_gen(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    net = random_network(
        nodes=args.nodes,
        unknowns=args.unknowns,
        excited=args.excited,
        measured=args.measured,
        known_density=args.known_density,
        separable=args.separable,
        acyclic=args.acyclic,
        seed=seed,
    )
    if args.out:
        save_network(net, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(network_to_dict(net), indent=2, sort_keys=True))
    return EXIT_IDENTIFIABLE


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="netident",
        description="Generic identifiability of dynamical networks with partial excitation and measurement.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="local and decoupled identifiability of a network file")
    check.add_argument("path")
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_check)

    sep = sub.add_parser("separable", help="test for the separable block structure")
    sep.add_argument("path")
    sep.add_argument("--json", action="store_true")
    sep.set_defaults(func=cmd_separable)

    dec = sub.add_parser("decouple", help="write the 2n-node decoupled form of a network")
    dec.add_argument("path")
    dec.add_argument("out")
    dec.add_argument("--seed", type=int, default=None)
    dec.set_defaults(func=cmd_decouple)

    comb = sub.add_parser("combinatorial", help="walk-counting identifiability with repetition table")
    comb.add_argument("path")
    comb.add_argument("--max-degree", type=int, default=None)
    comb.add_argument("--decouple-first", action="store_true")
    comb.add_argument("--json", action="store_true")
    comb.set_defaults(func=cmd_combinatorial)

    orc = sub.add_parser("oracle", help="cross-check walk counts against the symbolic determinant")
    orc.add_argument("path")
    orc.add_argument("--max-degree", type=int, default=None)
    orc.set_defaults(func=cmd_oracle)

    gen = sub.add_parser("gen", help="generate a random network file")
    gen.add_argument("--nodes", type=int, default=6)
    gen.add_argument("--unknowns", type=int, default=2)
    gen.add_argument("--excited", type=int, default=2)
    gen.add_argument("--measured", type=int, default=1)
    gen.add_argument("--known-density", type=float, default=0.3)
    gen.add_argument("--separable", action="store_true")
    gen.add_argument("--acyclic", action="store_true")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means inconclusive; --help exits 0.
        return EXIT_ERROR if exc.code else EXIT_IDENTIFIABLE
    started = time.perf_counter()
    try:
        _check_options(args)
        code = args.func(args)
    except (
        OptionError,
        NetworkFormatError,
        ValidationError,
        NoUnknownEdgesError,
        NotSeparableError,
        NotSquareError,
        TooLargeError,
        GenerationError,
        AllSamplesSingularError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
