"""Acceptance gate: the eight headline properties at desk scale.

Run `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion.  Every check is seeded, so reruns are bit-for-bit repeatable.
"""

import subprocess
import sys
import time

import numpy as np

from netident import (
    GenerationError,
    IDENTIFIABLE,
    INCONCLUSIVE,
    NOT_IDENTIFIABLE,
    coefficient,
    combinatorial_verdict,
    decouple,
    decoupled_identifiability,
    is_separable,
    local_identifiability,
    random_network,
    repetition_table,
    symbolic_det,
)
from netident.combinatorial import exhaustive_degree_bound, verdict_from_table
from netident.identifiability import _Structure
from netident.numeric import generic_det_nonzero
from netident.oracle import terms_sorted
from netident.series import float_closed_loop, inf_norm, network_matrix, neumann_series, random_float_values

from corpus import (
    general_square_corpus,
    minimal_net,
    separable_square_corpus,
    unreachable_net,
)


def _report(num: int, label: str, started: float, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance criterion {num} ({label}): {status} [{time.perf_counter() - started:.1f}s]", flush=True)
    assert not failures, "\n".join(failures[:5])


class TestAcceptance:
    def test_criterion_1_oracle_coefficients(self):
        """Walk counts equal symbolic determinant coefficients on 50 separable acyclic nets."""
        started = time.perf_counter()
        failures = []
        for net in separable_square_corpus(50, acyclic=True, start_seed=2000, max_nodes=8):
            bound = exhaustive_degree_bound(net)
            table = repetition_table(net, bound)
            det = symbolic_det(net, bound)
            for mu, r in table.entries.items():
                if coefficient(det, mu) != r:
                    failures.append(f"count {r} != coefficient {coefficient(det, mu)} for {mu} on {net}")
            for mu, c in terms_sorted(det):
                if table.entries.get(mu, 0) != c:
                    failures.append(f"coefficient {c} missing from table for {mu} on {net}")
        _report(1, "oracle coefficient equivalence", started, failures)

    def test_criterion_2_combinatorial_matches_algebraic(self):
        """Walk verdicts are final and agree with the generic determinant.

        On the acyclic corpus at the exhaustive bound, and on 40 cyclic nets
        both at the default (a structural refutation, else a search up to
        min(D, 2n)), where no verdict may be inconclusive, and as the bare
        count at the exhaustive bound D, which no structural rank bound or
        early stop shortens, so the count itself stays checked.
        """
        started = time.perf_counter()
        failures = []
        acyclic = separable_square_corpus(50, acyclic=True, start_seed=2000, max_nodes=8)
        cyclic = list(separable_square_corpus(40, acyclic=False, start_seed=1000))
        cases = [(net, exhaustive_degree_bound(net)) for net in acyclic] + [(net, None) for net in cyclic]
        verdicts = [(net, combinatorial_verdict(net, bound)) for net, bound in cases]
        verdicts += [(net, verdict_from_table(net, repetition_table(net, exhaustive_degree_bound(net)))) for net in cyclic]
        for net, v in verdicts:
            if v.decision == INCONCLUSIVE:
                failures.append(f"inconclusive at bound {v.max_degree} on {net}")
                continue
            if (v.decision == IDENTIFIABLE) != generic_det_nonzero(net):
                failures.append(f"walk verdict {v.decision} at bound {v.max_degree} against determinant on {net}")
        _report(2, "combinatorial matches algebraic", started, failures)

    def test_criterion_3_series_truncation_bounds(self):
        """Truncated series within 1e-8 of the closed loop at 30 terms; 1e-12 on acyclic nets."""
        started = time.perf_counter()
        failures = []
        rng = np.random.default_rng(33)
        for acyclic, terms, tol in ((False, 30, 1e-8), (True, None, 1e-12)):
            made = 0
            seed = 3000 if not acyclic else 3500
            while made < 20:
                try:
                    net = random_network(
                        nodes=4 + seed % 5,
                        unknowns=2,
                        excited=1,
                        measured=1,
                        known_density=0.5,
                        acyclic=acyclic,
                        seed=seed,
                    )
                except GenerationError:
                    seed += 1
                    continue
                seed += 1
                made += 1
                G = network_matrix(net, random_float_values(net, rng))
                if inf_norm(G) > 0.5:
                    failures.append(f"norm {inf_norm(G)} above 0.5 on {net}")
                    continue
                L = terms if terms is not None else net.n - 1
                err = np.max(np.abs(neumann_series(G, L) - float_closed_loop(G)))
                if err > tol:
                    failures.append(f"truncation error {err:.2e} above {tol} on {net}")
        _report(3, "series truncation bounds", started, failures)

    def test_criterion_4_necessity_chain(self):
        """No net is locally identifiable yet decoupled-refuted, over 500 instances.

        Neither sampled rank exceeds the structural rank bound, which holds
        for every edge value in both notions; the share of rank-deficient
        nets whose bound is below m is printed.
        """
        started = time.perf_counter()
        failures = []
        deficient = explained = 0
        for net in general_square_corpus(500, start_seed=4000):
            local = local_identifiability(net)
            dec = decoupled_identifiability(net)
            if local.decision == IDENTIFIABLE and dec.decision == NOT_IDENTIFIABLE:
                failures.append(f"necessity violated on {net}")
            bound = _Structure(net).rank_bound["bound"]
            if max(local.rank, dec.rank) > bound:
                failures.append(f"sampled ranks {local.rank}, {dec.rank} above the structural bound {bound} on {net}")
            if local.rank < net.m_unknown:
                deficient += 1
                explained += bound < net.m_unknown
        print(f"structural rank bound below m on {explained} of {deficient} locally rank-deficient nets")
        _report(4, "necessity chain", started, failures)

    def test_criterion_5_decoupled_equivalence(self):
        """Decoupled-mode rank decision equals the local rank decision of the separable square 2n-node lift.

        At one seed the decoupled-mode sample of a net is the local sample of
        its lift, entry by entry, so the lift reads a disjoint seed.
        """
        started = time.perf_counter()
        failures = []
        for net in general_square_corpus(100, start_seed=5000):
            lifted = decouple(net)
            if not (is_separable(lifted) and lifted.is_square):
                failures.append(f"lift not separable and square on {net}")
                continue
            direct = decoupled_identifiability(net).decision
            via = local_identifiability(lifted, seed=0x5EED).decision
            if direct != via:
                failures.append(f"{direct} direct but {via} on the lift of {net}")
        _report(5, "decoupled equivalence", started, failures)

    def test_criterion_6_separable_local_is_global(self):
        """The local rank decision equals the default walk verdict on 100 separable square nets.

        The walk verdict decides global identifiability with no sample; an
        inconclusive one fails the criterion.
        """
        started = time.perf_counter()
        failures = []
        for net in separable_square_corpus(100, acyclic=False, start_seed=6000):
            loc = local_identifiability(net).decision
            glob = combinatorial_verdict(net)
            if glob.decision == INCONCLUSIVE:
                failures.append(f"walk verdict inconclusive at bound {glob.max_degree} on {net}")
            elif loc != glob.decision:
                failures.append(f"local {loc} but global {glob.decision} on {net}")
        _report(6, "separable local is global", started, failures)

    def test_criterion_7_trivial_certificates(self):
        """The minimal and unreachable nets decide exactly, witnesses included."""
        started = time.perf_counter()
        failures = []
        good = minimal_net()
        for verdict in (
            local_identifiability(good),
            decoupled_identifiability(good),
            combinatorial_verdict(good),
        ):
            if verdict.decision != IDENTIFIABLE:
                failures.append(f"minimal net {verdict.notion} decided {verdict.decision}")
        bad = unreachable_net()
        for verdict in (local_identifiability(bad), decoupled_identifiability(bad)):
            if verdict.decision != NOT_IDENTIFIABLE:
                failures.append(f"unreachable net {verdict.notion} decided {verdict.decision}")
            if verdict.witness != {"zero_columns": ["2->3"]}:
                failures.append(f"unreachable net {verdict.notion} witness {verdict.witness}")
        comb = combinatorial_verdict(bad)
        if comb.decision != NOT_IDENTIFIABLE or not comb.exhaustive:
            failures.append(f"unreachable net walk verdict {comb.decision}")
        if comb.witness != {"no_walk_pivots": ["2->3"]}:
            failures.append(f"unreachable net walk witness {comb.witness}")
        _report(7, "trivial certificates", started, failures)

    def test_criterion_8_cli_determinism(self, tmp_path, cli_env):
        """Three reruns of every CLI command produce byte-identical stdout."""
        started = time.perf_counter()
        failures = []
        env = {**cli_env, "NETIDENT_SEED": "9"}
        net_path = str(tmp_path / "net.json")
        dec_path = str(tmp_path / "dec.json")

        def run(argv):
            return subprocess.run(
                [sys.executable, "-m", "netident", *argv],
                capture_output=True,
                env=env,
                cwd=str(tmp_path),
            )

        gen_args = ["gen", "--nodes", "7", "--unknowns", "4", "--excited", "2",
                    "--measured", "2", "--separable", "--seed", "11", "--out", net_path]
        commands = [
            gen_args,
            ["check", net_path, "--json"],
            ["check", net_path],
            ["separable", net_path, "--json"],
            ["decouple", net_path, dec_path, "--seed", "2"],
            ["combinatorial", net_path, "--json", "--max-degree", "6"],
            ["combinatorial", net_path, "--decouple-first", "--max-degree", "4"],
            ["oracle", net_path, "--max-degree", "5"],
        ]
        for argv in commands:
            command = " ".join(argv)
            outs, codes, files = set(), set(), set()
            for _ in range(3):
                proc = run(argv)
                outs.add(proc.stdout)
                codes.add(proc.returncode)
                # A child that cannot run netident exits 1 with empty stdout,
                # which for check and combinatorial would pass as a verdict.
                writes_file = argv[0] in ("gen", "decouple")
                if not proc.stdout or (writes_file and proc.returncode != 0):
                    stderr = proc.stderr.decode(errors="replace").strip()
                    failures.append(
                        f"{command} exited {proc.returncode} with "
                        f"{len(proc.stdout)} bytes of stdout; stderr: {stderr!r}"
                    )
                    break
                if writes_file:
                    with open(net_path if argv[0] == "gen" else dec_path, "rb") as fh:
                        files.add(fh.read())
            if len(outs) != 1:
                failures.append(f"stdout varies across runs of {command}")
            if len(codes) != 1 or codes.pop() == 3:
                failures.append(f"exit code unstable or erroring for {command}")
            if len(files) > 1:
                failures.append(f"output file varies across runs of {command}")
        _report(8, "deterministic reports", started, failures)
