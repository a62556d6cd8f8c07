"""The four workloads: their inputs, the timed operation and its independent check.

The timed operation calls the library through module attributes
(``ident.local_identifiability``, not a name imported into this file), so
a tracer that patches the ``netident`` module namespaces sees every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from netident import combinatorial as comb
from netident import identifiability as ident
from netident import netmodel, numeric, oracle

import inputs
import reference

FINAL = (ident.IDENTIFIABLE, ident.NOT_IDENTIFIABLE)
EXIT_OF = {ident.IDENTIFIABLE: 0, ident.NOT_IDENTIFIABLE: 1, ident.INCONCLUSIVE: 2}

# Seed of the second local-rank sample stream in the ``check`` check; the timed
# operation uses seed 0, the ``netident check`` default.
DISJOINT_SEED = 0x5EED


@dataclass
class Workload:
    """``items`` distinct inputs at full size; ``tail`` is the tail percentile reported.

    Items are numbered: ``draw(seed, index, size)`` rebuilds item ``index``
    anywhere, so a fresh set-up process draws the same inputs.
    """

    name: str
    items: int
    tail: int
    # Reads the host's speed for this kind of work: see reference.py.
    time_reference = staticmethod(reference.time_routine)
    # Rerun, untimed, an item the timed loop ran only once, to compare outputs.
    repeat_once = False
    # The operation runs in this process (else in a child process).
    in_process = True
    workdir: Path | None = None

    @property
    def min_ops(self) -> int:
        """Operations a run needs to put ten beyond the tail percentile."""
        return round(10 / (1 - self.tail / 100))

    def count(self, size: str) -> int:
        """Number of distinct items; the timed loop passes over them again as needed."""
        return self.items if size == "full" else 20

    def write(self, items: dict, workdir: Path) -> None:
        """Write the generated inputs, one JSON network per line, so any draw can be replayed."""
        self.workdir = workdir
        with open(workdir / "inputs.jsonl", "w") as fh:
            for index, item in items.items():
                record = {"index": index, "network": netmodel.network_to_dict(self.network(item))}
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def warm(self, items: dict) -> None:
        """One untimed operation on a smoke-size draw, so lazy imports and caches are filled."""
        self.run(self.draw(0, 0, "smoke"))

    def network(self, item) -> netmodel.NetworkModel:
        return item

    def variant(self, item, seed: int, index: int, rnd: int):
        """The input of pass ``rnd`` over the pool: the draw itself first, an isomorphic relabeling after."""
        return item if rnd == 0 else inputs.relabeled(item, self.name, seed, index, rnd)


class Check(Workload):
    """``netident check``: local plus decoupled rank verdicts on non-separable cyclic nets."""

    def draw(self, seed, index, size):
        return inputs.check_net(seed, index, size)

    def run(self, net):
        local = ident.local_identifiability(net)
        dec = ident.decoupled_identifiability(net)
        return local.decision, dec.decision

    def check(self, index, net, out):
        local, dec = out
        if local not in FINAL or dec not in FINAL:
            return f"rank route answered {out}"
        if local == ident.IDENTIFIABLE and dec != ident.IDENTIFIABLE:
            return "locally identifiable but decoupled not identifiable"
        other = ident.local_identifiability(net, seed=DISJOINT_SEED).decision
        if other != local:
            return f"local verdict {local} at seed 0 but {other} at seed {DISJOINT_SEED}"
        return None

    def decided(self, out):
        return out[0] in FINAL


class WalksAcyclic(Workload):
    """``combinatorial_verdict`` at the exhaustive bound on layered acyclic separable nets."""

    def draw(self, seed, index, size):
        return inputs.acyclic_net(seed, index, size)

    def run(self, net):
        return comb.combinatorial_verdict(net, comb.exhaustive_degree_bound(net)).decision

    def check(self, index, net, out):
        if out not in FINAL:
            return f"walk verdict {out} at the exhaustive bound"
        if (out == ident.IDENTIFIABLE) != numeric.generic_det_nonzero(net):
            return f"walk verdict {out} disagrees with the generic determinant"
        if net.m_unknown <= oracle.MAX_UNKNOWNS:
            bound = comb.exhaustive_degree_bound(net)
            table = comb.repetition_table(net, bound).entries
            poly = oracle.symbolic_det(net, bound)
            for mu in set(table) | {mu for mu, _ in oracle.terms_sorted(poly)}:
                if table.get(mu, 0) != oracle.coefficient(poly, mu):
                    return f"table entry {table.get(mu, 0)} != determinant coefficient for {mu}"
        return None

    def decided(self, out):
        return out in FINAL


class WalksCyclic(Workload):
    """``combinatorial_verdict`` at the default 2n bound on cyclic separable nets."""

    def draw(self, seed, index, size):
        return inputs.cyclic_net(seed, index, size)

    def run(self, net):
        return comb.combinatorial_verdict(net).decision

    def check(self, index, net, out):
        if out == ident.INCONCLUSIVE:
            return None
        if out not in FINAL:
            return f"walk verdict {out}"
        if (out == ident.IDENTIFIABLE) != numeric.generic_det_nonzero(net):
            return f"walk verdict {out} disagrees with the generic determinant"
        return None

    def decided(self, out):
        return out in FINAL


CLI_COMMANDS = (
    ("check", "{}", "--json"),
    ("separable", "{}", "--json"),
    ("combinatorial", "{}", "--json"),
    ("combinatorial", "{}", "--decouple-first"),
    ("oracle", "{}"),
)
CLI_FILES = 6


def child_env(src: Path) -> dict:
    """Environment of every child Python: the checkout's ``src``, pinned threads and seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NETIDENT_")}
    env.update(
        PYTHONPATH=str(src),
        NETIDENT_SEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    net: netmodel.NetworkModel


class Cli(Workload):
    """``python -m netident`` processes, one at a time, on small files written by the benchmark.

    Set ``traced_child`` to a spans path to run an operation through
    ``cli_traced.py`` instead; its spans are then read by the caller.
    """

    repeat_once = True
    in_process = False

    @staticmethod
    def time_reference():
        """The median of three interpreter starts: the CLI's own kind of work, mostly loading code."""
        return reference.median_of(reference.time_start, 3)

    def __init__(self, name, items, tail, src: Path):
        super().__init__(name, items, tail)
        self.env = child_env(src)
        self.traced_child: Path | None = None

    def count(self, size):
        return self.items if size == "full" else 2 * len(CLI_COMMANDS)

    def draw(self, seed, index, size):
        file_index, command = divmod(index, len(CLI_COMMANDS))
        path = f"net{file_index}.json"
        argv = tuple(arg.format(path) for arg in CLI_COMMANDS[command])
        return Invocation(argv, inputs.acyclic_net(seed, file_index, size, workload="cli"))

    def write(self, items, workdir):
        self.workdir = workdir
        for item in items.values():
            netmodel.save_network(item.net, str(workdir / item.argv[1]))

    def warm(self, items):
        self.run(next(iter(items.values())))

    def network(self, item):
        return item.net

    def variant(self, item, seed, index, rnd):
        """The same file on every pass: each run is a fresh process with nothing to reuse."""
        return item

    def run(self, item):
        if self.traced_child is None:
            cmd = [sys.executable, "-m", "netident", *item.argv]
        else:
            script = Path(__file__).with_name("cli_traced.py")
            cmd = [sys.executable, str(script), str(self.traced_child), *item.argv]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.workdir)
        # latin-1 maps bytes to text one to one, so stdout survives JSON unchanged
        return proc.returncode, proc.stdout.decode("latin-1")

    def expected_exit(self, item) -> int:
        """The exit code the library's own verdict implies, computed in this process."""
        net, command = item.net, item.argv[0]
        if command == "check":
            return EXIT_OF[ident.local_identifiability(net, seed=0).decision]
        if command == "separable":
            return 0 if netmodel.is_separable(net) else 1
        if command == "combinatorial":
            target = netmodel.decouple(net, 0) if "--decouple-first" in item.argv else net
            return EXIT_OF[comb.combinatorial_verdict(target).decision]
        bound = 2 * net.n
        table = comb.repetition_table(net, bound).entries
        poly = oracle.symbolic_det(net, bound)
        monomials = set(table) | {mu for mu, _ in oracle.terms_sorted(poly)}
        return 0 if all(table.get(mu, 0) == oracle.coefficient(poly, mu) for mu in monomials) else 1

    def check(self, index, item, out):
        code, stdout = out
        want = self.expected_exit(item)
        if code != want:
            return f"exit code {code}, library verdict implies {want}"
        if "--json" in item.argv:
            try:
                json.loads(stdout)
            except ValueError as exc:
                return f"--json stdout does not parse: {exc}"
        return None

    def decided(self, out):
        return out[0] in (0, 1)


def make(name: str, src: Path) -> Workload:
    # Pool sizes for 24 s runs on a 2-vCPU Xeon VM.  check and walks-cyclic
    # give every operation a distinct draw, so that their tails rest on as
    # many inputs as possible; walks-acyclic passes over its pool about eight
    # times and cli three times, because their checks cost more per draw.
    if name == "check":
        return Check(name, items=120, tail=90)
    if name == "walks-acyclic":
        return WalksAcyclic(name, items=32, tail=95)
    if name == "walks-cyclic":
        return WalksCyclic(name, items=5000, tail=99)
    if name == "cli":
        return Cli(name, items=CLI_FILES * len(CLI_COMMANDS), tail=85, src=src)
    raise KeyError(name)
