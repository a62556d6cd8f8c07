"""Recorded walk-route reports on fixed corpus networks.

`golden_walk_verdicts.json` holds, per run of `netident combinatorial --json`,
the exit code, the decision and the SHA-256 of stdout, on three sets: the
first 40 acyclic separable square corpus nets at the default bound, 40
cyclic ones from seed 1000 at `--max-degree 4`, and `--decouple-first
--max-degree 4` on 20 general square nets.  Any change to a table entry,
its order, the witness collection or the verdict fields shows up here.  The
file was written once and is meant to stay fixed; a change that moves it on
purpose regenerates it with

    PYTHONPATH=src python tests/test_golden_walk.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from netident import save_network
from netident.cli import main

from corpus import general_square_corpus, separable_square_corpus

GOLDEN = Path(__file__).with_name("golden_walk_verdicts.json")

# (set name, networks, extra combinatorial flags)
SETS = [
    ("acyclic", lambda: separable_square_corpus(40, acyclic=True), []),
    ("cyclic", lambda: separable_square_corpus(40, acyclic=False, start_seed=1000), ["--max-degree", "4"]),
    ("decoupled", lambda: general_square_corpus(20), ["--decouple-first", "--max-degree", "4"]),
]


def all_records() -> list[dict]:
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "net.json")
        for name, nets, flags in SETS:
            for i, net in enumerate(nets()):
                save_network(net, path)
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(["combinatorial", path, "--json", *flags])
                stdout = out.getvalue()
                records.append(
                    {
                        "set": name,
                        "index": i,
                        "exit": code,
                        "decision": json.loads(stdout)["verdict"]["decision"] if stdout else None,
                        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                    }
                )
    return records


def test_walk_route_matches_recorded_reports():
    golden = json.loads(GOLDEN.read_text())
    current = all_records()
    assert len(current) == len(golden)
    for got, want in zip(current, golden):
        assert got == want, (want["set"], want["index"])


def test_recorded_set_covers_identifiable_witnesses_and_refutations():
    golden = json.loads(GOLDEN.read_text())
    decisions = [r["decision"] for r in golden]
    assert decisions.count("identifiable") >= 15
    assert "not-identifiable" in decisions
    assert {r["set"] for r in golden if r["decision"] == "identifiable"} == {"acyclic", "cyclic", "decoupled"}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_records(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
