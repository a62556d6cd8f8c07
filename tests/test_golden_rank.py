"""Recorded rank-route verdicts on fixed `random_network` draws.

`golden_rank_verdicts.json` holds, per draw, `Verdict.to_dict()` of the
local and decoupled verdicts, plus the SHA-256 of the first sensitivity
matrix sampled on the draw and on its 2n-node lift.  Separable square draws are among them; their
global-separable verdict comes from the walk route, whose reports
`golden_walk_verdicts.json` records.  Any change to the seed stream, the
field arithmetic or the evidence fields shows up here.  The file was
written once and is meant to stay fixed; a change that moves it on purpose
regenerates it with

    PYTHONPATH=src python tests/test_golden_rank.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from netident import (
    decouple,
    decoupled_identifiability,
    local_identifiability,
    random_network,
)

from helpers import sample_sensitivity

GOLDEN = Path(__file__).with_name("golden_rank_verdicts.json")

# (random_network keyword arguments without the seed, seeds)
SHAPES = [
    (dict(nodes=8, unknowns=6, excited=2, measured=3, known_density=0.3), range(0, 12)),
    (dict(nodes=6, unknowns=5, excited=2, measured=2, known_density=0.5), range(100, 110)),
    (dict(nodes=10, unknowns=9, excited=3, measured=3, known_density=0.2), range(200, 206)),
    (dict(nodes=7, unknowns=4, excited=2, measured=2, known_density=0.4, separable=True), range(300, 310)),
    (dict(nodes=6, unknowns=2, excited=1, measured=2, known_density=0.5, separable=True), range(400, 406)),
]


def _k_digest(net, seed: int) -> str:
    K = sample_sensitivity(net, random.Random(seed))
    return hashlib.sha256(json.dumps(K).encode()).hexdigest()


def record(kwargs: dict, seed: int) -> dict:
    net = random_network(**kwargs, seed=seed)
    return {
        "network": {**kwargs, "seed": seed},
        "local": local_identifiability(net, seed=seed).to_dict(),
        "decoupled": decoupled_identifiability(net, seed=seed).to_dict(),
        "k_sha256": {"local": _k_digest(net, seed), "decoupled": _k_digest(decouple(net), seed)},
    }


def all_records() -> list[dict]:
    return [record(kwargs, seed) for kwargs, seeds in SHAPES for seed in seeds]


def test_rank_route_matches_recorded_verdicts():
    golden = json.loads(GOLDEN.read_text())
    current = all_records()
    assert len(current) == len(golden)
    for got, want in zip(current, golden):
        assert got == want, want["network"]


def test_recorded_set_covers_both_decisions_and_separable_draws():
    golden = json.loads(GOLDEN.read_text())
    decisions = {r[mode]["decision"] for r in golden for mode in ("local", "decoupled")}
    assert decisions == {"identifiable", "not-identifiable"}
    assert sum(r["network"].get("separable", False) for r in golden) >= 5


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_records(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
