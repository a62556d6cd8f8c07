"""Command-line behavior: reports, exit codes, determinism, error handling."""

import json
import math
import subprocess
import sys
import time

import pytest

from netident import (
    MAX_NODES,
    Edge,
    NetworkModel,
    load_network,
    random_network,
    save_network,
)
from netident import numeric
from netident.cli import _build_parser, main
from netident.netmodel import network_to_dict

from corpus import cyclic9_net, fan_net, minimal_net, unreachable_net
from helpers import validate_calls


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("NETIDENT_SEED", raising=False)


def write_net(tmp_path, net, name="net.json"):
    path = tmp_path / name
    save_network(net, str(path))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_identifiable_exit_zero(self, tmp_path, capsys):
        path = write_net(tmp_path, minimal_net())
        code, out, err = run(capsys, ["check", path])
        assert code == 0
        assert "network: nodes=2 known=0 unknown=1 excited=1 measured=1" in out
        assert "local-generic: identifiable (rank 1/1, seed 0)" in out
        assert "decoupled-generic: identifiable" in out

    def test_not_identifiable_exit_one_with_witness(self, tmp_path, capsys):
        path = write_net(tmp_path, unreachable_net())
        code, out, _ = run(capsys, ["check", path])
        assert code == 1
        assert "local-generic: not-identifiable (rank 0/1" in out
        assert "zero columns (unreachable unknown edges): 2->3" in out

    def test_json_report(self, tmp_path, capsys):
        path = write_net(tmp_path, fan_net())
        code, out, _ = run(capsys, ["check", path, "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "check"
        assert report["network"]["unknown_edges"] == 2
        notions = [v["notion"] for v in report["verdicts"]]
        assert notions == ["local-generic", "decoupled-generic"]
        assert all(v["decision"] == "identifiable" for v in report["verdicts"])

    def test_seed_from_environment(self, tmp_path, capsys, monkeypatch):
        path = write_net(tmp_path, minimal_net())
        monkeypatch.setenv("NETIDENT_SEED", "7")
        _, out, _ = run(capsys, ["check", path, "--json"])
        assert json.loads(out)["verdicts"][0]["seed"] == 7

    def test_seed_flag_overrides_environment(self, tmp_path, capsys, monkeypatch):
        path = write_net(tmp_path, minimal_net())
        monkeypatch.setenv("NETIDENT_SEED", "7")
        _, out, _ = run(capsys, ["check", path, "--json", "--seed", "3"])
        assert json.loads(out)["verdicts"][0]["seed"] == 3

    def test_invalid_environment_seed_is_an_error(self, tmp_path, capsys, monkeypatch):
        path = write_net(tmp_path, minimal_net())
        monkeypatch.setenv("NETIDENT_SEED", "pi")
        code, _, err = run(capsys, ["check", path])
        assert code == 3
        assert "NETIDENT_SEED" in err


class TestSeparable:
    def test_yes(self, tmp_path, capsys):
        path = write_net(tmp_path, fan_net())
        code, out, _ = run(capsys, ["separable", path])
        assert code == 0
        assert "separable: yes" in out
        assert "excited part: 1 2 3 4" in out
        assert "measured part: 5" in out
        assert "cross unknown edges: 3->5 4->5" in out

    def test_no_with_reason(self, tmp_path, capsys):
        net = NetworkModel(2, [Edge(0, 1, known=False)], [0, 1], [1])
        path = write_net(tmp_path, net)
        code, out, _ = run(capsys, ["separable", path])
        assert code == 1
        assert "separable: no" in out
        assert "reason:" in out

    def test_json(self, tmp_path, capsys):
        path = write_net(tmp_path, fan_net())
        _, out, _ = run(capsys, ["separable", path, "--json"])
        report = json.loads(out)
        assert report["separable"] is True
        assert report["excited_part"] == [1, 2, 3, 4]
        assert report["cross_edges"] == ["3->5", "4->5"]


class TestDecouple:
    def test_writes_valid_separable_file(self, tmp_path, capsys):
        path = write_net(tmp_path, minimal_net())
        out_path = str(tmp_path / "dec.json")
        code, out, _ = run(capsys, ["decouple", path, out_path])
        assert code == 0
        assert f"decoupled network: 4 nodes, 1 unknown edges -> {out_path}" in out
        dec = load_network(out_path)
        assert dec.n == 4 and dec.m_unknown == 1


class TestCombinatorial:
    def test_fan_table_and_witness(self, tmp_path, capsys):
        path = write_net(tmp_path, fan_net())
        code, out, _ = run(capsys, ["combinatorial", path])
        assert code == 0
        assert "global-separable: identifiable (max degree 2, exhaustive)" in out
        assert "  r[g(1->3)*g(2->4)] = +1" in out
        assert "  r[g(1->4)*g(2->3)] = -1" in out
        assert "witness monomial: g(1->3)*g(2->4) (repetition +1)" in out

    def test_structural_refutations_name_their_reason(self, tmp_path, capsys):
        """A rank bound below the unknown-edge count, and a row no walk serves, each print why."""
        cancel = NetworkModel(
            6,
            [Edge(u, v, known=True) for u, v in ((0, 2), (1, 2), (3, 5), (4, 5))]
            + [Edge(2, 3, known=False), Edge(2, 4, known=False)],
            [0, 1],
            [5],
        )
        dead_row = NetworkModel(4, [Edge(0, 2, known=True), Edge(2, 3, known=False), Edge(0, 3, known=False)], [0, 1], [3])
        code, out, _ = run(capsys, ["combinatorial", write_net(tmp_path, cancel)])
        assert code == 1
        assert "global-separable: not-identifiable (max degree 0, exhaustive)" in out
        assert (
            "  structural rank bound 1 < 2 unknown edges"
            " (by tails: the 2 unknown edges out of node 3 have rank at most 1)" in out
        )
        code, out, _ = run(capsys, ["combinatorial", write_net(tmp_path, dead_row), "--max-degree", "4"])
        assert code == 1
        assert "  (excitation, measurement) pairs with no walk: (2, 4)" in out

    def test_degree_bound_changes_the_verdict(self, tmp_path, capsys):
        path = write_net(tmp_path, cyclic9_net())
        code, out, _ = run(capsys, ["combinatorial", path, "--max-degree", "4"])
        assert code == 2
        assert "inconclusive" in out
        code, out, _ = run(capsys, ["combinatorial", path, "--max-degree", "5"])
        assert code == 0

    def test_decouple_first(self, tmp_path, capsys):
        path = write_net(tmp_path, minimal_net())
        code, out, _ = run(capsys, ["combinatorial", path, "--decouple-first"])
        assert code == 0
        assert "analyzed decoupled form: 4 nodes (excited copy offset +2)" in out
        assert "decoupled-generic: identifiable" in out

    def test_decouple_first_ignores_the_seed(self, tmp_path, capsys, monkeypatch):
        """The walk count reads structure only, so the seed of the decoupled copy's values never matters."""
        valued = NetworkModel(
            5, [Edge(e.src, e.dst, e.known, value=0.1 * (i + 1)) for i, e in enumerate(fan_net().edges)], [0, 1], [4]
        )
        path = write_net(tmp_path, valued)
        outs = []
        for seed in ("0", "5", "-1"):
            monkeypatch.setenv("NETIDENT_SEED", seed)
            code, out, err = run(capsys, ["combinatorial", path, "--decouple-first"])
            assert code == 0 and err.startswith("elapsed:")
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_non_separable_input_is_an_error(self, tmp_path, capsys):
        net = NetworkModel(2, [Edge(0, 1, known=False)], [0, 1], [1])
        path = write_net(tmp_path, net)
        code, _, err = run(capsys, ["combinatorial", path])
        assert code == 3
        assert "error:" in err

    def test_too_many_unknown_edges_is_an_error(self, tmp_path, capsys):
        """1024 unknown edges b->c, square and separable: refused, where the collection search would nest 1024 deep."""
        net = NetworkModel(
            64, [Edge(b, c, known=False) for b in range(32) for c in range(32, 64)], list(range(32)), list(range(32, 64))
        )
        path = write_net(tmp_path, net)
        code, out, err = run(capsys, ["combinatorial", path])
        assert code == 3
        assert err.startswith("error:") and "1024 unknown edges" in err and "500" in err
        assert out == ""

    @pytest.mark.parametrize("command, verdict", [("combinatorial", "global-separable: identifiable"), ("oracle", "agreement: yes")])
    def test_deep_bound_on_a_cyclic_block(self, tmp_path, capsys, command, verdict):
        """Walks around the excited block's 2-cycle up to length 1200 are enumerated without deep recursion."""
        net = NetworkModel(
            4, [Edge(0, 1, known=True), Edge(1, 0, known=True), Edge(2, 3, known=True), Edge(1, 2, known=False)], [0], [3]
        )
        path = write_net(tmp_path, net)
        code, out, _ = run(capsys, [command, path, "--max-degree", "1200"])
        assert code == 0
        assert verdict in out

    def test_json_table(self, tmp_path, capsys):
        path = write_net(tmp_path, fan_net())
        _, out, _ = run(capsys, ["combinatorial", path, "--json"])
        report = json.loads(out)
        assert report["verdict"]["decision"] == "identifiable"
        reps = {row["monomial"]: row["repetition"] for row in report["table"]}
        assert reps == {"g(1->3)*g(2->4)": 1, "g(1->4)*g(2->3)": -1}
        assert all(row["degree"] == 2 for row in report["table"])


class TestOracle:
    def test_agreement_on_fan(self, tmp_path, capsys):
        path = write_net(tmp_path, fan_net())
        code, out, _ = run(capsys, ["oracle", path])
        assert code == 0
        assert "agreement: yes" in out
        assert "g(1->3)*g(2->4): walks +1, determinant +1" in out

    def test_empty_comparison_still_agrees(self, tmp_path, capsys):
        path = write_net(tmp_path, unreachable_net())
        code, out, _ = run(capsys, ["oracle", path, "--max-degree", "3"])
        assert code == 0
        assert "comparing 0 monomials" in out
        assert "agreement: yes" in out

    def test_non_separable_input_is_an_error(self, tmp_path, capsys):
        net = NetworkModel(2, [Edge(0, 1, known=False)], [0, 1], [1])
        path = write_net(tmp_path, net)
        code, out, err = run(capsys, ["oracle", path])
        assert code == 3
        assert err.startswith("error:")
        assert out == ""

    def test_too_many_unknowns_is_an_error(self, tmp_path, capsys):
        net = NetworkModel(8, [Edge(i, 7, known=False) for i in range(7)], list(range(7)), [7])
        path = write_net(tmp_path, net)
        code, out, err = run(capsys, ["oracle", path, "--max-degree", "2"])
        assert code == 3
        assert err.startswith("error:") and "7 unknown edges" in err
        assert out == ""

    def test_size_guard_runs_before_the_walk_table(self, tmp_path, capsys):
        """Eight unknown edges exceed the guard; the refusal must not wait for a 2n-bound walk table."""
        net = random_network(
            nodes=12, unknowns=8, excited=4, measured=2, known_density=0.4, separable=True, seed=1
        )
        path = write_net(tmp_path, net)
        started = time.perf_counter()
        code, out, err = run(capsys, ["oracle", path])
        assert time.perf_counter() - started < 5
        assert code == 3
        assert err.startswith("error:") and "8 unknown edges" in err
        assert out == ""


class TestGen:
    def test_writes_loadable_network(self, tmp_path, capsys):
        out_path = str(tmp_path / "gen.json")
        code, out, _ = run(
            capsys,
            ["gen", "--nodes", "6", "--unknowns", "2", "--excited", "2", "--measured", "1",
             "--separable", "--seed", "4", "--out", out_path],
        )
        assert code == 0
        net = load_network(out_path)
        assert net.n == 6 and net.m_unknown == 2

    def test_stdout_json_when_no_out(self, capsys):
        code, out, _ = run(capsys, ["gen", "--seed", "4"])
        assert code == 0
        data = json.loads(out)
        assert data["nodes"] == 6

    def test_node_count_above_the_ceiling(self, tmp_path, capsys):
        """``check`` would refuse the file, so ``gen`` refuses to write it."""
        out_path = tmp_path / "big.json"
        code, out, err = run(
            capsys,
            ["gen", "--nodes", str(MAX_NODES + 1), "--unknowns", "1", "--excited", "1", "--measured", "1",
             "--known-density", "0", "--out", str(out_path)],
        )
        assert code == 3
        assert err.startswith("error:")
        assert out == ""
        assert not out_path.exists()

    def test_infeasible_is_an_error(self, capsys):
        code, _, err = run(capsys, ["gen", "--nodes", "2", "--unknowns", "9"])
        assert code == 3
        assert "error:" in err


class TestErrorsAndDeterminism:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["check", "/nonexistent.json"])
        assert code == 3
        assert "error:" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["check", str(path)])
        assert code == 3
        assert "invalid JSON" in err

    def test_non_finite_edge_value(self, tmp_path, capsys):
        """json reads the literal NaN; the parser must still refuse it."""
        data = network_to_dict(fan_net())
        data["edges"][0]["value"] = math.nan
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["check", str(path)])
        assert code == 3
        assert err.startswith("error: edges[0].value")
        assert out == ""

    def test_boolean_edge_value(self, tmp_path, capsys):
        """JSON true is a Python int; read as 1.0 it would load a network the file never described."""
        data = network_to_dict(fan_net())
        data["edges"][0]["value"] = True
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["check", str(path)])
        assert code == 3
        assert err.startswith("error: edges[0].value must be a finite number")
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["combinatorial", "{path}", "--max-degree", "-1"], "error: --max-degree must be >= 0, got -1"),
            (["oracle", "{path}", "--max-degree", "-1"], "error: --max-degree must be >= 0, got -1"),
            # not an option: the sample count follows from the failure bound
            (["check", "{path}", "--trials", "0"], "netident: error: unrecognized arguments: --trials 0"),
            (["check", "{path}", "--seed", "-1"], "error: --seed must be >= 0, got -1"),
        ],
    )
    def test_out_of_range_option(self, tmp_path, capsys, argv, message):
        """An option below its range, or one that does not exist, is a usage error, not a traceback that exits 1."""
        path = write_net(tmp_path, fan_net())
        code, out, err = run(capsys, [a.format(path=path) for a in argv])
        if message.startswith("netident: "):
            # argparse prints its usage line before its own messages
            message = _build_parser().format_usage() + message
        assert code == 3
        assert err.startswith(message + "\n")
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check"],
            ["check", "{path}", "--trials", "5"],
            ["combinatorial", "{path}", "--max-degree", "abc"],
            ["frobnicate"],
            [],
        ],
        ids=["missing-path", "removed-option", "non-integer", "unknown-command", "no-command"],
    )
    def test_usage_error_exits_3(self, tmp_path, capsys, argv):
        """argparse's own errors exit 3 like every other usage error, not its default 2 (inconclusive)."""
        path = write_net(tmp_path, fan_net())
        code, out, err = run(capsys, [a.format(path=path) for a in argv])
        assert code == 3
        assert err.startswith("usage: netident")
        assert "error: " in err
        assert out == ""

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, ["check", "--help"])
        assert code == 0
        assert out.startswith("usage: netident check")

    def test_all_samples_singular_is_an_error(self, tmp_path, capsys, monkeypatch):
        """A sample whose every redraw is singular ends `check` with exit 3 and a message, not a traceback."""

        def singular(net, values):
            raise numeric.SingularMatrixError("forced")

        monkeypatch.setattr(numeric, "_loop_factor", singular)
        path = write_net(tmp_path, fan_net())
        code, out, err = run(capsys, ["check", path])
        assert code == 3
        assert err.startswith("error: ")
        assert out == ""

    def test_negative_environment_seed_is_an_error(self, tmp_path, capsys, monkeypatch):
        path = write_net(tmp_path, fan_net())
        monkeypatch.setenv("NETIDENT_SEED", "-1")
        code, out, err = run(capsys, ["check", path])
        assert code == 3
        assert err.startswith("error: NETIDENT_SEED must be >= 0")
        assert out == ""

    @pytest.mark.parametrize("nodes", [20000, 10**12])
    def test_node_count_above_the_ceiling(self, tmp_path, capsys, nodes):
        """Refused at load, before any n x n matrix exists; the parent ran out of memory on both."""
        data = {"nodes": nodes, "edges": [{"from": 1, "to": 2, "known": False}], "excited": [1], "measured": [2]}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        started = time.perf_counter()
        code, out, err = run(capsys, ["check", str(path)])
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert err.startswith(f"error: field 'nodes' must be at most {MAX_NODES}")
        assert out == ""

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b'{"nodes": 2, "edges": [], "excited": [1], "measured": [2], "x": "\xff"}', id="not-utf8"),
            pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-100000-deep"),
            pytest.param(b'{"nodes": 1' + b"0" * 5000 + b', "edges": [], "excited": [], "measured": []}', id="5001-digits"),
        ],
    )
    def test_unreadable_file_content(self, tmp_path, capsys, content):
        """Each of these raised out of json (exit 1, the not-identifiable code) before load_network caught it."""
        path = tmp_path / "net.json"
        path.write_bytes(content)
        code, out, err = run(capsys, ["check", str(path)])
        assert code == 3
        assert err.startswith(f"error: {path}: unreadable JSON: ")
        assert out == ""

    def test_integer_edge_value_past_the_float_range(self, tmp_path, capsys):
        """math.isfinite raised OverflowError on it; the parser names the field instead."""
        data = network_to_dict(fan_net())
        data["edges"][0]["value"] = 10**400
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["check", str(path)])
        assert code == 3
        assert err.startswith("error: edges[0].value must be a finite number")
        assert out == ""

    def test_no_unknown_edges(self, tmp_path, capsys):
        net = NetworkModel(2, [Edge(0, 1, known=True)], [0], [1])
        path = write_net(tmp_path, net)
        code, _, err = run(capsys, ["check", path])
        assert code == 3
        assert "no unknown edges" in err

    def test_timing_on_stderr_only(self, tmp_path, capsys):
        path = write_net(tmp_path, minimal_net())
        _, out, err = run(capsys, ["check", path])
        assert "elapsed:" in err
        assert "elapsed:" not in out

    def test_stdout_is_reproducible(self, tmp_path, capsys):
        path = write_net(tmp_path, cyclic9_net())
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, ["combinatorial", path, "--max-degree", "5", "--json"])
            outs.add(out)
        assert len(outs) == 1

    def test_module_entry_point(self, tmp_path, cli_env):
        path = write_net(tmp_path, minimal_net())
        proc = subprocess.run(
            [sys.executable, "-m", "netident", "check", path],
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert proc.returncode == 0
        assert "identifiable" in proc.stdout


# Runs ``netident.cli.main`` on its arguments (none: import only), then fails if numpy was loaded.
NUMPY_FREE_CHILD = """
import sys
import netident
import netident.cli
code = netident.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
assert "numpy" not in sys.modules, "numpy was imported"
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["check", "{path}", "--json"],
        ["separable", "{path}", "--json"],
        ["combinatorial", "{path}", "--json"],
        ["combinatorial", "{path}", "--decouple-first"],
        ["oracle", "{path}"],
    ],
    ids=["import", "check", "separable", "combinatorial", "decouple-first", "oracle"],
)
def test_verdict_commands_never_import_numpy(tmp_path, cli_env, argv):
    """numpy is for ``gen``, ``decouple`` of valued files and ``netident.series``; the verdict path is exact."""
    path = write_net(tmp_path, fan_net())
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_CHILD, *(a.format(path=path) for a in argv)],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, validations",
    [
        (["check", "{path}"], 1),
        (["combinatorial", "{path}"], 1),
        (["separable", "{path}"], 1),
        (["combinatorial", "{path}", "--decouple-first"], 2),
    ],
    ids=["check", "combinatorial", "separable", "decouple-first"],
)
def test_each_network_is_validated_once(tmp_path, capsys, argv, validations):
    """Loading builds, and so validates, the file's network; the lift is one more network; no verdict validates again."""
    path = write_net(tmp_path, fan_net())
    assert validate_calls(lambda: main([a.format(path=path) for a in argv])) == validations
    capsys.readouterr()
