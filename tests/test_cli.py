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
from netident.cli import OptionError, _build_parser, _default_seed, main
from netident.netmodel import network_to_dict

from corpus import cyclic9_net, fan_net, minimal_net, unreachable_net
from helpers import perfbench_inputs, validate_calls


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


def run_module(cli_env, cwd, *argv, timeout=None):
    """(exit code, stdout) of a ``python -m netident`` process in ``cwd``."""
    proc = subprocess.run(
        [sys.executable, "-m", "netident", *argv], capture_output=True, text=True, env=cli_env, cwd=cwd, timeout=timeout
    )
    return proc.returncode, proc.stdout


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
        assert err.startswith("error: NETIDENT_SEED must be an integer, got 'pi'")
        with pytest.raises(OptionError, match="NETIDENT_SEED must be an integer"):
            _default_seed()


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
        reason = out.split("reason: ", 1)[1].rstrip("\n")
        code, out, _ = run(capsys, ["separable", path, "--json"])
        assert code == 1
        report = json.loads(out)
        assert report["separable"] is False and report["reason"] == reason

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


@pytest.mark.parametrize("seed, decision", [(1, "not-identifiable"), (5, "identifiable")])
def test_written_lift_matches_decouple_first(tmp_path, cli_env, seed, decision):
    """The lift ``decouple`` writes is separable, and its walk verdict is the one ``--decouple-first`` reaches.

    Same exit code, table, decision and witness, from ``python -m
    netident`` processes on a ``gen --separable`` file.  Seed 1's table is
    empty; seed 5's lift is identifiable, so its witness walks are compared.
    """

    def netident(*argv):
        return run_module(cli_env, tmp_path, *argv)

    assert netident("gen", "--separable", "--seed", str(seed), "--out", "g.json")[0] == 0
    assert netident("decouple", "g.json", "lift.json")[0] == 0
    assert netident("separable", "lift.json")[0] == 0
    code, lift_out = netident("combinatorial", "lift.json", "--json")
    first, first_out = netident("combinatorial", "g.json", "--decouple-first", "--json")
    assert code <= 1 and code == first
    lift, direct = json.loads(lift_out), json.loads(first_out)
    assert lift["table"] == direct["table"]
    assert all(lift["verdict"][k] == direct["verdict"][k] for k in ("decision", "witness")), (lift, direct)
    assert lift["verdict"]["decision"] == decision
    assert bool(lift["table"]) == (decision == "identifiable") == ("walks" in lift["verdict"]["witness"])


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
        code, out, _ = run(capsys, ["combinatorial", write_net(tmp_path, unreachable_net())])
        assert code == 1
        assert "  unknown edges with no walk: 2->3" in out

    def test_product_bound_names_both_flows(self, tmp_path, capsys):
        """Lift 14 of acceptance criterion 5: three heads reach the measurements, one excitation feeds every tail."""
        path = str(tmp_path / "net.json")
        gen = ["gen", "--nodes", "6", "--unknowns", "4", "--excited", "1", "--measured", "4"]
        assert run(capsys, [*gen, "--known-density", "0.4", "--seed", "5014", "--out", path])[0] == 0
        code, out, _ = run(capsys, ["combinatorial", path, "--decouple-first"])
        assert code == 1
        assert "decoupled-generic: not-identifiable (max degree 0, exhaustive)" in out
        assert (
            "  structural rank bound 3 < 4 unknown edges (by product: 3 disjoint walks from the unknown edges'"
            " heads to the measurements times 1 from the excitations to their tails)" in out
        )
        code, out, _ = run(capsys, ["combinatorial", path, "--decouple-first", "--json"])
        assert code == 1
        assert json.loads(out)["verdict"]["witness"] == {
            "rank_bound": {"bound": 3, "by": "product", "heads_to_measured": 3, "excited_to_tails": 1}
        }

    def test_structure_refutes_at_an_explicit_bound(self, tmp_path, capsys):
        """A separable 8-node draw whose heads bound rank K by 3 < 4: not identifiable below D = 24 too.

        The printed table is still counted at the bound asked: one
        cancelled entry at 4, a nonempty all-zero table at 24.
        """
        path = str(tmp_path / "net.json")
        gen = ["gen", "--separable", "--nodes", "8", "--unknowns", "4", "--excited", "2", "--measured", "2"]
        assert run(capsys, [*gen, "--seed", "3", "--out", path])[0] == 0
        witness = {"rank_bound": {"bound": 3, "by": "heads", "node": 4, "unknown_edges": 3, "rank": 2}}
        for bound, entries in (("4", 1), ("24", 94)):
            code, out, _ = run(capsys, ["combinatorial", path, "--max-degree", bound, "--json"])
            report = json.loads(out)
            assert code == 1
            assert (report["verdict"]["decision"], report["verdict"]["exhaustive"]) == ("not-identifiable", True)
            assert report["verdict"]["witness"] == witness
            assert len(report["table"]) == entries and all(row["repetition"] == 0 for row in report["table"])
        code, out, _ = run(capsys, ["combinatorial", path, "--max-degree", "4"])
        assert code == 1
        assert "global-separable: not-identifiable (max degree 4, exhaustive)" in out
        assert "repetition table (degree bound 4, exhaustive):" in out

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
        # neither separable-square nor with an unknown edge: the walk route and the oracle name the missing edges first
        for command in (["check"], ["combinatorial"], ["combinatorial", "--decouple-first"], ["oracle"]):
            code, _, err = run(capsys, [command[0], path, *command[1:]])
            assert code == 3, command
            assert "no unknown edges" in err, command

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

    def test_check_repeated_in_one_process_matches_a_new_process(self, tmp_path, capsys, cli_env):
        """``check`` of a, then b, then a again in one process prints a's report twice, as a new process does."""
        a = write_net(tmp_path, perfbench_inputs().check_net(1, 1), "a.json")
        b = write_net(tmp_path, fan_net(), "b.json")
        runs = [run(capsys, ["check", path, "--json"])[:2] for path in (a, b, a)]
        assert runs[0] == runs[2] == run_module(cli_env, tmp_path, "check", a, "--json")
        assert runs[0][0] == 1 and runs[1][0] == 0

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


class TestModuleRuns:
    """``python -m netident`` processes on generated files, each in its own working directory."""

    def test_separable_report_crosses_the_file_unknown_edges(self, tmp_path, cli_env):
        """The crossing edges are read from the network itself: the file's unknown edges, in file order."""
        assert run_module(cli_env, tmp_path, "gen", "--separable", "--seed", "1", "--out", "g.json")[0] == 0
        code, out = run_module(cli_env, tmp_path, "separable", "g.json", "--json")
        report = json.loads(out)
        edges = json.loads((tmp_path / "g.json").read_text())["edges"]
        unknown = ["%d->%d" % (e["from"], e["to"]) for e in edges if e["known"] is False]
        assert code == 0 and report["separable"] is True and unknown and report["cross_edges"] == unknown, report

    def test_check_exits_with_a_decision_or_a_usage_error(self, tmp_path, cli_env):
        assert run_module(cli_env, tmp_path, "gen", "--separable", "--seed", "1", "--out", "g.json")[0] == 0
        assert run_module(cli_env, tmp_path, "check", "g.json", "--json")[0] <= 1
        assert run_module(cli_env, tmp_path, "check")[0] == 3

    @pytest.mark.parametrize(
        "gen",
        [
            ["--separable", "--seed", "1"],
            ["--separable", "--nodes", "8", "--unknowns", "4", "--excited", "2", "--measured", "2", "--seed", "3"],
        ],
        ids=["g", "s3"],
    )
    def test_walk_table_parses_and_the_oracle_agrees(self, tmp_path, cli_env, gen):
        assert run_module(cli_env, tmp_path, "gen", *gen, "--out", "net.json")[0] == 0
        code, out = run_module(cli_env, tmp_path, "combinatorial", "net.json", "--json")
        assert code <= 1
        json.loads(out)
        code, out = run_module(cli_env, tmp_path, "oracle", "net.json")
        assert code == 0 and out.endswith("agreement: yes\n"), out

    def test_decoupled_seed_7_is_refuted_within_a_minute(self, tmp_path, cli_env):
        """The structure of the 16-node lift refutes it (a rank bound of 2 against 4 unknown edges); no search up to 2n runs."""
        gen = ["gen", "--separable", "--nodes", "8", "--unknowns", "4", "--excited", "2", "--measured", "2"]
        assert run_module(cli_env, tmp_path, *gen, "--seed", "7", "--out", "s7.json")[0] == 0
        assert run_module(cli_env, tmp_path, "combinatorial", "s7.json", "--decouple-first", timeout=60)[0] == 1

    @pytest.mark.parametrize("seed, decision", [(1, "identifiable"), (2, "not-identifiable")])
    def test_decoupled_rank_and_lift_walk_verdicts_agree(self, tmp_path, cli_env, seed, decision):
        """``check``'s decoupled rank verdict and the walk verdict on the lift decide one question by independent routes."""
        gen = ["gen", "--nodes", "6", "--unknowns", "2", "--excited", "2", "--measured", "1", "--seed", str(seed)]
        assert run_module(cli_env, tmp_path, *gen, "--out", "d.json")[0] == 0
        code, rank_out = run_module(cli_env, tmp_path, "check", "d.json", "--json")
        assert code <= 1
        code, walk_out = run_module(cli_env, tmp_path, "combinatorial", "d.json", "--decouple-first", "--json", timeout=60)
        assert code <= 1
        rank = [v["decision"] for v in json.loads(rank_out)["verdicts"] if v["notion"] == "decoupled-generic"]
        walk = json.loads(walk_out)["verdict"]
        assert rank == [walk["decision"]] == [decision], (rank, walk)

    @pytest.mark.parametrize(
        "gen, code, ranks",
        [
            # 16 (excitation, measurement) rows against 12 unknown edges: each sample ranks a 12 x 12 sketch.
            (["--nodes", "16", "--unknowns", "12", "--excited", "4", "--measured", "4", "--known-density", "0.15",
              "--seed", "5"], 1, [11, 11]),
            # The north-star size: 80 unknown edges and 40 x 40 ports, an 80 x 80 sketch per sample.
            (["--nodes", "160", "--unknowns", "80", "--excited", "40", "--measured", "40", "--seed", "1"], 0, [80, 80]),
        ],
        ids=["w5", "n160"],
    )
    def test_sketched_ranks_are_reproducible(self, tmp_path, cli_env, gen, code, ranks):
        """Rank in both modes, well inside a minute, and the same bytes on a second run."""
        assert run_module(cli_env, tmp_path, "gen", *gen, "--out", "net.json")[0] == 0
        runs = [run_module(cli_env, tmp_path, "check", "net.json", "--json", timeout=60) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == code
        assert [v["rank"] for v in json.loads(runs[0][1])["verdicts"]] == ranks

    def test_self_loop_file_is_a_usage_error(self, tmp_path, cli_env):
        bad = {
            "nodes": 2,
            "edges": [{"from": 1, "to": 1, "known": True}, {"from": 1, "to": 2, "known": False}],
            "excited": [1],
            "measured": [2],
        }
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        assert run_module(cli_env, tmp_path, "check", "bad.json")[0] == 3
