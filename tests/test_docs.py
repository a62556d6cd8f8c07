"""The README's code runs as written, and ``netident`` exports exactly the names its documents and demos use."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import netident
from netident.netmodel import network_from_dict

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

# What ``import netident`` binds: the API the demos, the README and the CLI's error paths use, and the
# submodules it is imported from.  Internals (rank, walks, oracle polynomials, file dicts) stay in
# their submodules; a re-export of one here is a change to this list.
PUBLIC = {
    "Edge", "NetworkModel", "ValidationError",
    "NotSeparableError", "NotSquareError", "NetworkFormatError", "MAX_NODES",
    "separate", "is_separable", "decouple", "load_network", "save_network",
    "AllSamplesSingularError",
    "IDENTIFIABLE", "NOT_IDENTIFIABLE", "INCONCLUSIVE", "LOCAL_GENERIC", "DECOUPLED_GENERIC",
    "GLOBAL_SEPARABLE", "NoUnknownEdgesError", "Verdict", "local_identifiability",
    "decoupled_identifiability",
    "TooLargeError", "format_monomial", "repetition_table", "combinatorial_verdict",
    "necessary_condition_any_topology",
    "symbolic_det", "coefficient",
    "GenerationError", "random_network",
}
SUBMODULES = {"netmodel", "numeric", "identifiability", "combinatorial", "oracle", "generate"}


def readme_block(heading: str, lang: str) -> str:
    """The first fenced ``lang`` block after the README line ``heading``."""
    after = README[README.index(f"\n{heading}\n") :]
    return re.search(rf"^```{lang}\n(.*?)^```$", after, re.S | re.M).group(1)


def imported_from_netident(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "netident"
        for alias in node.names
    }


def test_public_names_are_the_kept_api_and_six_submodules(cli_env):
    """A fresh ``import netident`` binds the 32 API names and the six submodules it imports, nothing else public."""
    code = "import json, netident; print(json.dumps([n for n in vars(netident) if not n.startswith('_')]))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout)
    assert len(PUBLIC) == 32
    assert sorted(names) == sorted(PUBLIC | SUBMODULES)


def imports_numpy(source: str) -> bool:
    """Whether ``source`` imports numpy or one of its submodules anywhere, inside a function too."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module == "numpy" or module.startswith("numpy.") for module in modules):
            return True
    return False


def test_only_gen_and_series_import_numpy():
    """Only ``generate`` (``gen``) and ``series`` import numpy, so no verdict route can load it, whatever file it reads."""
    package = Path(netident.__file__).parent
    assert {path.name for path in package.glob("*.py") if imports_numpy(path.read_text())} == {"generate.py", "series.py"}


def test_demos_and_readme_import_only_public_names():
    sources = [demo.read_text() for demo in sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))]
    sources += re.findall(r"^```python\n(.*?)^```$", README, re.S | re.M)
    used = set().union(*map(imported_from_netident, sources))
    assert used and used <= PUBLIC | SUBMODULES, used - PUBLIC - SUBMODULES


def test_quick_start_prints_what_its_comments_say(capsys):
    code = readme_block("## Quick start", "python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["identifiable", "2"]
    assert '# "identifiable"' in code and "# 2 of 2 unknown edges" in code


def test_network_files_example_loads():
    net = network_from_dict(json.loads(readme_block("## Network files", "json")))
    assert (net.n, net.excited, net.measured) == (5, (0, 1), (4,))
    assert [(e.src, e.dst, e.known) for e in net.edges] == [(0, 2, True), (2, 4, False)]
