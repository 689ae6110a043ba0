"""perfbench's tracer wraps btas functions by attribute name.

If the CLI stopped calling one of those names, the matching per-layer
metric would silently read 0; this test makes that a failure instead.
"""

import functools
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import btas
import btas.cli
from btas.graph_io import edge_list_to_text, graph_to_matrix, matrix_to_text, random_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _wrapped_paths(monkeypatch) -> "list[str]":
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    # a bare name (btas.matmul) serves the kernel-only workload, not the CLI
    return [path for path, _ in module.WRAPPED if "." in path]


def test_cli_calls_every_name_perfbench_wraps(tmp_path, monkeypatch, capsys):
    calls = Counter()
    wrapped = _wrapped_paths(monkeypatch)
    for path in wrapped:
        owner_name, attr = path.split(".")
        owner = getattr(btas, owner_name)
        original = getattr(owner, attr)

        def counted(*args, _path=path, _original=original, **kwargs):
            calls[_path] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    graph = random_graph(12, 0.5, (0, 9), 3)
    edges, matrix, dist = tmp_path / "g.edges", tmp_path / "g.mat", tmp_path / "dist.mat"
    edges.write_text(edge_list_to_text(graph), encoding="utf-8")
    matrix.write_text(matrix_to_text(graph_to_matrix(graph)), encoding="utf-8")
    for argv in (
        ["solve", str(edges), "--algorithm", "fw", "--out", str(dist)],
        ["solve", str(edges), "--algorithm", "square"],
        ["solve", str(matrix), "--algorithm", "fw"],
        ["solve", str(matrix), "--algorithm", "square"],
        ["verify", str(edges), str(dist)],
    ):
        assert btas.cli.entrypoint(argv) == 0, argv
    capsys.readouterr()

    assert calls["apsp.matmul"] > 0  # squaring multiplies through btas.apsp
    assert [path for path in wrapped if calls[path] == 0] == []


def test_every_btas_name_perfbench_uses_resolves():
    """perfbench calls btas names, private ones included, that tier-1 never runs."""
    names = {
        match
        for source in PERFBENCH.glob("*.py")
        for match in re.findall(r"(?<![\w/.])btas(?:\.[A-Za-z_]\w*)+", source.read_text(encoding="utf-8"))
    }
    assert names
    missing = []
    for name in sorted(names):
        try:
            functools.reduce(getattr, name.split(".")[1:], btas)
        except AttributeError:
            missing.append(name)
    assert missing == []
