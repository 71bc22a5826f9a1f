"""Contracts on the repo's surface (ROADMAP item 8).

(a) *CLI snapshot* — every subcommand's ``(option strings, dest, type,
    choices, default, nargs, required, action)`` set equals
    ``tests/cli_surface.json``, written from the parser of commit
    ``451249e`` — the last one whose flags were typed by hand.  A choice
    list is recorded as the registry it is read from (``"@samplers"``), so
    the snapshot does not depend on which plugins are loaded.  Three
    declared diffs from ``451249e``: ``--router`` / ``--shed-policy`` were
    literals equal to ``@routers`` / ``@shed_policies`` and are now read
    from them, the four ``--kernel`` flags are gone with the kernel axis,
    and the three ``--workers`` flags are gone with the worker pool.
(b) *Copy equivalence* — a config built from flags is a copy of the one
    built from JSON: same fields, same error for the same bad value.
(c) *Surface guard* — a public name in ``src/`` that no other ``src/``
    module, benchmark or example uses is on the allow-list below (with its
    reason) or the test fails.
(d) *One knob table* — the README's block is ``repro.cli.knob_table()``.
(e) *The e2e harness's patch table* — every name ``benchmarks/e2e/trace.py``
    wraps from outside ``src/`` still resolves, and unwraps.
(f) *One sampling bill* — the launch and overhead constants, and a
    ``sample_bulk(..., spgemm_fn=...)`` recording call, live only in
    ``distributed/instrument.py``.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.api import ALGORITHMS, DATASETS, SAMPLERS, RunConfig
from repro.cli import (
    _SERVE_KNOBS,
    _STREAM_KNOBS,
    _TRAIN_KNOBS,
    _resolve_train_config,
    build_parser,
    knob_table,
    main,
)
from repro.gnn import ACTIVATIONS
from repro.partition import CACHE_POLICIES
from repro.serve import ROUTERS, SHED_POLICIES

ROOT = Path(__file__).resolve().parent.parent
FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


# ---------------------------------------------------------------------- #
# (a) CLI snapshot
# ---------------------------------------------------------------------- #
def cli_surface(parser: argparse.ArgumentParser) -> dict[str, list]:
    """``{subcommand: sorted rows}``; ``""`` is the top-level parser."""
    registries = {
        "@datasets": DATASETS.names(), "@samplers": SAMPLERS.names(),
        "@algorithms": ALGORITHMS.names(),
        "@activations": list(ACTIVATIONS),
        "@cache_policies": list(CACHE_POLICIES),
        "@routers": list(ROUTERS), "@shed_policies": list(SHED_POLICIES),
        "@sweep_algorithms": [
            n for n in ALGORITHMS.names()
            if ALGORITHMS.spec(n).meta("scalable", True)
        ],
    }

    def choices(action):
        if action.choices is None:
            return None
        return next(k for k, v in registries.items() if v == list(action.choices))

    def rows(p):
        return sorted(
            [a.option_strings, a.dest, getattr(a.type, "__name__", None),
             choices(a), a.default, a.nargs, a.required, type(a).__name__]
            for a in p._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
        )

    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {"": rows(parser), **{n: rows(p) for n, p in sub.choices.items()}}


def test_cli_surface_is_the_hand_written_parsers():
    want = json.loads(Path(__file__).with_name("cli_surface.json").read_text())
    got = cli_surface(build_parser())
    assert set(got) == set(want)
    for command in want:
        assert got[command] == want[command], command
    flags = {c: sum(bool(row[0]) for row in got[c]) for c in got}
    assert (flags["train"], flags["serve"], flags["stream"]) == (20, 25, 19)


def test_every_knob_is_declared_once():
    assert len(FIELDS) == 40
    for f in FIELDS.values():
        assert f.metadata["help"] and "type" in f.metadata, f.name
    cli = (ROOT / "src/repro/cli.py").read_text()
    assert cli.count("add_argument(") <= 40
    for gone in ("_TRAIN_OVERRIDES", '"round_robin"', '"deadline"'):
        assert gone not in cli


# ---------------------------------------------------------------------- #
# (b) Copy equivalence
# ---------------------------------------------------------------------- #
def _legal(f: dataclasses.Field):
    """One legal non-default value for a knob: ``(flag text, value)``."""
    m = f.metadata
    if "registry" in m:
        name = "partitioned" if f.name == "algorithm" else next(
            k for k in reversed(list(m["registry"])) if k != f.default
        )
        return name, name
    if m["type"] is tuple:
        return "7,4", (7, 4)
    value = {int: 2, float: 0.5, bool: True}[m["type"]]
    return str(value), value


def _argv(command: str, name: str, text: str | None) -> list[str]:
    flag = "--" + name.replace("_", "-")
    return [command, flag] if text is None else [command, flag, text]


KNOB_COMMANDS = {
    **{n: "stream" for n in _STREAM_KNOBS},
    **{n: "serve" for n in _SERVE_KNOBS},
    **{n: "train" for n in _TRAIN_KNOBS},
}


@pytest.mark.parametrize("name", sorted(KNOB_COMMANDS))
def test_flag_config_is_a_copy_of_the_json_config(name):
    base = ROOT / "examples/run_config.json"
    text, value = _legal(FIELDS[name])
    if FIELDS[name].metadata["type"] is bool:
        text = None
    argv = _argv(KNOB_COMMANDS[name], name, text)
    from_flags = _resolve_train_config(
        build_parser().parse_args(argv + ["--config", str(base)])
    )
    assert from_flags == RunConfig.from_json(base).replace(**{name: value})
    assert getattr(from_flags, name) == value != FIELDS[name].default


ILLEGAL = {"positive": 0, "non-negative": -1, "in (0, 1]": 2}


@pytest.mark.parametrize(
    "name", sorted(n for n in KNOB_COMMANDS if "bound" in FIELDS[n].metadata)
)
def test_bad_value_fails_alike_from_flags_and_from_json(name, capsys):
    m = FIELDS[name].metadata
    bad = m["type"](ILLEGAL[m["bound"]])  # 0.0 for a float: argparse's reading
    with pytest.raises(ValueError) as from_json:
        RunConfig.from_json(json.dumps({name: bad}))
    assert main(_argv(KNOB_COMMANDS[name], name, str(bad))) == 2
    assert capsys.readouterr().err == f"error: {from_json.value}\n"


@pytest.mark.parametrize("kwargs", [
    {"hidden": 0}, {"batch_size": -1}, {"lr": "x"}, {"lr": -1.0},
    {"epochs": 1.5}, {"fanout": []}, {"conv": "nonsense"},
    {"dataset_kwargs": 3}, {"fanout": [5, 3.5]}, {"p": "4"},
    {"fanout": "5,3"}, {"p": True}, {"overlap": 1}, {"machine": 3},
], ids=str)
def test_validation_holes_are_closed(kwargs):
    """Each was accepted (or died with a bare TypeError) at ``451249e``."""
    (name, value), = kwargs.items()
    for build in (lambda: RunConfig(**kwargs),
                  lambda: RunConfig.from_json(json.dumps(kwargs))):
        with pytest.raises(ValueError) as err:
            build()
        assert name in str(err.value) and repr(value) in str(err.value)


def test_declared_float_accepts_int_and_registries_are_live():
    assert RunConfig(lr=1, scale=2).lr == 1
    with pytest.raises(ValueError, match="unknown router 'sticky'"):
        RunConfig(router="sticky")
    ROUTERS["sticky"] = ROUTERS["direct"]
    try:
        assert RunConfig(router="sticky").router == "sticky"
    finally:
        del ROUTERS["sticky"]


def test_benchmark_and_example_configs_still_construct():
    from benchmarks.e2e.workloads import FULL

    assert len(FULL) == 5
    for spec in FULL.values():  # all five run c=2 under their algorithm
        assert RunConfig(seed=71, **spec.config).c == 2
    RunConfig.from_json(ROOT / "examples/run_config.json")


# ---------------------------------------------------------------------- #
# (c) Surface guard
# ---------------------------------------------------------------------- #
#: Public names nothing in src/, benchmarks/ or examples/ uses, and why each
#: is still there.  An entry that starts being used (or is deleted) must
#: leave this list — the test fails on stale entries too.
ALLOWED = {
    "CSRMatrix.to_dense": "the tests' dense oracle (with from_dense: 122 uses)",
    "CSRMatrix.from_dense": "the tests' dense oracle (with to_dense)",
    "CSRMatrix.buffers": "the tests' byte-for-byte comparison of a matrix's "
    "three arrays (7 uses)",
    "per_batch_sampling": "the paper's per-batch baseline; reserved for the "
    "bulk-k claim of ROADMAP item 1",
    "SamplingPlan.describe": "a plan's printable form (four lines per layer "
    "of what runs, since plans run as emitted); the plan tests pin plans by "
    "it",
    "ExecutionBackend": "the Protocol that states the backend plug-in contract",
    "Registry.unregister": "undoes a registration in a process-global "
    "registry (plugin reloads, test clean-up)",
    "Engine.epoch_stats": "how a stream_bulks() caller reads the epoch's "
    "stats afterwards (documented on the generator)",
    "load_graph": "reads what `repro generate` writes",
    "save_trace": "writes the trace format `repro serve --requests` reads",
    "InferenceResult.queue_wait": "the wait shed_policy=deadline bounds; "
    "tests/test_fleet.py asserts the bound on it",
}


def _uses(
    tree: ast.Module, *, imports: bool = True
) -> tuple[set[str], set[str]]:
    """What a module *uses*, as ``(names, attributes)``: bare loads and
    imports, then attribute accesses and the words of its string constants
    (getattr / patch-table keys) — not what it defines, its docstrings or
    its ``__all__``."""
    skip = {
        id(c) for n in ast.walk(tree)
        if (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant))
        or (isinstance(n, ast.Assign)
            and any(getattr(t, "id", "") == "__all__" for t in n.targets))
        for c in ast.walk(n)
    }
    names: set[str] = set()
    attributes: set[str] = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attributes.add(n.attr)
        elif isinstance(n, ast.alias) and imports:
            names.add(n.name)
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in skip):
            attributes.update(re.findall(r"\w+", n.value))
    return names, attributes


def unused_public_names() -> set[str]:
    """Public module-level functions and classes no other code names, and
    public methods no other code reaches through an attribute (or a getattr
    string): a local variable that shares a method's name is not a call."""
    names: set[str] = set()
    attributes: set[str] = set()
    modules = {}
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            # A package __init__ re-exports: its imports are not uses.
            n, a = _uses(tree, imports=path.name != "__init__.py")
            names |= n
            attributes |= a
            if top == "src" and path.name != "__init__.py":
                modules[path] = tree
    unused = set()
    for tree in modules.values():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if node.name not in names | attributes:
                unused.add(node.name)
            if isinstance(node, ast.ClassDef):
                unused |= {
                    f"{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_")
                    and m.name not in attributes
                }
    return unused


def test_no_public_name_is_unreachable_without_a_reason():
    unused = unused_public_names()
    assert unused - set(ALLOWED) == set(), "wire, allow-list or delete these"
    assert set(ALLOWED) - unused == set(), "stale allow-list entries"
    assert all(ALLOWED.values())


# ---------------------------------------------------------------------- #
# (d) One knob table
# ---------------------------------------------------------------------- #
def test_readme_knob_table_is_generated(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("<!-- knob-table:begin -->\n")[1]
    assert block.split("\n<!-- knob-table:end -->")[0] == knob_table()
    assert main(["info"]) == 0
    assert knob_table() in capsys.readouterr().out
    assert len(knob_table().splitlines()) == 2 + len(FIELDS)


# ---------------------------------------------------------------------- #
# (e) The e2e harness's patch table
# ---------------------------------------------------------------------- #
def test_e2e_harness_patch_table_resolves():
    """The benchmark's traced pass wraps names in ``src/`` from outside
    (``its_select_mask`` on ``sampler_base``, the SpGEMM kernel object, a
    replica's verbs, the streaming graph's ``apply``): renaming one must
    fail here, in tier-1, not first in a benchmark run."""
    import numpy as np

    import repro.core.its as its
    import repro.core.sampler_base as sampler_base
    from benchmarks.e2e import trace
    from repro.gnn import GNNModel
    from repro.graphs import Graph, rmat
    from repro.serve import ServingCluster
    from repro.stream import StreamingGraph

    rng = np.random.default_rng(0)
    adj = rmat(7, 4, rng)
    graph = Graph("harness", adj, features=rng.random((adj.shape[0], 4)))
    cfg = RunConfig(stream_updates=True, embed_budget=4096.0)
    server = ServingCluster(
        GNNModel(4, 4, 3, 2, rng), graph, cfg, stream=StreamingGraph(graph)
    )
    tracer = trace.Tracer()
    try:
        trace.instrument_shared(tracer, cfg.kernel)
        trace.instrument_server(tracer, server)
        server.serve(np.arange(6))
        assert {"serve.logits_for", "sparse.spmm"} <= set(tracer.table())
    finally:
        tracer.unwrap_all()
    assert not tracer._patches
    assert sampler_base.its_select_mask is its.its_select_mask
    assert "logits_for" not in vars(server.replicas[0])


def test_e2e_harness_bench_imports_resolve():
    """The harness reads ``percentiles`` (``metrics.py``) and
    ``env_fingerprint`` (``run.py``'s manifest) from ``repro.bench``: an
    edit there that drops either must fail here, in tier-1."""
    import repro.bench
    from benchmarks.e2e import metrics

    assert metrics.percentiles([2.0, 1.0], (50,)) == {50: 1.0}
    assert set(repro.bench.env_fingerprint()) == {
        "cpu_count", "python", "numpy", "platform",
    }


# ---------------------------------------------------------------------- #
# (f) One sampling bill
# ---------------------------------------------------------------------- #
def _billing_sites(tree: ast.Module) -> list[tuple[int, str]]:
    """Where a module names the sampling-bill constants or records a bulk
    through ``sample_bulk(..., spgemm_fn=...)`` itself."""
    sites = []
    for n in ast.walk(tree):
        name = (getattr(n, "id", None) or getattr(n, "attr", None)
                or getattr(n, "name", None))
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias)) and name in (
            "KERNELS_PER_LAYER", "CALL_OVERHEAD_S"
        ):
            sites.append((n.lineno, name))
        elif isinstance(n, ast.Call) and any(
            k.arg == "spgemm_fn" for k in n.keywords
        ) and "sample_bulk" in (
            getattr(n.func, "attr", None), getattr(n.func, "id", None)
        ):
            sites.append((n.lineno, "sample_bulk(..., spgemm_fn=...)"))
    return sites


def test_sampling_is_recorded_and_billed_in_one_module():
    """A driver that samples locally calls ``record_sampling`` and
    ``charge_sampling``; a fourth copy of the rule fails here."""
    home = ROOT / "src/repro/distributed/instrument.py"
    found = {
        str(path.relative_to(ROOT)): sites
        for path in sorted((ROOT / "src").rglob("*.py"))
        if (sites := _billing_sites(ast.parse(path.read_text())))
    }
    assert {what for _, what in found.pop(str(home.relative_to(ROOT)))} == {
        "KERNELS_PER_LAYER", "CALL_OVERHEAD_S",
        "sample_bulk(..., spgemm_fn=...)",
    }
    assert found == {}
