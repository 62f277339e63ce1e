"""The benchmark's own tests, run as one Tier-1 case.

`perfbench/tests` checks the benchmark's contract against the package: its
tracer wraps the module-level names through which the layers call each other
(`interval.multiply`, `interval.left_divides`, `interval.length`, ...), and
asserts, among others, that a build makes 2 |G| divisor tests.  Both test
directories import from their own `conftest`, so they cannot be collected in
one session; the suite runs in a subprocess instead.
"""

import ast
import importlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def test_tracer_patches_only_names_that_exist():
    """Every `t.patch(<module>, "<name>", ...)` in perfbench/tracing.py names
    an attribute that the package module has, so a name dropped from a
    module fails here rather than only in traced runs.  The tracer is read
    with `ast`, never imported."""
    with open(os.path.join(ROOT, "perfbench", "tracing.py")) as handle:
        tree = ast.parse(handle.read())
    modules = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "geen_garside"
        for alias in node.names
    }
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "patch"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "t"
    ]
    assert calls
    missing = []
    for call in calls:
        module, name = call.args[:2]
        assert isinstance(module, ast.Name) and module.id in modules, ast.dump(call)
        assert isinstance(name, ast.Constant) and isinstance(name.value, str), ast.dump(call)
        if not hasattr(importlib.import_module(modules[module.id]), name.value):
            missing.append(f"{modules[module.id]}.{name.value}")
    assert not missing, f"perfbench/tracing.py patches missing names: {missing}"


def test_pair_calls_reach_an_instance_spy(monkeypatch):
    """perfbench/tracing.py counts normalize_pair calls through a wrapper
    set on each GarsideStructure instance, so a fresh structure must hold
    none of the wrapped methods as instance attributes, and the cascade
    must reach normalize_pair through the instance.  A spy on the class
    and one on the instance see the same calls, some of which change
    their pair, from every entry point: normal_form, nf_product and
    nf_right_quotient."""
    from geen_garside import build_garside, cached_interval
    from geen_garside.garside import GarsideStructure

    g = build_garside(cached_interval(4, 4, 2))
    traced = ("normalize_pair", "normalize_factors", "normal_form", "nf_product")
    assert not set(traced) & set(vars(g))

    honest = GarsideStructure.normalize_pair
    on_class = []

    def class_spy(self, a, b):
        out = honest(self, a, b)
        on_class.append(out[0] != a)
        return out

    monkeypatch.setattr(GarsideStructure, "normalize_pair", class_spy)
    bound = g.normalize_pair
    on_instance = []

    def instance_spy(a, b):
        on_instance.append((a, b))
        return bound(a, b)

    g.normalize_pair = instance_spy
    nf = g.normal_form("t1 t0 s3 t2^-1 s4 t1 s3^-1 t3")
    assert g.is_left_greedy(nf)
    assert any(on_class)
    assert len(on_instance) == len(on_class)
    other = g.normal_form("s4^-1 t3 t2 s3 t1^-1 t0 s4")
    quotient = lambda: g.nf_right_quotient(nf, other.factors[0])
    for entry in (lambda: g.nf_product(nf, other), quotient):
        on_class.clear()
        on_instance.clear()
        assert g.is_left_greedy(entry())
        assert any(on_class)
        assert len(on_instance) == len(on_class)
