"""The benchmark's tracer wraps package functions by module attribute; a
refactor that drops one of those call sites fails here, not in a traced
benchmark run."""

from conftest import perfbench_module


def test_every_traced_call_site_exists():
    patches = perfbench_module("tracing").PATCHES
    assert len(patches) >= 12
    for module, attr, span, _ in patches:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
