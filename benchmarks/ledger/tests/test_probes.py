"""Probe arithmetic and patching: self time, identity, missing targets."""

import inspect
import sys

import pytest

from probes import PROBES, Tracer


class FakeClock:
    """Advances only when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.spend(3.0)

    leaf = tracer.wrap(leaf, "inner", "leaf")

    def middle():
        clock.spend(1.0)
        leaf()
        leaf()
        clock.spend(1.0)

    middle = tracer.wrap(middle, "mid", "middle", coarse=True)

    def root():
        clock.spend(0.5)
        middle()

    root = tracer.wrap(root, "outer", "root")
    root()

    assert tracer.stats["leaf"] == [2, 6.0, 6.0]
    assert tracer.stats["middle"] == [1, 2.0, 8.0]
    assert tracer.stats["root"] == [1, 0.5, 8.5]
    # Self times partition the root span: nothing counted twice or lost.
    assert sum(cell[1] for cell in tracer.stats.values()) == 8.5
    assert tracer.spans == [["middle", 0.5, 8.5, -1]]


def test_self_time_of_reentrant_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def recurse(depth):
        clock.spend(1.0)
        if depth:
            other(depth)

    def other(depth):
        clock.spend(0.25)
        recurse(depth - 1)

    recurse = tracer.wrap(recurse, "a", "recurse")
    other = tracer.wrap(other, "b", "other")
    recurse(2)

    # Three recurse spans nest inside each other; inclusive time counts
    # the inner ones again, self time must not.
    assert tracer.stats["recurse"][:2] == [3, 3.0]
    assert tracer.stats["other"][:2] == [2, 0.5]
    assert tracer.stats["recurse"][2] == 3.5 + 2.25 + 1.0


def test_span_closes_when_the_callable_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.spend(2.0)
        raise ValueError("x")

    boom = tracer.wrap(boom, "a", "boom")

    def root():
        with pytest.raises(ValueError):
            boom()
        clock.spend(1.0)

    root = tracer.wrap(root, "a", "root")
    root()
    assert tracer.stats["boom"] == [1, 2.0, 2.0]
    assert tracer.stats["root"] == [1, 1.0, 3.0]
    tracer.reset()  # the stack is empty again


def test_after_hook_counts_at_the_boundary():
    tracer = Tracer(clock=FakeClock())
    seen = tracer.wrap(
        lambda data: data * 2, "codec", "double",
        after=lambda tally, args, result: tally.__setitem__(
            "bytes", tally.get("bytes", 0) + len(result)
        ),
    )
    assert seen(b"abc") == b"abcabc"
    assert tracer.tallies["codec"] == {"bytes": 6}


def test_generator_functions_are_refused():
    def gen():
        yield 1

    with pytest.raises(TypeError, match="generator"):
        Tracer().wrap(gen, "a", "gen")


def _resolve_static(target: str):
    module_name, _, path = target.partition(":")
    module = sys.modules[module_name]
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        return inspect.getattr_static(getattr(module, owner_name), attr)
    return getattr(module, path)


def test_install_patches_and_uninstall_restores_by_identity():
    import repro.bgp.messages
    import repro.bgp.speaker
    import repro.experiments.runner  # noqa: F401 — load the whole tree

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        patched = {
            target: _resolve_static(target)
            for targets in PROBES.values() for target in targets
        }
        # `from repro.bgp.messages import decode_message` in the speaker
        # module holds its own reference: it must be patched too.
        assert repro.bgp.speaker.decode_message is repro.bgp.messages.decode_message
        assert hasattr(repro.bgp.speaker.decode_message, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for target, wrapper in patched.items():
        original = _resolve_static(target)
        assert original is not wrapper, target
        raw = getattr(wrapper, "__func__", wrapper)
        assert getattr(original, "__func__", original) is raw.__wrapped__, target
    assert not hasattr(repro.bgp.speaker.decode_message, "__wrapped__")
    assert repro.bgp.speaker.decode_message is repro.bgp.messages.decode_message


def test_missing_target_nulls_its_layer_and_nothing_else():
    probes = {
        "bgp.policy": ("repro.bgp.policy:Policy.apply",),
        "bgp.rib": (
            "repro.bgp.rib:LocRib.get",
            "repro.bgp.rib:LocRib.no_such_method",
        ),
        "gone": ("repro.no_such_module:function",),
    }
    tracer = Tracer()
    tracer.install(probes)
    try:
        assert tracer.missing == [
            "repro.bgp.rib:LocRib.no_such_method",
            "repro.no_such_module:function",
        ]
        table = tracer.layer_table(probes)
        assert table["bgp.rib"] is None and table["gone"] is None
        assert table["bgp.policy"] == {"calls": 0, "self_s": 0.0}
    finally:
        tracer.uninstall()


def test_probed_run_counts_calls_and_matches_unprobed_result():
    from repro.benchmark import run_scenario
    from repro.systems import build_system

    plain = run_scenario(build_system("pentium3"), 1, table_size=30).to_jsonable()
    tracer = Tracer()
    tracer.install()
    try:
        probed = run_scenario(build_system("pentium3"), 1, table_size=30).to_jsonable()
    finally:
        tracer.uninstall()
    assert probed == plain
    table = tracer.layer_table()
    assert table["benchmark.harness"]["calls"] >= 1
    assert tracer.tallies["bgp.speaker"]["updates_in"] == 30
    assert tracer.tallies["forwarding"]["fib_ops"] == 30
    assert table["sim.cpu"]["self_s"] > 0
