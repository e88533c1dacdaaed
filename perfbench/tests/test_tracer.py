import random

import pytest

from tracer import Tracer, covered, min_samples, percentile, self_time


def test_self_time_without_children_is_span_time():
    assert self_time(2.0, 5.0, []) == 3.0


def test_nested_children_are_not_subtracted_twice():
    # (2, 3) lies inside (1, 8): the union covers 7, not 8.
    assert self_time(0.0, 10.0, [(1.0, 8.0), (2.0, 3.0)]) == 3.0


def test_overlapping_children_count_their_union():
    assert covered(0.0, 10.0, [(3.0, 7.0), (1.0, 5.0), (6.0, 9.0)]) == 8.0
    assert self_time(0.0, 10.0, [(3.0, 7.0), (1.0, 5.0), (6.0, 9.0)]) == 2.0


def test_children_are_clipped_to_the_span():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class Box:
    def __init__(self, tracer):
        self.tracer = tracer

    def outer(self):
        self.a()
        self.b()

    def a(self):
        pass

    def b(self):
        self.c()

    def c(self):
        pass


def test_tracer_self_time_of_nested_calls():
    # outer [0, 10], a [1, 3], b [4, 8], c inside b [5, 6]
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    box = Box(tracer)
    for name in ("outer", "a", "b", "c"):
        tracer.wrap(box, name, name)
    box.outer()
    self_s = {name: layer.self_s for name, layer in tracer.layers.items()}
    assert self_s == {"outer": 4.0, "a": 2.0, "b": 3.0, "c": 1.0}
    assert tracer.span_self_s() == 10.0
    tracer.restore()
    assert "outer" not in vars(box)


def test_class_patches_are_restored():
    original = Box.a
    tracer = Tracer()
    tracer.wrap(Box, "a", "a")
    assert Box.a is not original
    Box(tracer).a()
    tracer.restore()
    assert Box.a is original
    assert tracer.layers["a"].calls == 1


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples(0.99) == 1000
    assert min_samples(0.5) == 20
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(1, 21)), 0.5) == 10


def test_summary_reports_max_when_tail_is_thin_and_zero_when_unused():
    tracer = Tracer()
    layer = tracer.layer("x")
    layer.durations.extend([1e-6 * i for i in range(1, 101)])
    layer.calls = 100
    summary = tracer.summary("x", reps=2)
    assert summary["calls"] == 50
    assert summary["p99_us"] == pytest.approx(100.0)  # max of 100 samples
    assert summary["p50_us"] == pytest.approx(50.0)
    assert tracer.summary("unused", reps=1) == {
        "calls": 0.0, "self_s": 0.0, "p50_us": 0.0, "p99_us": 0.0,
    }


def random_tree(rng, depth=0):
    """A call-tree node: (layer, children)."""
    width = rng.randrange(3) if depth < 3 else 0
    return (rng.randrange(4), [random_tree(rng, depth + 1) for _ in range(width)])


def nodes(node):
    yield node
    for child in node[1]:
        yield from nodes(child)


def clock_reads(node):
    """Nodes in the order the tracer reads the clock: entry, children, exit."""
    yield node
    for child in node[1]:
        yield from clock_reads(child)
    yield node


class Layers:
    def call(self, node):
        for child in node[1]:
            getattr(self, f"l{child[0]}")(child)

    l0 = l1 = l2 = l3 = call


def test_tracer_matches_the_reference_arithmetic_on_random_call_trees():
    rng = random.Random(4)
    for _ in range(20):
        root = random_tree(rng)
        reads = list(clock_reads(root))
        times = sorted(rng.uniform(0, 100) for _ in reads)
        spans = {}
        for t, node in zip(times, reads):
            spans.setdefault(id(node), []).append(t)
        expected = [0.0] * 4
        for node in nodes(root):
            children = [spans[id(child)] for child in node[1]]
            expected[node[0]] += self_time(*spans[id(node)], children)

        tracer = Tracer(clock=FakeClock(times))
        layers = Layers()
        for k in range(4):
            tracer.wrap(layers, f"l{k}", f"l{k}")
        getattr(layers, f"l{root[0]}")(root)
        for k in range(4):
            assert tracer.layers[f"l{k}"].self_s == pytest.approx(expected[k], abs=1e-9)
