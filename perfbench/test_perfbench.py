"""Tests of the benchmark itself: span arithmetic, reference oracles, wrapping.

Run with ``python3 -m pytest -q perfbench`` from the root of a checkout.
"""

import io
import json
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Each reading advances by the next step, so span times are exact."""

    def __init__(self, steps):
        self.steps = iter(steps)
        self.now = 0.0

    def __call__(self):
        self.now += next(self.steps)
        return self.now


# -- spans ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    tr = spans.Tracer(clock=lambda: 0.0)
    for name, parent, start, end in [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 1, 2.0, 3.0),
        ("d", 0, 5.0, 9.0),
    ]:
        tr.name.append(tr.name_id(name))
        tr.parent.append(parent)
        tr.item.append(0)
        tr.start.append(start)
        tr.end.append(end)
        tr.flags.append(0)
    assert tr.self_times() == [3.0, 2.0, 1.0, 4.0]


def test_wrapped_calls_nest_and_self_times_add_up():
    # outer: open@1, inner open@2 close@5, close@9 -> outer 8 s, inner 3 s
    tr = spans.Tracer(clock=FakeClock([1, 1, 3, 4]))

    def inner():
        return "x"

    inner_w = tr.wrap(inner, "m.inner")

    def outer():
        return inner_w()

    outer_w = tr.wrap(outer, "m.outer")
    assert outer_w() == "x"
    assert list(tr.parent) == [-1, 0]
    assert tr.self_times() == [5.0, 3.0]
    tot = tr.totals({"outer_s": {"m.outer"}, "inner_s": {"m.inner"}})
    assert tot["calls"] == {"m.outer": 1, "m.inner": 1}
    assert tot["group_s"] == {"outer_s": 8.0, "inner_s": 3.0}


def test_group_time_is_not_counted_twice_for_nested_members():
    tr = spans.Tracer(clock=FakeClock([1, 1, 1, 1]))
    leaf = tr.wrap(lambda: None, "m.check_b")
    top = tr.wrap(lambda: leaf(), "m.check_a")
    top()
    tot = tr.totals({"laws_s": {"m.check_a", "m.check_b"}})
    assert tot["group_s"]["laws_s"] == 3.0


def test_generator_spans_cover_only_resumptions():
    tr = spans.Tracer(clock=FakeClock([1] * 20))
    seen = []

    def gen(k):
        yield from range(k)

    wrapped = tr.wrap(gen, "m.gen", hook=lambda t, sid, args, count: seen.append(count))
    consumer = tr.wrap(lambda: [v for v in wrapped(3)], "m.consumer")
    assert consumer() == [0, 1, 2]
    assert seen == [3]
    names = [tr.names[i] for i in tr.name]
    assert names == ["m.consumer"] + ["m.gen"] * 4  # 3 items and the final stop
    tot = tr.totals({})
    assert tot["calls"] == {"m.consumer": 1, "m.gen": 1}
    assert tot["self_s"]["m.gen"] == 4.0
    assert sum(tr.self_times()) == tr.end[0] - tr.start[0]


def test_failed_calls_are_counted_and_reraised():
    tr = spans.Tracer(clock=FakeClock([1, 1]))

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tr.wrap(boom, "m.boom")()
    assert tr.totals({})["failed"] == {"m.boom": 1}


# -- oracles --------------------------------------------------------------------


def chain_rows(n):
    return [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)]


def boolean_rows(k):
    n = 1 << k
    return [sum(1 << j for j in range(n) if i & j == i) for i in range(n)]


def random_rows(rng, n, density):
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


def test_known_counts():
    assert len(oracles.upper_sets(boolean_rows(4))) == 168
    assert len(oracles.upper_sets(chain_rows(7))) == 8
    assert len(oracles.upper_sets([1 << i for i in range(10)])) == 1 << 10
    assert len(oracles.aux_relations(chain_rows(5))) == oracles.catalan(5) == 42
    assert [oracles.catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert [len(oracles.labeled_posets(n)) for n in range(1, 5)] == [1, 3, 19, 219]


def test_exhaustive_campaign_reference():
    assert oracles.exhaustive_campaign(4) == workloads.CampaignExhaustive.KNOWN


def test_upper_sets_match_literal_definition():
    rng = random.Random(3)
    for n in range(1, 9):
        up = random_rows(rng, n, 0.3)
        literal = [m for m in range(1 << n) if oracles.is_upper_literal(up, m)]
        assert oracles.upper_sets(up) == literal


def test_aux_relations_match_literal_axioms():
    for n in range(1, 4):
        for up in oracles.labeled_posets(n):
            pairs = oracles.order_pairs(up)
            literal = set()
            for choice in product((0, 1), repeat=len(pairs)):
                sec = [0] * n
                for (i, j), bit in zip(pairs, choice):
                    if bit:
                        sec[j] |= 1 << i
                if oracles.is_aux_literal(up, sec):
                    literal.add(tuple(sec))
            found = oracles.aux_relations(up)
            assert len(found) == len(set(found))
            assert set(found) == literal


def test_lap_uap_references_on_a_chain():
    up = chain_rows(3)
    pairs = [(0, 0), (0, 1), (0, 2), (1, 2)]
    sec = oracles.sections(3, pairs)
    a = 0b110  # {1, 2}
    assert oracles.lap(sec, a) == 0b100
    assert oracles.uap(up, sec, a) == 0b111
    assert oracles.uap(up, sec, 0) == 0


def test_classify_reference():
    up = chain_rows(3)
    assert oracles.classify(up, oracles.down_rows(up)) == (True, True)
    assert oracles.classify(up, [0b001, 0b001, 0b001]) == (True, False)
    assert oracles.classify([1, 2], [0, 0]) == (False, False)


def test_query_sizes_cover_each_range_evenly():
    schedules = {
        (10, 18): workloads.UPPER_NS, (8, 14): workloads.SCOTT_NS,
        (1, 16): workloads.AUX_PAIRS, (6, 10): workloads.ONE_STEP_NS,
        (10, 20): workloads.LAP_UAP_NS, (1, 12): workloads.WINDOW_MS,
    }
    for (lo, hi), sizes in schedules.items():
        counts = Counter(sizes)
        assert sorted(counts) == list(range(lo, hi + 1))
        assert max(counts.values()) - min(counts.values()) <= 1


def test_a_wrong_answer_is_caught_by_its_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    lib = workloads.Library(HERE.parent / "src")
    p = lib.poset.boolean(2)
    right = oracles.upper_sets(p.up)
    assert workloads._disagreement("upper_sets", p, 6, workloads._summary("upper_sets", right)) is None
    wrong = workloads._summary("upper_sets", right[:-1] + [right[-1] ^ 1])
    assert workloads._disagreement("upper_sets", p, 6, wrong) is not None
    raised = workloads._summary("aux", ValueError("refused"))
    assert workloads._disagreement("aux", p, None, raised) == "raised ValueError"


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 0.5) == 500
    assert run.percentile(values, 0.99) == 990
    assert run.percentile([7.0], 0.99) == 7.0


# -- whole runs -----------------------------------------------------------------


def _library_functions():
    out = {}
    for name, mod in sys.modules.items():
        if name == "orderlab" or name.startswith("orderlab."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[f"{name}.{attr}"] = value
    return out


def _main(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(argv) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.fixture
def one_round(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "untraced_items_per_s", lambda args: 1.0)


def _benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_untraced_run_wraps_nothing(one_round):
    argv = ["--workload", "queries-large", "--seed", "5", "--seconds", "0", "--trace", "0"]
    result = _main(argv)
    assert result["correct"] and result["attempted"] == workloads.ROUND
    funcs = _library_functions()
    assert funcs and not [k for k, v in funcs.items() if spans.is_traced(v)]
    names = [m["name"] for m in _benchmark_json()["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_traced_run_restores_every_function(one_round, tmp_path):
    argv = ["--workload", "queries-large", "--seed", "5", "--seconds", "0", "--trace", "1",
            "--spans-out", str(tmp_path / "spans.bin")]
    result = _main(argv)
    assert result["correct"]
    assert spans.traced_functions() == []
    metrics = result["metrics"]
    assert metrics["poset.calls"]["value"] > 0
    assert metrics["topology.opens"]["value"] > 0
    assert metrics["families.window_s"]["value"] > 0
    assert metrics["approx.adjunction_s"]["value"] == 0
    header = (tmp_path / "spans.bin").read_bytes().split(b"\n", 1)[0]
    assert json.loads(header)["spans"] == metrics["trace.spans"]["value"]


def test_benchmark_json_lists_every_per_layer_metric():
    doc = _benchmark_json()
    listed = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert listed == layers.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_host_clock_runs_slower_when_the_probe_does():
    import hostclock

    # construction at 0; a tick starting at 10 whose probe takes 1 ms,
    # twice the nominal 0.5 ms; then a reading at 12
    walls = iter([0.0, 10.0, 10.0, 10.001, 12.0])
    clock = hostclock.HostClock(wall=lambda: next(walls))
    clock._tick(None, None)
    assert clock.now() == pytest.approx(10.0 + (12.0 - 10.001) * 0.5)
    assert clock.slowdown() == pytest.approx(2.0)
