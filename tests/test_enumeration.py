"""Lazy wavenumber ordering against the brute-force oracle."""

import io
import itertools
import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneapprox import (
    AlgebraicDecay,
    StreamExhausted,
    TableDecay,
    WavenumberStream,
    WeightModel,
    brute_force_order,
    write_prefix_csv,
)
from coneapprox import enumeration

from conftest import random_model, scratch_stream


def _model_2d():
    return WeightModel(
        dimension=2, coordinate_weights=(1.0, 0.5), decay=AlgebraicDecay(2.0)
    )


def test_first_six_entries():
    got = WavenumberStream(_model_2d()).prefix(6)
    assert got == [
        ((0, 0), 1.0),
        ((1, 0), 1.0),
        ((0, 1), 0.5),
        ((1, 1), 0.5),
        ((2, 0), 0.25),
        ((0, 2), 0.125),
    ]


def test_single_axis_order():
    model = WeightModel(dimension=1, coordinate_weights=(1.0,), decay=AlgebraicDecay(2.0))
    got = WavenumberStream(model).prefix(4)
    assert [k for k, _ in got] == [(0,), (1,), (2,), (3,)]
    assert [lam for _, lam in got] == [1.0, 1.0, 0.25, pytest.approx(1.0 / 9.0)]


def test_symmetric_head_is_unit_cube():
    model = WeightModel(
        dimension=3, coordinate_weights=(1.0, 1.0, 1.0), decay=AlgebraicDecay(2.0)
    )
    got = WavenumberStream(model).prefix(8)
    assert sorted(k for k, _ in got) == sorted(
        (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
    )
    assert all(lam == 1.0 for _, lam in got)


def test_monotone_weights_long_run(rng):
    model = random_model(rng, max_dim=3)
    prev = float("inf")
    count = 0
    for _, lam in WavenumberStream(model):
        assert lam <= prev
        prev = lam
        count += 1
        if count >= 100_000:
            break


def test_ties_break_lexicographically():
    stream = WavenumberStream(_model_2d())
    entries = stream.prefix(40)
    for (ka, la), (kb, lb) in zip(entries, entries[1:]):
        assert la > lb or (la == lb and ka < kb)


def test_replay_determinism(rng):
    for _ in range(5):
        model = random_model(rng)
        assert scratch_stream(model).prefix(500) == scratch_stream(model).prefix(500)


def test_stream_matches_brute_force(rng):
    box_for_dim = {1: 400, 2: 40, 3: 16, 4: 12}
    for _ in range(10):
        model = random_model(rng)
        count = 300
        box = box_for_dim[model.dimension]
        while True:
            try:
                oracle = brute_force_order(model, box, count)
                break
            except ValueError:
                box *= 2
        assert WavenumberStream(model).prefix(count) == oracle


def test_brute_force_matches_a_plain_scan(rng):
    # the vectorised box scan against a loop over WeightModel.weight: same
    # weights bit for bit, same order
    checked = 0
    for _ in range(20):
        model = random_model(rng, max_dim=3)
        box = rng.randint(1, 6)
        scan = [(k, model.weight(k)) for k in itertools.product(range(box + 1), repeat=model.dimension)]
        ranked = sorted(((k, lam) for k, lam in scan if lam > 0.0), key=lambda e: (-e[1], e[0]))
        for count in (1, len(ranked) // 2 or 1, len(ranked)):
            try:
                got = brute_force_order(model, box, count)
            except ValueError:
                continue  # the box cannot certify that many entries
            assert got == ranked[:count]
            checked += 1
    assert checked >= 40


def test_brute_force_first_entry_is_origin(rng):
    model = random_model(rng)
    assert brute_force_order(model, 3, 1)[0][0] == (0,) * model.dimension


def test_brute_force_single_axis_values():
    model = WeightModel(dimension=1, coordinate_weights=(1.0,), decay=AlgebraicDecay(2.0))
    got = brute_force_order(model, 4, 5)
    assert [k for k, _ in got] == [(0,), (1,), (2,), (3,), (4,)]
    assert got[2][1] == 0.25
    assert got[4][1] == pytest.approx(1.0 / 16.0)


def test_brute_force_certifies_across_the_shell():
    # the cut entry sits on the box face yet still dominates everything outside
    model = WeightModel(dimension=1, coordinate_weights=(1.0,), decay=AlgebraicDecay(2.0))
    got = brute_force_order(model, 4, 5)
    assert [lam for _, lam in got] == [1.0, 1.0, 0.25, pytest.approx(1.0 / 9.0), 0.0625]


def test_brute_force_rejects_boundary_tie():
    # the weight just outside the box ties the cut weight: not certifiable
    model = WeightModel(
        dimension=1, coordinate_weights=(1.0,), decay=TableDecay((1.0, 0.5, 0.5), 0.5)
    )
    with pytest.raises(ValueError):
        brute_force_order(model, 2, 3)


def test_brute_force_rejects_undersized_box():
    model = WeightModel(
        dimension=2, coordinate_weights=(1.0, 1.0), decay=AlgebraicDecay(2.0)
    )
    with pytest.raises(ValueError):
        brute_force_order(model, 1, 5)  # box holds four entries only


def test_exhaustion_on_finite_support():
    # truncated decay and one dead coordinate leave 3 x 1 live wavenumbers
    model = WeightModel(
        dimension=2, coordinate_weights=(1.0, 0.0), decay=TableDecay((1.0, 0.5), 0.0)
    )
    stream = WavenumberStream(model)
    entries = list(stream)
    assert [k for k, _ in entries] == [(0, 0), (1, 0), (2, 0)]
    assert stream.prefix(10) == entries  # prefix shortens at exhaustion
    with pytest.raises(StreamExhausted):
        stream.entry(3)


def test_weight_buffer_matches_entries(rng):
    model = random_model(rng)
    stream = WavenumberStream(model)
    weights, rows = stream.weights(300), stream.rows(300)
    assert weights.tolist() == [lam for _, lam in stream.prefix(300)]
    assert rows.dtype == np.int32
    assert [tuple(k) for k in rows.tolist()] == [k for k, _ in stream.prefix(300)]
    with pytest.raises(ValueError):
        weights[0] = 0.0  # read-only view
    with pytest.raises(ValueError):
        rows[0, 0] = 1
    finite = WavenumberStream(
        WeightModel(dimension=2, coordinate_weights=(1.0, 0.0), decay=TableDecay((1.0, 0.5), 0.0))
    )
    assert finite.weights(10).tolist() == [1.0, 1.0, 0.5]  # shorter at exhaustion
    grown = WavenumberStream(_model_2d())
    assert len(grown.weights(64)) == 64
    before = grown.rows(64)
    assert len(grown.weights(65)) == 65
    after = grown.rows(5000)  # far past the first bands: the buffer is reallocated
    assert after.shape == (5000, 2) and not after.flags.writeable
    assert not np.shares_memory(before, after)
    assert (after[:64] == before).all()  # a view from before it still reads the same rows


def test_algebraic_factors_are_the_decay_values_bit_for_bit(rng):
    from coneapprox.enumeration import _factors

    for _ in range(20):
        model = random_model(rng, min_rate=0.3)
        for axis, w in enumerate(model.coordinate_weights):
            lo = rng.randint(1, 5000)
            want = [w * model.decay.value(k) for k in range(lo, lo + 300)]
            got = _factors(model, axis, lo, lo + 300)
            assert [x.hex() for x in got] == [x.hex() for x in want]


def test_zero_weights_never_emitted(rng):
    model = WeightModel(
        dimension=3,
        coordinate_weights=(1.0, 0.0, 0.4),
        decay=AlgebraicDecay(2.0),
    )
    for k, lam in WavenumberStream(model).prefix(200):
        assert lam > 0.0
        assert k[1] == 0


def test_csv_dump_path(tmp_path):
    target = tmp_path / "prefix.csv"
    rows = write_prefix_csv(_model_2d(), 4, str(target))
    assert rows == 4
    lines = target.read_text().splitlines()
    assert lines[0] == "k_1,k_2,lambda"
    assert lines[1] == "0,0,1.0"
    assert len(lines) == 5


def test_csv_dump_file_object():
    buf = io.StringIO()
    rows = write_prefix_csv(_model_2d(), 3, buf)
    assert rows == 3
    assert buf.getvalue().splitlines()[0] == "k_1,k_2,lambda"


def test_csv_dump_stops_at_exhaustion(tmp_path):
    model = WeightModel(
        dimension=1, coordinate_weights=(1.0,), decay=TableDecay((1.0,), 0.0)
    )
    target = tmp_path / "short.csv"
    rows = write_prefix_csv(model, 100, str(target))
    assert rows == 2  # origin plus degree one


def _reference(model, count):
    box = 8
    while True:
        try:
            return brute_force_order(model, box, count)
        except ValueError:
            box *= 2


# w * s(1) > 1 on some axis: a child outweighs its parent there
_BOOSTED = (
    WeightModel(1, (2.5,), AlgebraicDecay(2.0)),
    WeightModel(2, (1.8, 0.6), AlgebraicDecay(3.0), (1.0, 0.7, 0.5)),
    WeightModel(3, (0.5, 3.0, 1.2), TableDecay((1.0, 0.6, 0.3), 0.4)),
    # a large boost on the last axis lifts partials that weigh less than the threshold
    WeightModel(3, (0.5, 0.4, 8.0), AlgebraicDecay(4.0)),
)


@pytest.mark.parametrize("model", _BOOSTED)
def test_boosted_models_match_brute_force(model):
    assert max(w * model.head_decay() for w in model.coordinate_weights) > 1.0
    assert WavenumberStream(model).prefix(2000) == _reference(model, 2000)


@st.composite
def _stream_models(draw):
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("boosted", "truncated", "dead", "tied")))
    if kind == "tied":
        # equal coordinate weights and equal interaction weights: wide weight ties
        w = (draw(st.sampled_from((0.5, 1.0))),) * d
        gamma = (1.0,) + (draw(st.floats(0.3, 1.0)),) * d
    else:
        high = 2.5 if kind == "boosted" else 1.0
        w = [draw(st.floats(0.05, high)) for _ in range(d)]
        if kind == "dead":
            w[draw(st.integers(0, d - 1))] = 0.0
        gamma = [1.0]
        for _ in range(d):
            gamma.append(gamma[-1] * draw(st.floats(0.3, 1.0)))
    if kind == "truncated":
        values = [1.0]
        for r in draw(st.lists(st.floats(0.05, 1.0), max_size=4)):
            values.append(values[-1] * r)
        decay = TableDecay(tuple(values), 0.0)
    else:
        decay = AlgebraicDecay(draw(st.floats(2.5, 5.0)))
    return WeightModel(d, tuple(w), decay, tuple(gamma))


@settings(max_examples=80, deadline=5000)
@given(model=_stream_models(), count=st.integers(1, 300))
def test_stream_matches_brute_force_property(model, count):
    assert WavenumberStream(model).prefix(count) == _reference(model, count)


def test_interleaved_requests_across_bands(rng):
    # many small requests cut the stream into other bands than one large one
    for model in (_model_2d(), _BOOSTED[2], random_model(rng, max_dim=3)):
        whole = WavenumberStream(model).prefix(3000)
        stream = scratch_stream(model)
        served = 0
        for step in range(150):
            n = min(rng.randrange(20 * step + 2), len(whole))
            kind = step % 4
            if kind == 0 and n < len(whole):
                assert stream.entry(n) == whole[n]
                served = max(served, n + 1)
            elif kind == 1:
                assert stream.prefix(n) == whole[:n]
                served = max(served, n)
            elif kind == 2:
                assert stream.weights(n).tolist() == [lam for _, lam in whole[:n]]
                served = max(served, n)
            else:
                assert [tuple(k) for k in stream.rows(n).tolist()] == [k for k, _ in whole[:n]]
                served = max(served, n)
            assert stream.emitted_count == served


def test_exhaustion_exactly_at_the_last_positive_weight():
    model = WeightModel(2, (1.0, 0.5), TableDecay((1.0, 0.5, 0.25), 0.0), (1.0, 0.8, 0.6))
    live = _reference(model, 100)
    assert len(live) == 16  # degrees 0..3 on both axes
    stream = WavenumberStream(model)
    assert stream.entry(15) == live[15]
    with pytest.raises(StreamExhausted):
        stream.entry(16)
    assert stream.prefix(100) == live
    assert len(stream.weights(17)) == 16
    assert stream.emitted_count == 16


def test_exhaustion_at_the_least_subnormal_weight():
    # a geometric tail 0.5**(k-1) underflows to zero past k = 1075
    model = WeightModel(1, (1.0,), TableDecay((1.0,), 0.5))
    entries = list(WavenumberStream(model))
    assert len(entries) == 1076
    assert entries[-1] == ((1075,), 5e-324)
    assert entries == brute_force_order(model, 1100, 2000)


def test_subnormal_band_edges_are_checked_exactly():
    # past the geometric tail's underflow the weights are subnormal, where a
    # widened threshold no longer covers rounding: the widened estimate alone
    # drops the last of these 1,387 wavenumbers
    model = WeightModel(
        1, (0.8121518081097744,), TableDecay((1.0,), 0.5846019374111061), (1.0, 0.3441747753213965)
    )
    entries = list(WavenumberStream(model))
    assert len(entries) == 1387
    assert entries == brute_force_order(model, 1500, 2000)


def test_a_tie_wider_than_the_request_is_taken_whole():
    # every wavenumber of {0, 1}^11 weighs 1: no threshold splits the 2,048
    # ties, so the band search collapses onto the tie and takes all of it
    model = WeightModel(11, (1.0,) * 11, TableDecay((1.0,), 0.0))
    assert WavenumberStream(model).prefix(32) == brute_force_order(model, 1, 32)


def test_a_slowly_decaying_axis_table_is_grown_in_capped_steps():
    # s(k) = k**-0.05 falls so slowly that reaching a threshold would take an
    # axis table past a band's candidate limit: the scan aborts and retries
    model = WeightModel(2, (1.0, 1.0), AlgebraicDecay(0.05))
    assert WavenumberStream(model).prefix(3000) == brute_force_order(model, 500, 3000)


def _fresh_stream_models(d, count, seed):
    """Models shaped like the benchmark workloads': decreasing interaction weights, rates 3 to 5."""
    rng = random.Random(seed)
    models = []
    for _ in range(count):
        gamma = [1.0]
        for _ in range(d):
            gamma.append(gamma[-1] * rng.uniform(0.5, 1.0))
        w = tuple(rng.uniform(0.2, 1.0) for _ in range(d))
        models.append(WeightModel(d, w, AlgebraicDecay(rng.uniform(3.0, 5.0)), tuple(gamma)))
    return models


@pytest.mark.parametrize("d", (1, 4))
def test_fresh_streams_match_brute_force_on_short_prefixes(d):
    # a fresh stream starts from shared read-only arrays; its first bands, its
    # entries served one at a time and its count must be the exhaustive order's
    for model in _fresh_stream_models(d, 6, seed=d):
        want = _reference(model, 200)
        for count in (1, 7, 32, 200):
            assert scratch_stream(model).prefix(count) == want[:count]
        stream = scratch_stream(model)
        for index, entry in enumerate(want):
            assert stream.entry(index) == entry
            assert stream.emitted_count == index + 1
        assert [tuple(k) for k in stream.rows(200).tolist()] == [k for k, _ in want]
        assert stream.weights(200).tolist() == [lam for _, lam in want]


def test_a_stream_goes_on_from_the_snapshot_of_an_equal_model():
    # the stream that last finished a band hands its enumeration on to the next
    # stream built over an equal model; the two then grow one buffer, each
    # writing only the entries both emit there
    model = _BOOSTED[2]
    want = _reference(model, 1500)
    first = scratch_stream(model)
    held = first.weights(100)
    assert first.prefix(100) == want[:100]
    equal = WeightModel(model.dimension, model.coordinate_weights, model.decay, model.interaction_weights)
    second = WavenumberStream(equal)
    assert second.model is equal and second.emitted_count == 0
    assert len(second.enumerated()) == len(first.enumerated()) >= 100  # nothing enumerated again
    for stream, count in ((second, 600), (first, 300), (second, 1200), (first, 1500), (second, 1500)):
        assert stream.prefix(count) == want[:count]
        assert stream.emitted_count == count
    assert second.entry(1499) == want[1499]
    assert held.tolist() == [lam for _, lam in want[:100]]
    # a stream over another model starts from scratch
    assert len(WavenumberStream(_model_2d()).enumerated()) == 0


def test_a_snapshot_of_an_exhausted_stream_serves_as_the_stream(monkeypatch):
    model = WeightModel(2, (1.0, 0.5), TableDecay((1.0, 0.5, 0.25), 0.0), (1.0, 0.8, 0.6))
    live = _reference(model, 100)
    assert scratch_stream(model).prefix(100) == live
    stream = WavenumberStream(model)
    assert len(stream.enumerated()) == 16 and stream.emitted_count == 0
    assert stream.entry(15) == live[15]
    with pytest.raises(StreamExhausted):
        stream.entry(16)
    assert stream.prefix(100) == live
    # past _SHARED_MAX entries a stream hands nothing on
    monkeypatch.setattr(enumeration, "_SHARED_MAX", 0)
    assert scratch_stream(model).prefix(100) == live
    stream = WavenumberStream(model)
    assert len(stream.enumerated()) == 0
    assert stream.prefix(100) == live


def test_a_stream_grown_past_the_limit_is_no_longer_handed_on(monkeypatch):
    model = _model_2d()
    want = _reference(model, 2000)
    first = scratch_stream(model)
    assert first.prefix(10) == want[:10]
    monkeypatch.setattr(enumeration, "_SHARED_MAX", len(first.enumerated()))
    assert len(WavenumberStream(model).enumerated()) == len(first.enumerated())  # handed on
    assert first.prefix(2000) == want
    fresh = WavenumberStream(model)
    assert len(fresh.enumerated()) == 0
    assert fresh.prefix(2000) == want
