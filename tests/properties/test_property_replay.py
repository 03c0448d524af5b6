"""Differential tests of the compiled cut replay against the Python walk.

Recovering the optimal partitions from Algorithm 1's ``cut`` slabs is a
stack walk from the root over the whole time span.  The ``numpy`` tier runs
it in Python (``SpatiotemporalAggregator._walk``, the reference); the ``c``
tier runs ``walk_int32`` of ``sweep.c`` through
:class:`~repro.core.kernels.CutReplay`.  The compiled replay's ``(value,
node, i, j)`` arrays must equal the Python walk's list element for element,
order included, so that ``quality`` and ``_recover`` get the very same
aggregates on both tiers.

Covered: random balanced and irregular hierarchies with random, tie-heavy
and homogeneous data, every registered operator, windowed models, batches of
one to five values, tables solved through a process pool (``jobs=3``), the
one-value ``HeightTables.at(q)`` views ``run_many`` recovers from, a planted
invalid cut (the same ``RuntimeError`` text on both tiers), and a library
without the replay, which the loader refuses.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.hierarchy import Hierarchy
from repro.core.microscopic import MicroscopicModel
from repro.core.operators import available_operators
from repro.core.spatiotemporal import SpatiotemporalAggregator, _trade_offs
from repro.trace.states import StateRegistry

from test_property_search import model_strategy

pytestmark = pytest.mark.skipif(
    "c" not in kernels.available_kernels(), reason="no C compiler: the c tier is unavailable"
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_PS = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=5
)


@st.composite
def windowed_models(draw):
    """A drawn model, or a window of it."""
    model = draw(model_strategy())
    start = draw(st.integers(min_value=0, max_value=model.n_slices - 1))
    stop = draw(st.integers(min_value=start + 1, max_value=model.n_slices))
    return model.window(start, stop) if (start, stop) != (0, model.n_slices) else model


def _tiers(model: MicroscopicModel, operator: str = "mean", jobs=None):
    """A ``numpy`` and a ``c`` aggregator over one statistics engine."""
    python = SpatiotemporalAggregator(model, operator=operator, kernel="numpy", jobs=jobs)
    compiled = SpatiotemporalAggregator(model, stats=python.stats, kernel="c", jobs=jobs)
    return python, compiled


def _assert_same_walk(python, compiled, tables) -> None:
    expected = python._walk(tables)
    replayed = compiled._replay(tables)
    assert replayed.dtype == np.intp and replayed.shape == (4, len(expected))
    assert [tuple(row) for row in replayed.T.tolist()] == expected


class TestCompiledReplay:
    @_SETTINGS
    @given(
        model=windowed_models(),
        operator=st.sampled_from(list(available_operators())),
        ps=_PS,
    )
    def test_batched_values_equal_the_python_walk(self, model, operator, ps):
        python, compiled = _tiers(model, operator)
        tables = compiled._compute(_trade_offs(ps), None)
        assert tables.n_ps == len(ps)
        _assert_same_walk(python, compiled, tables)
        assert compiled.quality(ps) == python.quality(ps)

    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(model=model_strategy(max_resources=10), ps=_PS)
    def test_tables_solved_in_a_pool(self, model, ps):
        python, compiled = _tiers(model, jobs=3)
        tables = compiled._compute(_trade_offs(ps), 3)
        _assert_same_walk(python, compiled, tables)

    @_SETTINGS
    @given(model=windowed_models(), ps=_PS)
    def test_one_value_views_of_run_many(self, model, ps):
        python, compiled = _tiers(model)
        seen = []
        partition = compiled.partition

        def spy(tables, p):
            seen.append(tables)
            return partition(tables, p)

        with mock.patch.object(compiled, "partition", spy):
            partitions = compiled.run_many(ps)
        assert len(seen) == len(ps)
        for tables in seen:
            assert tables.n_ps == 1
            _assert_same_walk(python, compiled, tables)
        assert partitions == python.run_many(ps)


def _planted_model() -> MicroscopicModel:
    rng = np.random.default_rng(11)
    rho = rng.integers(0, 3, size=(6, 7, 2)) / 4.0
    return MicroscopicModel.from_proportions(
        rho, Hierarchy.balanced(6, fanout=2), StateRegistry(["a", "b"])
    )


@pytest.mark.parametrize("bad", ["below", "beyond", "negative"])
def test_an_invalid_cut_raises_the_same_error_on_both_tiers(bad):
    python, compiled = _tiers(_planted_model())
    tables = compiled._compute(_trade_offs([0.4, 0.7, 0.9]), None)
    # Plant the bad cut on an aggregate of the last value, deep in its walk.
    q, node, i, j = python._walk(tables)[-1]
    assert q == 2
    cut = {"below": i - 1, "beyond": j + 1, "negative": -2}[bad]
    if cut == -1:  # i == 0: one below is the spatial cut, not an invalid value
        cut = -3
    height, slot = tables.plan.height[node], tables.plan.slot[node]
    tables.cut[height][q, slot, i, j] = cut
    errors = []
    for replay in (python._walk, compiled._replay):
        with pytest.raises(RuntimeError) as caught:
            replay(tables)
        errors.append(str(caught.value))
    name = python._node_arrays.nodes[node].name
    assert errors[0] == errors[1] == (
        f"invalid cut value {cut} for interval ({i}, {j}) on node {name!r}"
    )


def test_cut_slabs_of_another_plan_are_refused():
    python, compiled = _tiers(_planted_model())
    tables = compiled._compute(_trade_offs([0.5]), None)
    with pytest.raises(ValueError, match="int32 cut slabs"):
        compiled._cut_replay([slab.astype(np.int64) for slab in tables.cut])
    with pytest.raises(ValueError, match="int32 cut slabs"):
        compiled._cut_replay([slab[:, :1] for slab in tables.cut])
    with pytest.raises(ValueError, match="cut slabs, got"):
        compiled._cut_replay(tables.cut[:-1])


def test_a_library_without_the_replay_is_never_loaded(tmp_path):
    compiler = kernels._compiler()
    directory = tmp_path / "private"
    directory.mkdir(mode=0o700)
    libraries = {}
    for label, defines in (("complete", []), ("no-replay", ["-Dwalk_int32=walk_renamed"])):
        built = tmp_path / f"{label}.so"
        subprocess.run(
            [compiler, *kernels.C_FLAGS, *defines, "-x", "c", str(kernels._C_SOURCE),
             "-o", str(built)],
            check=True, timeout=300,
        )
        data = built.read_bytes()
        path = directory / f"sweep-{label}-{kernels._digest(data)}.so"
        Path(path).write_bytes(data)
        os.chmod(path, 0o755)
        libraries[label] = path
    assert isinstance(kernels._open(libraries["complete"]), kernels._Library)
    assert kernels._open(libraries["no-replay"]) is None
