"""Property-based differential tests for the DP kernel tiers and mmap models.

The contract behind ``repro … --kernel``: every kernel tier of
:mod:`repro.core.kernels` computes the *same* Algorithm 1 recurrence
**bit-for-bit** — no tolerances — for every registered operator, from the
raw sweep level (random upper-triangular tables) up through tables,
partitions and serialized analysis payloads.  Wherever a C compiler builds
the compiled ``c`` tier, it joins every differential automatically; its raw
sweep is also diffed on NaN, ±inf, ±0 and subnormal cells (as int64 bit
patterns), int32 and int64 counts and non-contiguous slabs, and each of its
compiled loops (``scalar``, and ``avx2`` where the CPU runs it) is diffed on
its own, by name, on slabs of up to 44 slices (every cell length on both
sides of the loops' vector block edges).

The height-batched sweep — one kernel call over the ``(N, T, T)`` slab of
every node of one hierarchy height — is checked against the per-cell
reference on irregular hierarchies (leaves at different depths, single-child
chains, a lone root) down to ``T = 1``, serially and through the process
pool, and at the sweep level against one call per node.

A second family checks the zero-copy model path: a store's persisted,
``np.load(mmap_mode="r")``-backed model must be bit-identical to the
directly discretized model, and ``window`` / ``extend`` / ``from_columns``
must produce the same bits whether their input model is mmap-backed or
in-memory.
"""

from __future__ import annotations

import dataclasses
import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import kernels
from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.kernels import (
    available_kernels,
    temporal_cuts,
    temporal_cuts_c,
    temporal_cuts_numpy,
)
from repro.core.microscopic import MicroscopicModel, MicroscopicModelError
from repro.core.partition import Partition
from repro.core.criteria import IntervalStatistics
from repro.core.operators import available_operators
from repro.core.spatial import aggregate_spatial
from repro.core.spatiotemporal import SpatiotemporalAggregator
from repro.core.temporal import aggregate_temporal
from repro.pipeline.payloads import (
    analysis_payload,
    run_analysis,
    serialize_payload,
    trace_summary,
)
from repro.trace.states import StateRegistry
from repro.trace.synthetic import random_trace

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every tier runnable here: numpy, and the compiled c tier wherever it builds.
TIERS = available_kernels()

needs_c = pytest.mark.skipif("c" not in TIERS, reason="no C compiler: the c tier is unavailable")

#: The compiled sweep loops this CPU runs (``scalar``, and ``avx2`` where it runs).
RUNNABLE_LOOPS = tuple(kernels._loaded_c_library().loops) if "c" in TIERS else ()


def _bound(loop: str):
    """Patch the ``c`` tier so that ``loop`` is the compiled loop it calls."""
    library = kernels._loaded_c_library()
    return mock.patch.object(
        kernels, "_C_LIBRARY", dataclasses.replace(library, loops={loop: library.loops[loop]})
    )


def model_strategy(max_resources: int = 8, max_slices: int = 10, max_states: int = 3):
    """Random microscopic models with a balanced hierarchy."""

    @st.composite
    def build(draw):
        n_resources = draw(st.integers(min_value=2, max_value=max_resources))
        n_slices = draw(st.integers(min_value=2, max_value=max_slices))
        n_states = draw(st.integers(min_value=1, max_value=max_states))
        fanout = draw(st.sampled_from([2, 3]))
        raw = draw(
            arrays(
                dtype=np.float64,
                shape=(n_resources, n_slices, n_states),
                elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            )
        )
        totals = raw.sum(axis=2, keepdims=True)
        scale = np.where(totals > 1.0, totals, 1.0)
        rho = raw / scale
        hierarchy = Hierarchy.balanced(n_resources, fanout=fanout)
        states = StateRegistry([f"s{i}" for i in range(n_states)])
        return MicroscopicModel.from_proportions(rho, hierarchy, states)

    return build()


def sweep_inputs(max_size: int = 12):
    """Random finalized-diagonal DP tables: (best, count) ready for a sweep."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_size))
        values = draw(
            arrays(
                dtype=np.float64,
                shape=(n, n),
                elements=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
            )
        )
        counts = draw(
            arrays(
                dtype=np.int64,
                shape=(n, n),
                elements=st.integers(min_value=1, max_value=50),
            )
        )
        # Only the upper triangle is meaningful DP state; counts stay >= 1.
        return np.triu(values).copy(), counts

    return build()


def _run_sweep(sweep, best, count, epsilon, **kwargs):
    b, c = best.copy(), count.copy()
    cut = np.zeros(best.shape, dtype=np.int64)
    sweep(b, cut, c, epsilon, **kwargs)
    return b, cut, c


#: Cell values that stress the float compares of the sweep loops: NaN, ±inf,
#: both zeros, subnormals (the smallest, and one near the normal range) and
#: values that repeat, so candidates tie.
SPECIAL_VALUES = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.5e-308, 0.5, -1.0)


def special_sweep_inputs(max_size: int = 10):
    """Sweep inputs with special (NaN, ±inf, ±0, subnormal, tied) cells, int32 or int64 counts."""

    @st.composite
    def build(draw):
        best, counts = draw(sweep_inputs(max_size))
        n = best.shape[0]
        # None keeps the drawn value; the others overwrite it.
        specials = draw(
            st.lists(
                st.sampled_from([*SPECIAL_VALUES, None]),
                min_size=n * n, max_size=n * n,
            )
        )
        for cell, value in enumerate(specials):
            if value is not None:
                best[divmod(cell, n)] = value
        dtype = draw(st.sampled_from([np.int32, np.int64]))
        return np.triu(best), counts.astype(dtype)

    return build()


def long_sweep_inputs(max_size: int = 44):
    """``(N, T, T)`` slabs of up to ``max_size`` slices, int32 or int64 counts.

    A table of ``T`` slices has cells of every length from 1 to ``T - 1``,
    so a drawn ``T`` puts cell lengths on both sides of every vector block
    edge below it (the compiled loops read candidates in blocks of four and
    eight); small sizes around those edges are drawn often.  Values are
    uniform, quantized to a fine or a coarse step (ties among some or most
    candidates) or all zero (every candidate tied, as in a homogeneous
    trace), with :data:`SPECIAL_VALUES` planted at a drawn rate; counts are
    small, or large enough that their sums wrap.  Drawn from a seed, so long
    slabs stay cheap to generate.
    """

    @st.composite
    def build(draw):
        n = draw(st.one_of(
            st.integers(min_value=2, max_value=max_size),
            st.sampled_from([3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 17]),
        ))
        n_nodes = draw(st.integers(min_value=1, max_value=3))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        best = rng.uniform(-4.0, 4.0, (n_nodes, n, n))
        step = draw(st.sampled_from([None, 0.25, 2.0, 0.0]))
        if step == 0.0:
            best[...] = 0.0
        elif step is not None:
            best = np.round(best / step) * step
        planted = rng.random(best.shape) < draw(st.sampled_from([0.0, 0.02, 0.2]))
        best[planted] = rng.choice(np.array(SPECIAL_VALUES), int(planted.sum()))
        dtype = draw(st.sampled_from([np.int32, np.int64]))
        high = np.iinfo(dtype).max // 2 + 2 if draw(st.booleans()) else 50
        count = rng.integers(1, high, best.shape, dtype=dtype)
        return np.triu(best), count

    return build()


def _bits(tables):
    """Tables as comparable integers (float cells as their int64 bit patterns)."""
    return [
        (table.dtype.str, np.ascontiguousarray(table).view(np.int64).tolist())
        if table.dtype == np.float64
        else (table.dtype.str, table.tolist())
        for table in tables
    ]


class TestRawSweepDifferential:
    """The sweep level: identical tables from identical inputs, no tolerances."""

    @needs_c
    @_SETTINGS
    @given(data=sweep_inputs(), epsilon=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
    def test_c_matches_numpy(self, data, epsilon):
        best, count = data
        reference = _run_sweep(temporal_cuts_numpy, best, count, epsilon)
        compiled = _run_sweep(temporal_cuts_c, best, count, epsilon)
        assert _bits(compiled) == _bits(reference)

    @needs_c
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=special_sweep_inputs(), epsilon=st.sampled_from([0.0, 1e-9, 1e-3]))
    def test_c_matches_numpy_bits_on_nan_inf_and_ties(self, data, epsilon):
        best, count = data
        cut = np.zeros(best.shape, dtype=count.dtype)
        reference = [best.copy(), cut.copy(), count.copy()]
        compiled = [best.copy(), cut.copy(), count.copy()]
        with np.errstate(invalid="ignore"):
            temporal_cuts_numpy(*reference, epsilon)
        temporal_cuts_c(*compiled, epsilon)
        assert _bits(compiled) == _bits(reference)

    @needs_c
    @pytest.mark.parametrize(
        "loop",
        [
            pytest.param(
                loop,
                marks=pytest.mark.skipif(
                    loop not in RUNNABLE_LOOPS, reason=f"this CPU does not run the {loop} loop"
                ),
            )
            for loop in kernels.C_LOOPS
        ],
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=long_sweep_inputs(), epsilon=st.sampled_from([0.0, 1e-9, 1e-3]))
    def test_each_compiled_loop_matches_numpy_bits_on_long_slabs(self, loop, data, epsilon):
        # Every compiled loop is diffed on its own, called by name, so a
        # host that binds the vector loop still checks the scalar one.
        best, count = data
        cut = np.zeros(best.shape, dtype=count.dtype)
        reference = [best.copy(), cut.copy(), count.copy()]
        compiled = [best.copy(), cut.copy(), count.copy()]
        with np.errstate(invalid="ignore", over="ignore"):
            temporal_cuts_numpy(*reference, epsilon)
        with _bound(loop):
            temporal_cuts_c(*compiled, epsilon)
        assert _bits(compiled) == _bits(reference)

    @needs_c
    @_SETTINGS
    @given(
        tables=st.lists(sweep_inputs(max_size=8), min_size=2, max_size=3),
        layout=st.sampled_from(["fortran", "strided", "transposed-nodes"]),
        cut_dtype=st.sampled_from([np.int16, np.int32, np.int64]),
        count_dtype=st.sampled_from([np.int16, np.int32, np.int64]),
    )
    def test_c_on_non_contiguous_slabs_and_other_dtypes(
        self, tables, layout, cut_dtype, count_dtype
    ):
        # Views that are not C-contiguous are copied in and back; int16
        # counts run the numpy tier.  Either way the caller's arrays end up
        # with the numpy tier's bits.
        size = min(b.shape[0] for b, _ in tables)
        best = np.stack([b[:size, :size] for b, _ in tables])
        count = np.stack([c[:size, :size] for _, c in tables]).astype(count_dtype)
        cut = np.zeros(best.shape, dtype=cut_dtype)
        reference = [best.copy(), cut.copy(), count.copy()]
        temporal_cuts_numpy(*reference, 1e-9)

        def lay_out(table):
            if layout == "fortran":
                return np.asfortranarray(table)
            if layout == "strided":
                wide = np.zeros(table.shape[:-1] + (2 * size,), dtype=table.dtype)
                view = wide[..., ::2]
                view[...] = table
                return view
            nodes_last = np.ascontiguousarray(np.moveaxis(table, 0, -1))
            return np.moveaxis(nodes_last, -1, 0)

        compiled = [lay_out(table) for table in (best, cut, count)]
        assert not any(table.flags.c_contiguous for table in compiled)
        temporal_cuts_c(*compiled, 1e-9)
        assert _bits(compiled) == _bits(reference)


class TestKernelTiersEndToEnd:
    """Tables, partitions and payloads agree across tiers for every operator."""

    @_SETTINGS
    @given(
        model=model_strategy(),
        operator=st.sampled_from(list(available_operators())),
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_tables_identical_for_every_operator(self, model, operator, p):
        base = SpatiotemporalAggregator(model, operator=operator, kernel=TIERS[0])
        reference = base.compute_tables(p)
        for tier in TIERS[1:]:
            other = SpatiotemporalAggregator(
                model, stats=base.stats, kernel=tier
            ).compute_tables(p)
            assert reference.keys() == other.keys()
            for key in reference:
                assert np.array_equal(reference[key].pic, other[key].pic), tier
                assert np.array_equal(reference[key].cut, other[key].cut), tier
                assert np.array_equal(reference[key].count, other[key].count), tier

    @_SETTINGS
    @given(
        model=model_strategy(),
        operator=st.sampled_from(list(available_operators())),
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_partitions_and_payloads_identical(self, model, operator, p):
        summary = trace_summary(
            "digest", 1, model.n_resources, len(model.states), 0.0, 1.0, {}
        )
        params = {"p": p, "slices": model.n_slices, "operator": operator}
        payloads = []
        partitions = []
        for tier in TIERS:
            aggregator = SpatiotemporalAggregator(model, operator=operator, kernel=tier)
            result = run_analysis(model, p, aggregator=aggregator)
            partitions.append(
                [
                    (a.node.leaf_start, a.node.leaf_end, a.i, a.j)
                    for a in result.partition.aggregates
                ]
            )
            payloads.append(
                serialize_payload(analysis_payload(summary, result, params))
            )
        for tier, partition, payload in zip(TIERS[1:], partitions[1:], payloads[1:]):
            assert partition == partitions[0], tier
            assert payload == payloads[0], tier


def irregular_model_strategy(max_leaves: int = 8, max_slices: int = 8, max_states: int = 3):
    """Random models over random trees, not only balanced ones.

    A drawn tree shape is a leaf (``None``) or a list of one to three
    subtrees, so leaves sit at different depths, one-element lists make
    single-child chains, and a bare ``None`` is a hierarchy whose root is its
    only leaf.  ``T`` goes down to a single slice.
    """
    shapes = st.recursive(
        st.none(), lambda sub: st.lists(sub, min_size=1, max_size=3), max_leaves=max_leaves
    )

    def tree(shape) -> Hierarchy:
        names = (f"n{i}" for i in itertools.count())

        def node(sub) -> HierarchyNode:
            if sub is None:
                return HierarchyNode(next(names))
            return HierarchyNode(next(names), [node(child) for child in sub])

        return Hierarchy(node(shape))

    @st.composite
    def build(draw):
        hierarchy = tree(draw(shapes))
        n_slices = draw(st.integers(min_value=1, max_value=max_slices))
        n_states = draw(st.integers(min_value=1, max_value=max_states))
        raw = draw(
            arrays(
                dtype=np.float64,
                shape=(hierarchy.n_leaves, n_slices, n_states),
                elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            )
        )
        totals = raw.sum(axis=2, keepdims=True)
        rho = raw / np.where(totals > 1.0, totals, 1.0)
        states = StateRegistry([f"s{i}" for i in range(n_states)])
        return MicroscopicModel.from_proportions(rho, hierarchy, states)

    return build()


def _assert_same_tables(expected, actual, label=""):
    assert expected.keys() == actual.keys()
    for key in expected:
        assert np.array_equal(expected[key].pic, actual[key].pic), (label, key)
        assert np.array_equal(expected[key].cut, actual[key].cut), (label, key)
        assert np.array_equal(expected[key].count, actual[key].count), (label, key)


class TestHeightBatchedSweep:
    """One sweep per hierarchy height equals the per-cell Algorithm 1."""

    @_SETTINGS
    @given(
        model=irregular_model_strategy(),
        operator=st.sampled_from(list(available_operators())),
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_batched_tables_equal_reference_for_every_operator_and_tier(
        self, model, operator, p
    ):
        stats = SpatiotemporalAggregator(model, operator=operator).stats
        reference = SpatiotemporalAggregator(model, stats=stats).compute_tables_reference(p)
        for tier in TIERS:
            batched = SpatiotemporalAggregator(model, stats=stats, kernel=tier)
            _assert_same_tables(reference, batched.compute_tables(p), tier)

    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        model=irregular_model_strategy(max_leaves=10),
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_parallel_subtrees_equal_serial(self, model, p):
        aggregator = SpatiotemporalAggregator(model)
        _assert_same_tables(
            aggregator.compute_tables(p, jobs=1), aggregator.compute_tables(p, jobs=3)
        )

    @_SETTINGS
    @given(
        model=irregular_model_strategy(),
        operator=st.sampled_from(list(available_operators())),
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        built=st.sets(st.integers(min_value=0, max_value=30)),
    )
    def test_gathered_partition_totals_equal_per_aggregate_sums(
        self, model, operator, p, built
    ):
        # The optimal partition scored by its own (fully built) tables, by a
        # statistics engine with only some nodes' tables built, and the
        # spatial/temporal baselines' partitions, whose engines built none.
        partition = SpatiotemporalAggregator(model, operator=operator).run(p)
        partial = IntervalStatistics(model, operator)
        for node in model.hierarchy.iter_nodes():
            if node.index in built:
                partial.tables(node)
        candidates = [
            partition,
            Partition(partition.aggregates, model, stats=partial, validate=False),
            aggregate_spatial(model, p, operator=operator),
            aggregate_temporal(model, p, operator=operator),
        ]
        for candidate in candidates:
            stats = candidate.stats
            points = [stats.gain_loss_at(a.node, a.i, a.j) for a in candidate.aggregates]
            assert candidate.gain().hex() == float(sum(g for g, _ in points)).hex()
            assert candidate.loss().hex() == float(sum(l for _, l in points)).hex()

    @_SETTINGS
    @given(data=sweep_inputs(), epsilon=st.sampled_from([1e-9, 1e-6, 1e-3]))
    def test_two_dimensional_input_is_a_one_node_slab(self, data, epsilon):
        best, count = data
        flat = _run_sweep(temporal_cuts_numpy, best, count, epsilon)
        slab = _run_sweep(temporal_cuts_numpy, best[np.newaxis], count[np.newaxis], epsilon)
        for two_d, one_node in zip(flat, slab):
            assert np.array_equal(two_d, one_node[0])

    @_SETTINGS
    @given(
        tables=st.lists(sweep_inputs(max_size=8), min_size=2, max_size=4),
        epsilon=st.sampled_from([1e-9, 1e-3]),
        budget=st.sampled_from([0, 200, kernels.SWEEP_BATCH_BYTES]),
    )
    def test_slab_sweep_equals_one_sweep_per_node(self, tables, epsilon, budget):
        # Crop the drawn tables to the smallest so they stack into a slab; a
        # budget of 0 or 200 bytes forces node chunks inside every length.
        size = min(b.shape[0] for b, _ in tables)
        best = np.stack([b[:size, :size] for b, _ in tables])
        count = np.stack([c[:size, :size] for _, c in tables])
        for tier in TIERS:
            with mock.patch.object(kernels, "SWEEP_BATCH_BYTES", budget):
                slab = _run_sweep(temporal_cuts, best, count, epsilon, kernel=tier)
            for n in range(len(tables)):
                single = _run_sweep(temporal_cuts_numpy, best[n], count[n], epsilon)
                for whole, one in zip(slab, single):
                    assert np.array_equal(whole[n], one), tier


class TestMmapModelParity:
    """mmap-backed store models behave bit-identically to in-memory ones."""

    @_SETTINGS
    @given(
        n_resources=st.integers(min_value=2, max_value=6),
        gen_slices=st.integers(min_value=3, max_value=8),
        n_slices=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_store_model_matches_direct_discretization(
        self, n_resources, gen_slices, n_slices, seed
    ):
        from repro.store import save_store

        trace = random_trace(
            n_resources=n_resources, n_slices=gen_slices, n_states=3, seed=seed
        )
        direct = MicroscopicModel.from_trace(trace, n_slices=n_slices)
        direct.cumulative_tables()
        from repro.store import open_store

        with tempfile.TemporaryDirectory() as tmp:
            store = save_store(trace, Path(tmp) / "t.rtz")
            store.model(n_slices)  # cold build publishes the cache
            mapped = open_store(store.path).model(n_slices)  # warm mmap load
            assert isinstance(mapped.durations, np.memmap)
            assert np.array_equal(mapped.durations, direct.durations)
            assert np.array_equal(mapped.slicing.edges, direct.slicing.edges)
            for left, right in zip(
                mapped.cumulative_tables(), direct.cumulative_tables()
            ):
                assert np.array_equal(left, right)

    @_SETTINGS
    @given(
        n_resources=st.integers(min_value=2, max_value=6),
        n_slices=st.integers(min_value=4, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_window_and_extend_parity_on_mmap_models(
        self, n_resources, n_slices, seed, data
    ):
        from repro.store import save_store

        trace = random_trace(
            n_resources=n_resources, n_slices=n_slices, n_states=3, seed=seed
        )
        direct = MicroscopicModel.from_trace(trace, n_slices=n_slices)
        direct.cumulative_tables()
        from repro.store import open_store

        with tempfile.TemporaryDirectory() as tmp:
            store = save_store(trace, Path(tmp) / "t.rtz")
            store.model(n_slices)
            mapped = open_store(store.path).model(n_slices)
            assert isinstance(mapped.durations, np.memmap)

            start = data.draw(st.integers(min_value=0, max_value=n_slices - 2))
            stop = data.draw(st.integers(min_value=start + 1, max_value=n_slices))
            win_mapped = mapped.window(start, stop)
            win_direct = direct.window(start, stop)
            assert np.array_equal(win_mapped.durations, win_direct.durations)
            for left, right in zip(
                win_mapped.cumulative_tables(), win_direct.cumulative_tables()
            ):
                assert np.array_equal(left, right)

            # Appended tail rows: the streaming counterpart of from_columns.
            n_rows = data.draw(st.integers(min_value=1, max_value=4))
            end = float(mapped.slicing.edges[-1])
            width = float(mapped.slicing.edges[1] - mapped.slicing.edges[0])
            offsets = sorted(
                data.draw(
                    st.lists(
                        st.floats(min_value=0.0, max_value=2.0 * width),
                        min_size=n_rows, max_size=n_rows,
                    )
                )
            )
            starts = np.array([end + o for o in offsets])
            ends = starts + width / 2
            resource_ids = np.array(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=n_resources - 1),
                        min_size=n_rows, max_size=n_rows,
                    )
                ),
                dtype=np.int64,
            )
            state_ids = np.array(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=2),
                        min_size=n_rows, max_size=n_rows,
                    )
                ),
                dtype=np.int64,
            )
            try:
                ext_direct = direct.extend(starts, ends, resource_ids, state_ids)
            except MicroscopicModelError:
                # Drawn rows may overlap on one resource and overfill a
                # slice; that input is invalid, and both models must reject it.
                with pytest.raises(MicroscopicModelError):
                    mapped.extend(starts, ends, resource_ids, state_ids)
                return
            ext_mapped = mapped.extend(starts, ends, resource_ids, state_ids)
            assert np.array_equal(ext_mapped.durations, ext_direct.durations)
            assert np.array_equal(
                ext_mapped.slicing.edges, ext_direct.slicing.edges
            )
            for left, right in zip(
                ext_mapped.cumulative_tables(), ext_direct.cumulative_tables()
            ):
                assert np.array_equal(left, right)
