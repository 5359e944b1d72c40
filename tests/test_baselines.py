"""Tests for the baseline partitioners: random, KL, FM, SA, spectral."""

import random

import pytest
from hypothesis import given, settings

from repro.baselines import (
    fiduccia_mattheyses,
    kernighan_lin,
    random_cut,
    simulated_annealing,
    spectral_bisection,
)
from repro.baselines.cutstate import CutState
from repro.baselines.simulated_annealing import AnnealingSchedule
from repro.bench import PINNED_SUITE, QUICK_SUITE
from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition
from repro.core.validation import brute_force_min_cut, check_bipartition
from repro.generators.difficult import planted_bisection
from repro.generators.random_hypergraph import random_hypergraph
from tests.conftest import hypergraphs


@pytest.fixture
def medium():
    rng = random.Random(99)
    h = Hypergraph(vertices=range(36))
    for _ in range(70):
        h.add_edge(rng.sample(range(36), rng.choice([2, 2, 3, 4])))
    return h


ALL_BASELINES = [
    ("random", lambda h, s: random_cut(h, num_starts=5, seed=s)),
    ("kl", lambda h, s: kernighan_lin(h, seed=s)),
    ("fm", lambda h, s: fiduccia_mattheyses(h, seed=s)),
    (
        "sa",
        lambda h, s: simulated_annealing(
            h, schedule=AnnealingSchedule(alpha=0.8, moves_per_temperature=50), seed=s
        ),
    ),
    ("spectral", lambda h, s: spectral_bisection(h, seed=s)),
]


class TestCommonContract:
    @pytest.mark.parametrize("name,runner", ALL_BASELINES)
    def test_valid_partition(self, medium, name, runner):
        result = runner(medium, 0)
        bp = result.bipartition
        assert bp.left | bp.right == set(medium.vertices)
        assert bp.left and bp.right
        check_bipartition(bp)

    @pytest.mark.parametrize("name,runner", ALL_BASELINES)
    def test_deterministic_with_seed(self, medium, name, runner):
        a = runner(medium, 7)
        b = runner(medium, 7)
        assert a.cutsize == b.cutsize
        assert a.bipartition == b.bipartition

    @pytest.mark.parametrize("name,runner", ALL_BASELINES)
    def test_rejects_tiny_input(self, name, runner):
        with pytest.raises(ValueError):
            runner(Hypergraph(vertices=["only"]), 0)

    @pytest.mark.parametrize("name,runner", ALL_BASELINES)
    def test_result_metadata(self, medium, name, runner):
        result = runner(medium, 0)
        assert result.iterations >= 1
        assert result.evaluations >= 0
        assert result.history
        assert result.cutsize == result.bipartition.cutsize


class TestRandomCut:
    def test_best_of_many_no_worse(self, medium):
        one = random_cut(medium, num_starts=1, seed=5)
        many = random_cut(medium, num_starts=30, seed=5)
        assert many.cutsize <= one.cutsize

    def test_history_monotone(self, medium):
        result = random_cut(medium, num_starts=10, seed=0)
        assert list(result.history) == sorted(result.history, reverse=True)

    def test_balanced(self, medium):
        result = random_cut(medium, num_starts=3, seed=0)
        assert result.bipartition.cardinality_imbalance <= 1

    def test_bad_starts(self, medium):
        with pytest.raises(ValueError):
            random_cut(medium, num_starts=0)


class TestKernighanLin:
    def test_improves_over_initial(self, medium):
        rng = random.Random(3)
        from repro.baselines.cutstate import random_balanced_sides

        left, right = random_balanced_sides(medium, rng)
        initial = Bipartition(medium, left, right)
        result = kernighan_lin(medium, initial=initial)
        assert result.cutsize <= initial.cutsize

    def test_swaps_preserve_balance(self, medium):
        result = kernighan_lin(medium, seed=1)
        assert result.bipartition.cardinality_imbalance <= 1

    def test_stops_on_no_improvement(self, medium):
        result = kernighan_lin(medium, seed=1, max_passes=50)
        assert result.iterations < 50  # converged early

    def test_shortlist_validation(self, medium):
        with pytest.raises(ValueError):
            kernighan_lin(medium, shortlist=0)

    def test_full_shortlist_at_least_as_good(self):
        """shortlist = n reproduces (or beats) the narrow shortlist."""
        rng = random.Random(4)
        h = Hypergraph(vertices=range(12))
        for _ in range(20):
            h.add_edge(rng.sample(range(12), 2))
        from repro.baselines.cutstate import random_balanced_sides

        left, _ = random_balanced_sides(h, random.Random(0))
        initial = Bipartition(h, left, set(h.vertices) - left)
        narrow = kernighan_lin(h, initial=initial, shortlist=1)
        wide = kernighan_lin(h, initial=initial, shortlist=12)
        assert wide.cutsize <= narrow.cutsize + 2  # wide explores more pairs

    def test_finds_planted_cut_small(self):
        inst = planted_bisection(40, 60, crossing_edges=1, seed=2)
        result = kernighan_lin(inst.hypergraph, seed=0)
        assert result.cutsize <= 6  # far below random (~25)


class TestFiducciaMattheyses:
    def test_refiner_never_worsens(self, medium):
        from repro.baselines.cutstate import random_balanced_sides

        left, right = random_balanced_sides(medium, random.Random(8))
        initial = Bipartition(medium, left, right)
        result = fiduccia_mattheyses(medium, initial=initial)
        assert result.cutsize <= initial.cutsize

    def test_balance_tolerance_respected(self, medium):
        result = fiduccia_mattheyses(medium, balance_tolerance=0.1, seed=0)
        assert result.bipartition.weight_imbalance_fraction <= 0.1 + 2.0 / 36

    def test_negative_tolerance_rejected(self, medium):
        with pytest.raises(ValueError):
            fiduccia_mattheyses(medium, balance_tolerance=-0.1)

    def test_fixed_vertices_never_move(self, medium):
        from repro.baselines.cutstate import random_balanced_sides

        left, right = random_balanced_sides(medium, random.Random(8))
        initial = Bipartition(medium, left, right)
        fixed = set(list(left)[:3]) | set(list(right)[:3])
        result = fiduccia_mattheyses(medium, initial=initial, fixed=fixed)
        for v in fixed:
            assert (v in result.bipartition.left) == (v in initial.left)

    def test_fixed_requires_initial(self, medium):
        with pytest.raises(ValueError):
            fiduccia_mattheyses(medium, fixed={0})

    def test_fixed_unknown_rejected(self, medium):
        from repro.baselines.cutstate import random_balanced_sides

        left, right = random_balanced_sides(medium, random.Random(8))
        with pytest.raises(ValueError):
            fiduccia_mattheyses(
                medium, initial=Bipartition(medium, left, right), fixed={"ghost"}
            )

    def test_gain_bucket_consistency(self, medium):
        """After a full FM run the final state must equal a fresh recount."""
        result = fiduccia_mattheyses(medium, seed=3)
        state = CutState(medium, result.bipartition.left)
        assert state.cutsize == result.cutsize

    def test_solves_small_planted(self):
        inst = planted_bisection(40, 60, crossing_edges=1, seed=5)
        result = fiduccia_mattheyses(inst.hypergraph, seed=0)
        assert result.cutsize <= 4


class TestSimulatedAnnealing:
    def test_respects_max_moves(self, medium):
        schedule = AnnealingSchedule(max_total_moves=500, moves_per_temperature=100)
        result = simulated_annealing(medium, schedule=schedule, seed=0)
        assert result.evaluations <= 3000  # gain+apply+penalty probes bounded

    def test_better_than_single_random(self, medium):
        sa = simulated_annealing(
            medium, schedule=AnnealingSchedule(alpha=0.9), seed=0
        )
        rand = random_cut(medium, num_starts=1, seed=0)
        assert sa.cutsize <= rand.cutsize

    def test_balance_tolerance_incumbent(self, medium):
        result = simulated_annealing(medium, balance_tolerance=0.15, seed=1)
        assert result.bipartition.weight_imbalance_fraction <= 0.35

    def test_explicit_initial_temperature(self, medium):
        schedule = AnnealingSchedule(initial_temperature=2.0, alpha=0.5, moves_per_temperature=20)
        result = simulated_annealing(medium, schedule=schedule, seed=0)
        assert result.iterations >= 1


class TestSpectral:
    def test_exact_bisection(self, medium):
        result = spectral_bisection(medium)
        assert result.bipartition.cardinality_imbalance <= 1

    def test_separates_planted_clusters(self):
        inst = planted_bisection(60, 90, crossing_edges=1, seed=1)
        result = spectral_bisection(inst.hypergraph)
        assert result.cutsize <= 8  # near the planted structure

    def test_handles_edgeless(self):
        h = Hypergraph(vertices=range(6))
        result = spectral_bisection(h)
        assert result.cutsize == 0

    def test_singleton_edges_ignored(self):
        h = Hypergraph(vertices=range(4), edges={"s": [0]})
        result = spectral_bisection(h)
        assert result.cutsize == 0


class TestAgainstOracle:
    @settings(max_examples=15, deadline=None)
    @given(hypergraphs(max_vertices=8, max_edges=8))
    def test_never_beat_brute_force_bisection(self, h):
        optimum = brute_force_min_cut(h).cutsize
        for _, runner in ALL_BASELINES[:3]:  # random, kl, fm
            assert runner(h, 0).cutsize >= optimum


class TestSpectralStability:
    """The canonicalized Fiedler order makes spectral cuts bit-stable.

    ``spectral`` sits in the bench harness's *exact* cut gate, so its
    partition must be a deterministic function of the hypergraph alone —
    independent of the Lanczos start vector (``seed``) at every size.
    """

    def test_sparse_path_is_start_vector_invariant(self):
        # The raw Lanczos eigenvector varies with v0; the canonical
        # order must not.
        h = random_hypergraph(650, 1000, seed=5, connect=True)
        results = [spectral_bisection(h, seed=s) for s in (0, 1, 2)]
        cuts = {r.cutsize for r in results}
        assert len(cuts) == 1
        sides = {frozenset(map(repr, r.bipartition.left)) for r in results}
        complements = {frozenset(map(repr, r.bipartition.right)) for r in results}
        # Identical up to the (sign-fixed) side labelling.
        assert len(sides) == 1 and len(complements) == 1

    def test_dense_path_is_run_to_run_stable(self):
        # Small instances take the same Lanczos path as large ones.
        h = random_hypergraph(200, 320, seed=9, connect=True)
        a = spectral_bisection(h, seed=0)
        b = spectral_bisection(h, seed=17)
        assert a.cutsize == b.cutsize
        assert set(a.bipartition.left) == set(b.bipartition.left)

    def test_canonical_order_fixes_sign_and_ties(self):
        import numpy as np

        from repro.baselines.spectral import _canonical_order

        fiedler = np.array([0.5, -0.5, 0.5, -0.5])
        order = list(_canonical_order(fiedler))
        flipped = list(_canonical_order(-fiedler))
        assert order == flipped
        # Ties (equal quantized values) sort by vertex index.
        tied = np.array([0.25, 0.25 + 1e-12, -0.25, -0.25 - 1e-12])
        assert list(_canonical_order(tied)) == [2, 3, 0, 1]


def _dense_fiedler(h):
    """Reference Fiedler vector: dense ``eigh`` of the explicit clique expansion."""
    import numpy as np

    vertices = sorted(h.vertices, key=repr)
    index = {v: i for i, v in enumerate(vertices)}
    adjacency = np.zeros((len(vertices), len(vertices)))
    for name, members in h.iter_edges():
        pins = [index[v] for v in members]
        if len(pins) < 2:
            continue
        w = h.edge_weight(name) / (len(pins) - 1)
        for a in pins:
            for b in pins:
                if a != b:
                    adjacency[a, b] += w
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    return np.linalg.eigh(laplacian)[1][:, 1]


class TestSpectralDifferential:
    """The matrix-free Lanczos path against a dense ``eigh`` reference.

    On connected instances the whole hypergraph is the straddling
    component, so the canonical order of the Lanczos Fiedler vector must
    equal the dense reference's exactly.
    """

    @pytest.mark.parametrize(
        "make",
        [c.materialize for c in PINNED_SUITE + QUICK_SUITE]
        + [lambda: (random_hypergraph(650, 1000, seed=5, connect=True), {})],
        ids=[c.name for c in PINNED_SUITE + QUICK_SUITE] + ["random650"],
    )
    def test_canonical_order_matches_dense_reference(self, make):
        from repro.baselines.spectral import (
            _canonical_order,
            _fiedler_vector,
            _pin_incidence,
        )

        h = make()[0]
        assert h.is_connected()
        incidence, scale = _pin_incidence(h, sorted(h.vertices, key=repr))
        fiedler, matvecs = _fiedler_vector(incidence, scale, random.Random(0))
        assert matvecs > 0
        assert list(_canonical_order(fiedler)) == list(_canonical_order(_dense_fiedler(h)))


class TestSpectralComponents:
    """Disconnected inputs: whole components placed, one split, seed-free."""

    @staticmethod
    def _three_blocks():
        h = Hypergraph()
        offset = 0
        for n, m, seed in ((400, 640, 3), (300, 480, 4), (250, 400, 5)):
            block = random_hypergraph(n, m, seed=seed)
            for v in block.vertices:
                h.add_vertex(v + offset)
            for _, members in block.iter_edges():
                h.add_edge([v + offset for v in members])
            offset += n
        return h

    def test_disconnected_cut_is_seed_independent(self):
        from repro import obs

        h = self._three_blocks()
        with obs.scoped() as reg:
            results = [spectral_bisection(h, seed=s) for s in range(4)]
        assert len({frozenset(r.bipartition.left) for r in results}) == 1
        for r in results:
            assert r.bipartition.cardinality_imbalance <= 1
            # Splitting this input by one global Fiedler order (seed-
            # dependent on disconnected inputs) cut 211-214 nets.
            assert r.cutsize <= 212
            assert r.iterations > 0
        assert reg.counter("baseline.spectral.components") == 4 * len(h.connected_components())
        assert reg.counter("baseline.spectral.matvecs") == sum(r.iterations for r in results)

    def test_component_boundary_at_median_needs_no_eigensolve(self):
        h = Hypergraph(edges={"a": [0, 1, 2], "b": [3, 4, 5]})
        result = spectral_bisection(h)
        assert result.cutsize == 0
        assert result.iterations == 0
