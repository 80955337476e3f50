import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsched import (
    Design,
    RandomWorkConserving,
    SimulationConfig,
    build_scheme,
    conservation_check,
    conservation_laws,
    design_to_scheme,
    overlap_profile,
    scheme_to_design,
    verify_t_design,
)
from fragsched.model import two_design_lambda
from fragsched.errors import (
    DuplicateReplicaOnServer,
    EmptyOccupancy,
    IdOutOfRange,
    InvalidParams,
    InvalidRate,
    NonUniformDesign,
)
from fragsched import model
from fragsched.constructions import affine_plane, cyclic_shift, projective_plane
from fragsched.scheduling import compile_policy
from oracles import count_t_subsets, pairwise_overlap_profile, useful_count


class TestBuildScheme:
    def test_fano_fragment_sets(self, fano):
        assert sorted(fano.fragments_on(1)) == [1, 2, 3]
        assert sorted(fano.fragments_on(2)) == [3, 4, 5]
        assert sorted(fano.fragments_on(7)) == [2, 4, 6]
        p = fano.params
        assert (p.B, p.V, p.R, p.K) == (7, 7, 3, 3)
        assert p.completely_utilizing
        assert p.alpha == Fraction(3, 7)

    def test_minimal_case(self):
        s = build_scheme([{1}])
        p = s.params
        assert (p.B, p.V, p.R, p.K) == (1, 1, 1, 1)
        assert p.completely_utilizing

    def test_duplicate_replica_rejected(self):
        with pytest.raises(DuplicateReplicaOnServer):
            build_scheme([[1, 1]])

    def test_empty_rejected(self):
        with pytest.raises(EmptyOccupancy):
            build_scheme([])
        with pytest.raises(EmptyOccupancy):
            build_scheme([set()])

    def test_bad_ids_rejected(self):
        with pytest.raises(IdOutOfRange):
            build_scheme([{0, 1}])
        with pytest.raises(IdOutOfRange):
            build_scheme([{1, 5}], B=3)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_rate_must_be_positive_and_finite(self, mu):
        with pytest.raises(IdOutOfRange, match="mu must be positive and finite"):
            build_scheme([{1, 2}, {2, 3}], mu=mu)

    def test_bad_rate_is_invalid_params_on_every_path(self):
        """A scheme and a Monte Carlo config refuse a NaN rate with one class,
        ``InvalidRate``: an ``InvalidParams``, and still an ``IdOutOfRange``."""
        occupancy = [{1, 2}, {2, 3}]
        with pytest.raises(InvalidParams) as scheme_error:
            build_scheme(occupancy, mu=float("nan"))
        with pytest.raises(InvalidParams) as config_error:
            SimulationConfig(build_scheme(occupancy), RandomWorkConserving(), float("nan"), 10, 1)
        for error in (scheme_error, config_error):
            assert type(error.value) is InvalidRate
            assert isinstance(error.value, IdOutOfRange)

    def test_bidirectional_consistency(self, fano):
        for v in range(1, fano.V + 1):
            for b in range(1, fano.B + 1):
                assert (b in fano.occupancy_of(v)) == (v in fano.fragments_on(b))

    def test_capacity_sum(self, fano):
        p = fano.params
        assert sum(len(s) for s in fano.fragment_sets) == p.V * p.R == p.B * p.K


@st.composite
def overlap_schemes(draw):
    """Schemes with B, V <= 40 and uneven server sizes; some repeat a
    server's fragment set, or put one fragment on every server."""
    B, V = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rnd = draw(st.randoms(use_true_random=False))
    sets = [set(rnd.sample(range(1, V + 1), rnd.randint(0, V))) for _ in range(B)]
    if B > 1 and draw(st.booleans()):
        sets[-1] = set(sets[0])
    if draw(st.booleans()):
        for s in sets:
            s.add(1)
    for v in range(1, V + 1):  # every fragment needs a holder
        if not any(v in s for s in sets):
            sets[rnd.randrange(B)].add(v)
    return build_scheme([{b for b, s in enumerate(sets, 1) if v in s} for v in range(1, V + 1)], B=B)


@st.composite
def complete_designs(draw):
    """Every K-subset of V <= 7 fragments as a server, each repeated up to
    three times: a 2-design with lambda = copies * C(V-2, K-2) when K >= 2.
    Some lose their last server, and with it the design, where every fragment
    keeps a holder."""
    V = draw(st.integers(1, 7))
    K = draw(st.integers(1, V))
    copies = draw(st.integers(1, 3))
    sets = [set(c) for c in itertools.combinations(range(1, V + 1), K)] * copies
    if draw(st.booleans()) and len(set().union(*sets[:-1])) == V:
        sets.pop()
    B = len(sets)
    return build_scheme([{b for b, s in enumerate(sets, 1) if v in s} for v in range(1, V + 1)], B=B)


class TestOverlapProfile:
    def test_fano_overlaps(self, fano):
        ov = overlap_profile(fano)
        assert ov.tau_max == 1 and ov.lambda_max == 1

    def test_cyclic_overlaps(self, cyclic73):
        ov = overlap_profile(cyclic73)
        assert ov.tau_max == 2 and ov.lambda_max == 2

    def test_histogram_totals(self, fano, cyclic73):
        for scheme in (fano, cyclic73):
            ov = overlap_profile(scheme)
            assert sum(ov.tau_histogram.values()) == 21  # C(7,2)
            assert sum(ov.lambda_histogram.values()) == 21

    def test_cyclic_overlap_spread(self, cyclic73):
        # each fragment set overlaps two others in 2, two in 1, two in 0
        sets = [set(s) for s in cyclic73.fragment_sets]
        for a in range(7):
            sizes = sorted(len(sets[a] & sets[b]) for b in range(7) if b != a)
            assert sizes == [0, 0, 1, 1, 2, 2]

    def test_single_fragment_convention(self):
        ov = overlap_profile(build_scheme([{1}]))
        assert ov.lambda_max == 0 and ov.tau_max == 0
        assert ov.lambda_histogram == {} and ov.tau_histogram == {}

    @settings(max_examples=200, deadline=None)
    @given(scheme=overlap_schemes(),
           block_bytes=st.one_of(st.just(model._PAIR_BLOCK_BYTES), st.integers(1, 40_000)))
    def test_equals_pairwise_oracle(self, scheme, block_bytes):
        # a small block budget splits even a 40-row side into many row blocks
        with mock.patch.object(model, "_PAIR_BLOCK_BYTES", block_bytes):
            assert overlap_profile(scheme) == pairwise_overlap_profile(scheme)

    @pytest.mark.parametrize("make", [
        lambda: build_scheme([{1, 2, 3}]),           # V = 1
        lambda: build_scheme([{1}, {1}, {1}]),       # B = 1
        lambda: projective_plane(11),                # both sides in two row blocks
        lambda: cyclic_shift(133, 12),
        lambda: build_scheme([{b for b in range(1, 131) if (b * v) % 7 < 1 + v % 5}
                              for v in range(1, 121)], B=130),
    ], ids=["V1", "B1", "pp11", "cyclic133", "uneven130x120"])
    def test_equals_pairwise_oracle_at_the_default_block_size(self, make):
        scheme = make()
        assert overlap_profile(scheme) == pairwise_overlap_profile(scheme)

    def test_cyclic_600_closed_form_within_a_mebibyte(self):
        # servers at cyclic distance d < 20 share 20 - d fragments, others none,
        # and likewise for fragments; 600 pairs sit at each distance 1..19
        scheme = cyclic_shift(600, 20)
        tracemalloc.start()
        try:
            ov = overlap_profile(scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        hist = {20 - d: 600 for d in range(1, 20)}
        hist[0] = 600 * 599 // 2 - 19 * 600
        assert ov == model.OverlapProfile(tau_max=19, lambda_max=19,
                                          tau_histogram=hist, lambda_histogram=hist)
        assert peak < 1 << 20


def useful_after(scheme, downloads) -> set[int]:
    """The 1-based useful servers after ``downloads``: the servers the
    decision rule gives a choice at that downloaded set."""
    mask = sum(1 << (v - 1) for v in downloads)
    return {b + 1 for b in compile_policy(scheme, RandomWorkConserving()).choices(mask)}


class TestDownloadState:
    """The useful servers of a download state, the set of fetched fragments."""

    def test_first_download_keeps_all_useful(self, fano):
        assert len(useful_after(fano, [1])) == 7

    def test_single_missing_fragment(self, fano):
        useful = useful_after(fano, range(1, 7))
        assert len(useful) == len(fano.occupancy_of(7)) == 3
        assert useful == set(fano.occupancy_of(7))

    def test_final_download_empties(self, fano):
        assert useful_after(fano, range(1, 8)) == set()

    def test_incremental_matches_scratch_exhaustive(self, fano, cyclic73):
        # every prefix of many download orders of small schemes
        for scheme in (fano, cyclic73):
            blocks = [set(s) for s in scheme.fragment_sets]
            rng = random.Random(7)
            orders = [rng.sample(range(1, 8), 7) for _ in range(40)]
            orders += [list(p) for p in itertools.islice(itertools.permutations(range(1, 8)), 200)]
            for order in orders:
                for ell in range(1, 8):
                    assert len(useful_after(scheme, order[:ell])) == useful_count(blocks, set(order[:ell]))

    def test_every_subset_matches_scratch(self, fano, cyclic73, pp2):
        # all 2^V downloaded subsets
        from fragsched import affine_plane

        for scheme in (fano, cyclic73, pp2, affine_plane(2)):
            blocks = [set(s) for s in scheme.fragment_sets]
            V = scheme.V
            for mask in range(1 << V):
                subset = [v + 1 for v in range(V) if mask >> v & 1]
                assert len(useful_after(scheme, subset)) == useful_count(blocks, set(subset))

    def test_any_order_ends_empty(self, fano):
        rng = random.Random(1)
        for _ in range(25):
            assert useful_after(fano, rng.sample(range(1, 8), 7)) == set()

    def test_useful_shrinks_monotonically(self, cyclic73):
        rng = random.Random(5)
        for _ in range(25):
            order = rng.sample(range(1, 8), 7)
            prev = useful_after(cyclic73, [])
            for ell in range(1, 8):
                useful = useful_after(cyclic73, order[:ell])
                assert useful <= prev
                prev = useful


class TestDesigns:
    def test_fano_is_2_design(self, pp2):
        design = scheme_to_design(pp2)
        assert verify_t_design(design, 2) == 1

    def test_cyclic_not_2_design(self, cyclic73):
        design = scheme_to_design(cyclic73)
        assert verify_t_design(design, 2) is None
        counts = count_t_subsets(7, [set(b) for b in design.blocks], 2)
        assert counts[(1, 2)] == 2 and counts[(1, 4)] == 0

    def test_single_full_block(self):
        d = Design(points=4, blocks=(frozenset({1, 2, 3, 4}),))
        assert verify_t_design(d, 1) == 1

    def test_agrees_with_subset_counter(self, pp2, fano, cyclic73):
        from fragsched import affine_plane

        for scheme in (pp2, fano, cyclic73, affine_plane(3)):
            design = scheme_to_design(scheme)
            blocks = [set(b) for b in design.blocks]
            for t in (1, 2, 3):
                got = verify_t_design(design, t)
                counts = count_t_subsets(design.points, blocks, t)
                vals = set(counts.values())
                uniform_sizes = len({len(b) for b in blocks}) == 1
                want = vals.pop() if len(vals) == 1 and uniform_sizes and t <= len(blocks[0]) else None
                if want == 0:
                    want = None
                assert got == want, (t, got, want)

    def test_two_design_lambda_from_overlaps_on_constructions(self, pp2, cyclic73):
        for scheme, want in ((pp2, 1), (projective_plane(3), 1), (affine_plane(3), 1),
                             (cyclic73, None)):
            got = two_design_lambda(scheme, overlap_profile(scheme))
            assert got == verify_t_design(scheme_to_design(scheme), 2) == want

    @settings(max_examples=200, deadline=None)
    @given(scheme=st.one_of(overlap_schemes(), complete_designs()))
    def test_two_design_lambda_matches_block_walk(self, scheme):
        got = two_design_lambda(scheme, overlap_profile(scheme))
        if not all(scheme.fragment_sets):
            assert got is None  # an empty server is no block of any design
        else:
            assert got == verify_t_design(scheme_to_design(scheme), 2)

    def test_conservation_pp2(self, pp2):
        design = scheme_to_design(pp2)
        assert conservation_check(design, 2, 1) == (True, True)

    def test_conservation_parametric(self):
        assert conservation_laws(4, 2, 4, 2) == (True, None)
        assert conservation_laws(3, 2, 4, 2) == (False, None)
        assert conservation_laws(12, 3, 9, 4, 2, 1) == (True, True)

    def test_conservation_nonuniform_raises(self):
        d = Design(points=3, blocks=(frozenset({1, 2}), frozenset({3})))
        with pytest.raises(NonUniformDesign):
            conservation_check(d)

    def test_roundtrip_identity(self, pp2):
        design = scheme_to_design(pp2)
        back = design_to_scheme(design)
        assert back.occupancy == pp2.occupancy
        assert back.fragment_sets == pp2.fragment_sets

    def test_duplicate_block_design(self, paired4):
        design = Design(points=4, blocks=tuple(frozenset(b) for b in ([{1, 3}, {2, 4}, {1, 3}, {2, 4}])))
        scheme = design_to_scheme(design)
        assert scheme.occupancy == paired4.occupancy
        assert scheme.occupancy_of(1) == scheme.occupancy_of(3) == frozenset({1, 3})

    def test_empty_design_rejected(self):
        with pytest.raises(EmptyOccupancy):
            Design(points=3, blocks=())

    def test_uncovered_point_rejected(self):
        d = Design(points=3, blocks=(frozenset({1, 2}),))
        with pytest.raises(EmptyOccupancy):
            design_to_scheme(d)

    def test_completely_utilizing_request(self):
        d = Design(points=3, blocks=(frozenset({1, 2}), frozenset({3})))
        with pytest.raises(NonUniformDesign):
            design_to_scheme(d, require_completely_utilizing=True)


def test_paired_layout_params(paired4):
    p = paired4.params
    assert (p.B, p.V, p.R, p.K) == (4, 4, 2, 2)
    assert p.completely_utilizing
    assert paired4.fragment_sets.count(frozenset({1, 3})) == 2
