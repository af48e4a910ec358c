import json
import math
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mdrcv import model
from mdrcv.errors import ValidationError
from mdrcv.model import (
    CDF_BLOCK,
    CDF_CHUNK,
    MAX_LEVEL,
    MAX_RECORDS,
    Dataset,
    FactorSpace,
    FactorSubset,
    JointDistribution,
    PenaltyFunction,
    cell_conditionals,
    cylinder_codes,
    cylinder_masses,
    label_marginal,
    load_distribution,
    point_levels,
    sample,
    save_distribution,
    _atom_index,
    _guide_table as model_guide_table,
    _real,
)
from mdrcv.estimator import DEFAULT_SCHEDULE, EpsilonSchedule, dataset_counts, fold_index
from mdrcv.mcverify import run_replications
from mdrcv.oracle import subset_oracle
from mdrcv.scenarios import PRESETS, generate_scenario, scenario_a
from mdrcv.search import enumerate_subsets

from conftest import grid_reference, reference_cdf, small_distributions


class TestFactorSpace:
    def test_point_count(self):
        assert FactorSpace(3, 2).num_points == 27

    def test_enumeration_is_lexicographic(self):
        pts = FactorSpace(2, 1).points(np.arange(4))
        assert [tuple(p) for p in pts] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_rank_roundtrip(self):
        space = FactorSpace(3, 2)
        for r, x in enumerate(space.points(np.arange(space.num_points)).tolist()):
            assert space.rank(x) == r

    @pytest.mark.parametrize("n,q", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_bad_dimensions(self, n, q):
        with pytest.raises(ValidationError):
            FactorSpace(n, q)

    @pytest.mark.parametrize("n,q,message", [
        (True, 1, "n must be an integer, got True"),
        (2, True, "q must be an integer, got True"),
        (2.0, 1, "n must be an integer, got 2.0"),
        (np.int64(3), np.int64(2), None),
    ])
    def test_rejects_non_integer_n_and_q(self, n, q, message):
        if message is None:  # numpy integers are integers, stored as Python ints
            space = FactorSpace(n, q)
            assert (type(space.n), type(space.q), space.n, space.q) == (int, int, n, q)
            return
        with pytest.raises(ValidationError, match=f"^{message}$"):
            FactorSpace(n, q)

    def test_rejects_oversized_space(self):
        # a data space may be any size; only its dense sizes are refused
        space = FactorSpace(30, 2)
        with pytest.raises(ValidationError, match="exceeds dense-table cap"):
            space.num_points
        with pytest.raises(ValidationError, match="exceeds dense-table cap"):
            space.grid_shape

    # an int64 q would wrap (q+1)^n: 32768^24 is 0 in int64
    @pytest.mark.parametrize("n,q", [(25, 1), (10**20, 1), (1, 2**24), (2, 10**30),
                                     (24, np.int64(MAX_LEVEL))])
    def test_oversized_space_rejected_without_the_power(self, n, q):
        if q > MAX_LEVEL:  # the space itself refuses q before any size is taken
            with pytest.raises(ValidationError, match="exceeds the largest factor level"):
                FactorSpace(n, q)
            return
        builders = [
            lambda: FactorSpace(n, q).num_points,
            lambda: FactorSpace(n, q).grid_shape,
            lambda: JointDistribution.from_atoms(n, q, []),
            lambda: JointDistribution.from_conditional(n, q, 1.0, 0.5),
        ] + [lambda preset=preset: generate_scenario(preset, n, q) for preset in PRESETS]
        for build in builders:
            with pytest.raises(ValidationError, match="exceeds dense-table cap"):
                build()

    def test_space_at_the_cap_accepted(self):
        assert FactorSpace(24, 1).num_points == 2**24

    def test_levels_past_int16_rejected_naming_q(self):
        assert FactorSpace(1, MAX_LEVEL).q == MAX_LEVEL
        with pytest.raises(ValidationError, match=f"q=40000 exceeds .* {MAX_LEVEL}$"):
            FactorSpace(1, 40000)


class TestFactorSubset:
    def test_projection(self):
        # a cell code reads only the subset's columns: u = (x1, x3) = (2, 1)
        x = np.array([[2, 0, 1], [2, 1, 1]])
        assert cylinder_codes(x, FactorSubset.of(1, 3), 2).tolist() == [7, 7]

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValidationError):
            FactorSubset((2, 1))
        with pytest.raises(ValidationError):
            FactorSubset((1, 1))
        with pytest.raises(ValidationError):
            FactorSubset((0, 1))


class TestPenaltyFunction:
    def test_threshold_symmetric(self):
        assert PenaltyFunction(1.0, 1.0).threshold == 0.5

    def test_threshold_ratio_three(self):
        # weights in ratio 3:1 push the threshold to 3/4
        assert PenaltyFunction(3.0, 1.0).threshold == 0.75

    def test_rejects_all_zero(self):
        with pytest.raises(ValidationError):
            PenaltyFunction(0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            PenaltyFunction(-1.0, 2.0)


class TestJointDistribution:
    def test_rejects_bad_normalization(self):
        space = FactorSpace(1, 1)
        with pytest.raises(ValidationError):
            JointDistribution(space, np.full((2, 2), 0.3))
        # the check reads the two label sums: 1e-12 of slack on their total
        for off in (0.5e-12, -0.5e-12):
            probs = np.array([[0.25, 0.25], [0.25, 0.25 + off]])
            assert label_marginal(JointDistribution(space, probs), 1) == probs[:, 1].sum()
        for off in (2e-12, -2e-12):
            with pytest.raises(ValidationError, match="not 1 within 1e-12"):
                JointDistribution(space, np.array([[0.25, 0.25 + off], [0.25, 0.25]]))

    def test_rejects_negative_mass(self):
        space = FactorSpace(1, 1)
        probs = np.array([[0.6, 0.5], [-0.1, 0.0]])
        with pytest.raises(ValidationError):
            JointDistribution(space, probs)

    def test_rejects_degenerate_labels(self):
        # all mass on y=+1 is excluded
        with pytest.raises(ValidationError):
            JointDistribution.from_atoms(1, 1, [((0,), 1, 0.5), ((1,), 1, 0.5)])

    def test_table_is_frozen(self, toy_balanced):
        with pytest.raises(ValueError):
            toy_balanced.probs[0, 0] = 0.9

    def test_derived_arrays_are_exact_and_frozen(self, n2_partial_support):
        dist = n2_partial_support
        marginal, mask = dist.point_probs(), dist.support_mask()
        assert marginal.tobytes() == dist.probs.sum(axis=1).tobytes()
        assert marginal.tolist() == pytest.approx([0.4, 0.6, 0.0, 0.0])
        assert np.array_equal(mask, marginal > 0)
        for arr in (marginal, mask):
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("bad,message", [
        ((np.nan, 0.5), "non-finite"),
        ((np.inf, 0.5), "non-finite"),
        ((-np.inf, 0.5), "non-finite"),
        ((np.nan, -0.5), "non-finite"),
        ((-0.1, 0.6), "negative"),
    ])
    def test_table_check_messages(self, bad, message):
        probs = np.array([[0.25, 0.25], bad])
        with pytest.raises(ValidationError, match=f"contains {message} entries"):
            JointDistribution(FactorSpace(1, 1), probs)

    def test_value_equality(self):
        a = generate_scenario("pair-epistasis", n=3, q=2)
        assert a == generate_scenario("pair-epistasis", n=3, q=2)
        assert a != generate_scenario("pair-epistasis", n=3, q=2, p_low=0.1)
        assert a != a.space
        # same table, different space
        p = np.full((4, 2), 0.125)
        assert JointDistribution(FactorSpace(1, 3), p) != JointDistribution(FactorSpace(2, 1), p)

    def test_unhashable(self, toy_balanced):
        with pytest.raises(TypeError):
            hash(toy_balanced)

    def test_duplicate_atom_rejected(self):
        with pytest.raises(ValidationError):
            JointDistribution.from_atoms(
                1, 1, [((0,), 1, 0.5), ((0,), 1, 0.1), ((1,), -1, 0.4)]
            )

    @pytest.mark.parametrize("atom", [
        ((0.7,), 1, 0.5),
        ((True,), 1, 0.5),
        ((0,), True, 0.5),
        ((0,), 0, 0.5),
        ((0,), 1.0, 0.5),
        ((0,), 1, "0.5"),
        ((0,), 1, True),
        ((0,), 1, None),
        ((0,), 1, 10**400),
    ], ids=["level-float", "level-bool", "label-bool", "label-zero", "label-float",
            "p-string", "p-bool", "p-none", "p-past-float"])
    def test_from_atoms_judges_each_atom(self, atom):
        # the bad atom comes second, so the message must carry its index
        with pytest.raises(ValidationError, match="^atom #1: "):
            JointDistribution.from_atoms(1, 1, [((1,), -1, 0.5), atom])

    def test_from_atoms_takes_numpy_integers(self):
        atoms = [((np.int64(0),), np.int8(1), np.float64(0.5)), ((np.int16(1),), -1, 0.5)]
        dist = JointDistribution.from_atoms(1, 1, atoms)
        assert dist.probs.tolist() == [[0.0, 0.5], [0.5, 0.0]]


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    try:  # an int past the float range overflows here
        return (_is_integer(v) or isinstance(v, (float, np.floating))) and math.isfinite(v)
    except OverflowError:
        return False


def _atom_p(p):
    """P(0, +1) of a table whose atom #1 has p; the other atoms give both
    labels mass and make a real p <= 1/2 sum to 1."""
    rest = 0.5 - float(p) if _is_real(p) else 0.25
    atoms = [((1,), -1, 0.25), ((0,), 1, p), ((1,), 1, 0.25), ((0,), -1, rest)]
    return JointDistribution.from_atoms(1, 1, atoms).probs[0, 1].item()


def _atom_kept(atoms, pick):
    """The atom that ``pick`` selects, as a table of ``atoms`` keeps it."""
    return next(a for a in JointDistribution.from_atoms(1, 1, atoms).atoms() if pick(a))


def _replications(n_replications=1, master_seed=1):
    dist, subsets = scenario_a(), [FactorSubset.of(1, 2)]
    errors, _ = subset_oracle(dist, subsets)
    return run_replications(dist, subsets, errors, 100, 2, DEFAULT_SCHEDULE,
                            n_replications, master_seed).z.tobytes()


def _arrays(*arrays):
    return tuple((a.dtype.str, a.tobytes()) for a in arrays)


# Every judged argument: (its type, a pattern that names it, a call that
# passes the value there and returns what is kept of it).
JUDGED = {
    "n": (int, r"\bn\b", lambda v: FactorSpace(v, 1).n),
    "q": (int, r"\bq\b", lambda v: FactorSpace(1, v).q),
    "index": (int, r"factor ind\w*", lambda v: FactorSubset((v,)).indices[0]),
    "level": (int, r"atom #1: (level|point)",
              lambda v: _atom_kept([((0,), 1, 0.5), ((v,), -1, 0.5)], lambda a: a[1] == -1)[0][0]),
    "y": (int, r"atom #2: .*\by\b", lambda v: _atom_kept(
        [((1,), -1, 0.25), ((1,), 1, 0.25), ((0,), v, 0.5)], lambda a: a[0] == (0,))[1]),
    "p": (float, r"atom #\d: .*\bp\b", _atom_p),
    "psi_neg": (float, r"psi_neg", lambda v: PenaltyFunction(v, 1.0).psi_neg),
    "psi_pos": (float, r"psi_pos", lambda v: PenaltyFunction(1.0, v).psi_pos),
    "c0": (float, r"\bc0\b", lambda v: EpsilonSchedule(v, 0.25).c0),
    "beta": (float, r"\bbeta\b", lambda v: EpsilonSchedule(1.0, v).beta),
    # a preset's p near 0 or 1 can leave a label no mass in float64 (the
    # table's refusal): 5e-324 times a point's mass is 0
    "p_pos": (float, r"p_pos|degenerate label", lambda v: _arrays(
        generate_scenario("null", 1, 1, p_pos=v).probs)),
    "p_low": (float, r"p_low|degenerate label", lambda v: _arrays(
        generate_scenario("single-factor", 1, 1, p_low=v, p_high=1.0).probs)),
    "p_high": (float, r"p_high|degenerate label", lambda v: _arrays(
        generate_scenario("pair-epistasis", 2, 1, p_low=0.0, p_high=v).probs)),
    "effect": (float, r"effect", lambda v: _arrays(
        generate_scenario("independent", 2, 1, effect=v).probs)),
    "n_folds": (int, r"folds", lambda v: _arrays(fold_index(20, v))),
    "r": (int, r"\br\b", lambda v: _arrays(enumerate_subsets(6, v))),
    "n_records": (int, r"n_records|sample size",
                  lambda v: (lambda d: _arrays(d.x, d.y))(sample(scenario_a(), v, 1))),
    "eps n_records": (int, r"n_records|sample size", lambda v: DEFAULT_SCHEDULE.value(v)),
    "seed": (int, r"\bseed\b", lambda v: (lambda d: _arrays(d.x, d.y))(sample(scenario_a(), 4, v))),
    "seed #1": (int, r"seed #1\b",
                lambda v: (lambda d: _arrays(d.x, d.y))(sample(scenario_a(), 4, [0, v]))),
    "n_replications": (int, r"replications?", lambda v: _replications(n_replications=v)),
    "master_seed": (int, r"master_seed", lambda v: _replications(master_seed=v)),
}
# Counts that size what a call builds are tried only up to 64.
SIZES = {"n_records", "eps n_records", "n_replications"}
INTEGER_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@given(value=st.one_of(
    st.integers(),
    st.sampled_from(INTEGER_DTYPES).flatmap(lambda t: hnp.from_dtype(np.dtype(t))),
    st.floats(), st.floats(0, 1), hnp.from_dtype(np.dtype(np.float32)),
    st.booleans(), st.booleans().map(np.bool_),
    st.text(max_size=3), st.none(), st.sampled_from([10**400, -10**400]),
))
@example(np.uint64(2**64 - 1))
@example(np.float32(0.25))
@example(5e-324)
@example(np.bool_(True))
@example("1")
@settings(max_examples=300, deadline=None)
def test_every_judged_argument_is_kept_exactly_or_refused(value):
    """Each argument keeps a value as the Python int or float it equals (what
    is kept is what that Python number gives), or refuses it with one
    ValidationError that names the argument."""
    for name, (kind, pattern, call) in JUDGED.items():
        legal = _is_integer(value) if kind is int else _is_real(value)
        if name in SIZES and legal and value > 64:
            continue
        try:
            got = call(value)
        except ValidationError as exc:
            message = str(exc)
            assert "\n" not in message and re.search(pattern, message), (name, message)
            if not legal:
                assert re.search(f"({pattern}) must be an? (integer|finite real number), got ",
                                 message), (name, message)
            continue
        assert legal, (name, value)
        want = call(kind(value))
        assert type(got) is type(want) and got == want, (name, value, got, want)


@pytest.mark.parametrize("call, message", [
    (lambda d: sample(d, -10**5000, 1), "n_records must be an integer of at most 2048 bits"),
    (lambda d: sample(d, 10, -10**5000), "seed must be an integer of at most 2048 bits"),
    (lambda d: FactorSpace(-10**5000, 1), "n must be an integer of at most 2048 bits"),
    (lambda d: _real("p", 10**5000),
     "p must be a finite real number, got an int past the float range"),
], ids=["n_records", "seed", "n", "real"])
def test_refused_huge_int_is_not_printed(toy_balanced, call, message):
    # an int of 5001 digits is past Python's int-to-str limit
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(toy_balanced)


@pytest.mark.parametrize("build, message", [
    (lambda: FactorSubset(()), "a factor subset must contain at least one index"),
    (lambda: JointDistribution(FactorSpace(1, 1), np.full((3, 2), 1 / 6)),
     "probs must have shape (2, 2), got (3, 2)"),
    (lambda: JointDistribution.from_conditional(1, 1, 0.5, [0.5, 1.5]),
     "conditional probabilities must lie in [0, 1]"),
    (lambda: JointDistribution.from_conditional(1, 1, 0.5, [-0.5, 0.5]),
     "conditional probabilities must lie in [0, 1]"),
    (lambda: Dataset(FactorSpace(1, 1), np.empty((0, 1), np.int16), np.empty(0, np.int8)),
     "a dataset must contain at least one record"),
], ids=["empty-subset", "table-wrong-shape", "conditional-above-one", "conditional-below-zero",
        "empty-dataset"])
def test_refusal_names_its_fault(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def support(dist):
    ranks = np.flatnonzero(dist.support_mask())
    return set(map(tuple, dist.space.points(ranks).tolist()))


def cylinder_conditionals(dist, subset):
    """P(Y=1 | cell) per cylinder cell, indexed by cell code."""
    m = cylinder_masses(dist, subset).reshape(-1, 2)
    return cell_conditionals(m[:, 0] + m[:, 1], m[:, 1])


class TestSupport:
    def test_uniform_support_is_everything(self):
        space = FactorSpace(2, 1)
        dist = JointDistribution(space, np.full((4, 2), 0.125))
        assert support(dist) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_zero_mass_point_excluded(self, n2_partial_support):
        assert support(n2_partial_support) == {(0, 0), (0, 1)}

    def test_point_mass(self):
        dist = JointDistribution.from_atoms(
            1, 1, [((0,), 1, 0.5), ((0,), -1, 0.5)]
        )
        assert support(dist) == {(0,)}


class TestCylinderConditional:
    def test_full_subset_is_pointwise(self, toy_balanced):
        got = cylinder_conditionals(toy_balanced, FactorSubset.of(1))
        assert got.tolist() == pytest.approx([0.8, 0.2])

    def test_independent_labels_constant(self, independent_labels):
        for sub in (FactorSubset.of(1), FactorSubset.of(2), FactorSubset.of(1, 2)):
            got = cylinder_conditionals(independent_labels, sub)
            assert got.tolist() == pytest.approx([0.4] * 2**sub.r)

    def test_hand_summed_value(self, n2_partial_support):
        # atoms at (0,0) and (0,1): (0.3+0.1)/(0.3+0.1+0.1+0.5) = 0.4
        got = cylinder_conditionals(n2_partial_support, FactorSubset.of(1))
        assert got[0] == pytest.approx(0.4)

    def test_full_subset_matches_pointwise_on_support(self, n2_partial_support):
        got = cylinder_conditionals(n2_partial_support, FactorSubset.of(1, 2))
        assert got[:2].tolist() == pytest.approx([0.3 / 0.4, 0.1 / 0.6])


class TestCylinderMasses:
    def test_masses_and_codes(self, n2_partial_support):
        m = cylinder_masses(n2_partial_support, FactorSubset.of(2))
        assert m.shape == (1, 2, 2)
        assert m[0, :, 0].tolist() == pytest.approx([0.1, 0.5])
        assert m[0, :, 1].tolist() == pytest.approx([0.3, 0.1])
        # cell codes enumerate the cells in the order of the kept axes
        pts = n2_partial_support.space.points(np.arange(4))
        codes = cylinder_codes(pts, FactorSubset.of(2), 1)
        assert codes.tolist() == [0, 1, 0, 1]
        want = np.bincount(codes, weights=n2_partial_support.probs[:, 1], minlength=2)
        assert np.array_equal(m.reshape(-1, 2)[:, 1], want)

    def test_cell_conditionals_zero_on_empty_cells(self):
        got = cell_conditionals(np.array([4, 0, 2]), np.array([1, 0, 2]))
        assert got.tolist() == [0.25, 0.0, 1.0]


class TestLabelMarginal:
    def test_symmetric_table(self, toy_balanced):
        assert label_marginal(toy_balanced, 1) == pytest.approx(0.5)
        assert label_marginal(toy_balanced, -1) == pytest.approx(0.5)

    def test_hand_summed(self, n2_partial_support):
        assert label_marginal(n2_partial_support, 1) == pytest.approx(0.4)

    @given(dist=small_distributions(max_n=3, max_q=2))
    @settings(max_examples=40, deadline=None)
    def test_reads_the_column_sums(self, dist):
        # summed once when the table is built, with the same bits
        for col, y in enumerate((-1, 1)):
            assert label_marginal(dist, y) == float(dist.probs[:, col].sum())


class TestSample:
    def test_zero_records_rejected(self, toy_balanced):
        with pytest.raises(ValidationError):
            sample(toy_balanced, 0, seed=1)

    def test_point_mass_gives_constant_sample(self):
        dist = JointDistribution.from_atoms(
            1, 1, [((1,), 1, 0.75), ((1,), -1, 0.25)]
        )
        ds = sample(dist, 50, seed=3)
        assert np.all(ds.x == 1)

    def test_same_seed_same_dataset(self, toy_balanced):
        a = sample(toy_balanced, 500, seed=99)
        b = sample(toy_balanced, 500, seed=99)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_different_seed_differs(self, toy_balanced):
        a = sample(toy_balanced, 500, seed=1)
        b = sample(toy_balanced, 500, seed=2)
        assert not (np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y))

    def test_zero_probability_atom_never_drawn(self, n2_partial_support):
        ds = sample(n2_partial_support, 2000, seed=11)
        assert set(map(tuple, ds.x.tolist())) <= {(0, 0), (0, 1)}

    def test_empirical_frequencies_match_binomial_bound(self, toy_balanced):
        n = 10**6
        ds = sample(toy_balanced, n, seed=2024)
        for x, y, p in toy_balanced.atoms():
            count = int(np.sum((ds.x[:, 0] == x[0]) & (ds.y == y)))
            bound = 4.0 * np.sqrt(p * (1 - p) / n)
            assert abs(count / n - p) < bound, (x, y)


@given(
    dist=small_distributions(max_n=3, max_q=2),
    n_records=st.integers(1, 50),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_seed_list_concatenates_single_seed_samples(dist, n_records, seeds):
    ds = sample(dist, n_records, seeds)
    parts = [sample(dist, n_records, s) for s in seeds]
    assert len(ds) == n_records * len(seeds)
    assert np.array_equal(ds.x, np.concatenate([p.x for p in parts]))
    assert np.array_equal(ds.y, np.concatenate([p.y for p in parts]))


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    ([1, -2], "seed #1 must be >= 0, got -2"),
    (1.5, "seed must be an integer, got 1.5"),
    ([0, 2, 1.5], "seed #2 must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
    ((3, np.True_), "seed #1 must be an integer, got np.True_"),
    ("7", "seed must be an integer, got '7'"),
])
def test_refused_seed_is_named(toy_balanced, seed, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        sample(toy_balanced, 5, seed)


@pytest.mark.parametrize("n_records, seeds", [
    (2**62, 1), (10**400, 1), (MAX_RECORDS + 1, [1]), (MAX_RECORDS // 2 + 1, [1, 2]),
])
def test_draws_past_any_array_are_refused(toy_balanced, n_records, seeds):
    with mock.patch("numpy.empty", side_effect=AssertionError("allocated")):
        with pytest.raises(ValidationError, match="^n_records too large: "):
            sample(toy_balanced, n_records, seeds)


def test_empty_seed_list_rejected(toy_balanced):
    with pytest.raises(ValidationError, match="at least one record"):
        sample(toy_balanced, 5, [])


class TestDataset:
    def test_record_indexing_is_one_based(self, toy_balanced):
        # record j of the 1-based folds (blocks of [N/K]) is row j-1 of x and y
        ds = sample(toy_balanced, 7, seed=0)
        counts = dataset_counts(ds, FactorSubset.of(1), 3)[1]
        for k, fold in enumerate([[1, 2], [3, 4], [5, 6, 7]]):
            want = np.zeros((2, 2), dtype=np.int64)
            for j in fold:
                want[int(ds.y[j - 1] == 1), ds.x[j - 1, 0]] += 1
            assert np.array_equal(counts[k], want)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValidationError):
            Dataset(FactorSpace(1, 1), [[0], [1]], [0, 1])

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(ValidationError):
            Dataset(FactorSpace(1, 1), [[0], [2]], [1, -1])

    @pytest.mark.parametrize("q, x, y, message", [
        (MAX_LEVEL, [[70000], [1]], [1, -1], "level outside"),  # int16 makes it 4464
        (3, [[65537], [1]], [1, -1], "level outside"),  # int16 makes it 1
        (3, [[0], [1]], [257, -1], "label"),  # int8 makes it 1
        (3, [[1.7], [1]], [1, -1], "must be integers"),  # int16 makes it 1
    ])
    def test_refuses_values_its_cast_would_change(self, q, x, y, message):
        with pytest.raises(ValidationError, match=message):
            Dataset(FactorSpace(1, q), np.array(x), np.array(y))


def _near_wraps():
    """int64 values within 2 of 0, +-2^8, +-2^15 and +-2^16: where int8 and
    int16 casts wrap."""
    centres = [0, 2**8, -(2**8), 2**15, -(2**15), 2**16, -(2**16)]
    return st.sampled_from(centres).flatmap(lambda c: st.integers(c - 2, c + 2))


# float64 values: whole and fractional ones, infinities and NaN
FRACTIONS = st.one_of(st.floats(-3, 2**16 + 3), st.sampled_from([np.nan, np.inf, -np.inf]))


def _lossless(v, dtype) -> bool:
    info = np.iinfo(dtype)
    return float(v).is_integer() and info.min <= v <= info.max


@given(
    n=st.integers(1, 2),
    q=st.sampled_from([1, 2, 2**8, 2**15 - 2, MAX_LEVEL]),
    records=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_dataset_keeps_every_value_it_accepts(n, q, records, data):
    level = st.one_of(_near_wraps(), st.integers(0, 3), st.integers(q - 2, q + 2))
    label = st.one_of(_near_wraps(), st.integers(-3, 3))
    if data.draw(st.booleans()):  # float64 arrays: fractions, infinities, NaN
        level, label = (st.one_of(s.map(float), FRACTIONS) for s in (level, label))
    x = np.array(data.draw(st.lists(level, min_size=n * records, max_size=n * records)))
    x = x.reshape(records, n)
    y = np.array(data.draw(st.lists(label, min_size=records, max_size=records)))
    lossless = (all(_lossless(v, np.int16) for v in x.flat)
                and all(_lossless(v, np.int8) for v in y))
    legal = (all(float(v).is_integer() and 0 <= v <= q for v in x.flat)
             and all(v in (-1, 1) for v in y))
    try:
        ds = Dataset(FactorSpace(n, q), x, y)
    except ValidationError:
        assert not legal
        return
    # accepted only when legal, so never a value its cast would change
    assert legal and lossless
    assert ds.x.dtype == np.int16 and ds.y.dtype == np.int8
    assert np.array_equal(ds.x, x) and np.array_equal(ds.y, y)


class TestDistributionFiles:
    def test_roundtrip(self, tmp_path, n2_partial_support):
        path = tmp_path / "dist.json"
        save_distribution(n2_partial_support, path)
        back = load_distribution(path)
        assert back.space == n2_partial_support.space
        assert np.array_equal(back.probs, n2_partial_support.probs)

    def test_omitted_atoms_are_zero(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({
            "n": 1, "q": 1,
            "atoms": [{"x": [0], "y": 1, "p": 0.5}, {"x": [1], "y": -1, "p": 0.5}],
        }))
        dist = load_distribution(path)
        assert dist.probs.tolist() == [[0.0, 0.5], [0.5, 0.0]]

    def test_malformed_file_reports_problem(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 1, "q": 1}')
        with pytest.raises(ValidationError):
            load_distribution(path)

    @pytest.mark.parametrize("text, names", [
        ('{"n": 2, "q": 1, "atoms": [{"x": "00", "y": 1, "p": 0.5},'
         ' {"x": [1, 1], "y": -1, "p": 0.5}]}', "atom #0"),
        ('{"n": 1, "q": 1, "atoms": [{"x": [0.7], "y": 1, "p": 0.5},'
         ' {"x": [1], "y": -1, "p": 0.5}]}', "atom #0"),
        ('{"n": 1, "q": 1, "atoms": [{"x": [0], "y": 1, "p": 0.5},'
         ' {"x": [1], "y": -1.9, "p": 0.5}]}', "atom #1"),
        ('{"n": 1.9, "q": 1, "atoms": [{"x": [0], "y": 1, "p": 0.5},'
         ' {"x": [1], "y": -1, "p": 0.5}]}', "n must be an integer, got 1.9"),
        ('{"n": true, "q": 1, "atoms": [{"x": [0], "y": 1, "p": 0.5},'
         ' {"x": [1], "y": -1, "p": 0.5}]}', "n must be an integer, got True"),
        ('{"n": 1, "q": 1, "atoms": [{"x": [0], "y": 1, "p": 0.5},'
         ' {"x": [1], "y": -1, "p": "0.5"}]}', "atom #1"),
        ('{"n": 1, "q": 1, "atoms": [{"x": [0], "y": 1, "p": true},'
         ' {"x": [1], "y": -1, "p": 0.5}]}', "atom #0"),
    ], ids=["x-string", "x-float", "y-float", "n-float", "n-bool", "p-string", "p-bool"])
    def test_refuses_what_int_would_coerce(self, tmp_path, text, names):
        # int() would truncate each float and read "00" as [0, 0]; float()
        # would read "0.5" as 0.5 and true as 1.0
        path = tmp_path / "coerced.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=names):
            load_distribution(path)

    def test_utf8_bom_is_skipped(self, tmp_path, n2_partial_support):
        path = tmp_path / "dist.json"
        save_distribution(n2_partial_support, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_distribution(path) == n2_partial_support


@given(dist=small_distributions())
@settings(max_examples=60, deadline=None)
def test_any_valid_table_normalizes_and_samples(dist):
    assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12
    ds = sample(dist, 25, seed=5)
    assert len(ds) == 25
    assert ds.x.min() >= 0 and ds.x.max() <= dist.space.q


@given(dist=small_distributions(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sampling_is_reproducible(dist, seed):
    a = sample(dist, 40, seed=seed)
    b = sample(dist, 40, seed=seed)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


@st.composite
def spaces(draw, max_n=6, max_q=4):
    return FactorSpace(draw(st.integers(1, max_n)), draw(st.integers(1, max_q)))


@st.composite
def subsets_of(draw, n):
    idx = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    return FactorSubset(tuple(sorted(idx)))


@st.composite
def block_edge_tables(draw):
    """A distribution whose atom count is often not a multiple of
    CDF_BLOCK, with zero-mass atoms on block edges and maybe a run of
    trailing zero atoms."""
    space = draw(spaces(max_n=4, max_q=3))
    size = 2 * space.num_points
    w = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=size, max_size=size
    )))
    edges = np.flatnonzero(np.isin(np.arange(size) % CDF_BLOCK, (0, CDF_BLOCK - 1)))
    w[draw(st.lists(st.sampled_from(edges.tolist())))] = 0.0
    w[size - draw(st.integers(0, size - 2)) :] = 0.0
    p = (w / w.sum() if w.sum() > 0 else w).reshape(-1, 2)
    assume(p[:, 0].sum() > 0 and p[:, 1].sum() > 0)
    return JointDistribution(space, p)


def reference_block_ends(dist):
    """``reference_cdf`` at the last atom of each CDF_BLOCK block."""
    c = reference_cdf(dist)
    return c[np.arange(CDF_BLOCK - 1, c.size + CDF_BLOCK - 1, CDF_BLOCK).clip(max=c.size - 1)]


class TestGridFreePath:
    """Factor levels read off point ranks agree bit for bit with the
    materialized point grid they replace."""

    @given(space=spaces(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_points_match_indices_reference(self, space, data):
        ref = grid_reference(space)
        pts = space.points(np.arange(space.num_points))
        assert pts.dtype == np.int16 and pts.shape == (space.num_points, space.n)
        assert np.array_equal(pts, ref)
        ranks = np.array(
            data.draw(st.lists(st.integers(0, space.num_points - 1), max_size=20)),
            dtype=np.int64,
        )
        got = space.points(ranks)
        assert got.dtype == np.int16 and got.shape == (ranks.size, space.n)
        assert np.array_equal(got, ref[ranks])
        assert space.points(np.array([], dtype=np.int64)).shape == (0, space.n)

    @given(space=spaces(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_point_levels_read_the_grid(self, space, data):
        pts = grid_reference(space)
        factor = data.draw(st.integers(1, space.n))
        ranks = np.array(
            data.draw(st.lists(st.integers(0, space.num_points - 1), max_size=20)),
            dtype=np.int64,
        )
        assert np.array_equal(point_levels(space, factor, ranks), pts[ranks, factor - 1])

    @given(dist=small_distributions(max_n=3, max_q=3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_cell_codes_match_point_coding(self, dist, data):
        # the table's marginal, in cell-code order, sums the same atoms as
        # a bincount over every point's cell code; so does marginalizing
        # the marginal of a superset
        subset = data.draw(subsets_of(dist.space.n))
        superset = FactorSubset(tuple(sorted(
            set(subset.indices) | set(data.draw(subsets_of(dist.space.n)).indices)
        )))
        codes = cylinder_codes(grid_reference(dist.space), subset, dist.space.q)
        cells = (dist.space.q + 1) ** subset.r
        want = np.stack([
            np.bincount(codes, weights=dist.probs[:, y], minlength=cells) for y in (0, 1)
        ], axis=1)
        shape = [dist.space.q + 1 if i in subset.indices else 1 for i in range(1, dist.space.n + 1)]
        others = tuple(i - 1 for i in superset.indices if i not in subset.indices)
        summed = cylinder_masses(dist, superset).sum(axis=others, keepdims=True)
        for got in (cylinder_masses(dist, subset), summed):
            assert got.shape == tuple(shape) + (2,)
            np.testing.assert_allclose(got.reshape(-1, 2), want, rtol=1e-13, atol=1e-16)

    @given(
        dist=st.one_of(small_distributions(max_n=3, max_q=3), block_edge_tables()),
        n_records=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_sample_matches_point_gather(self, dist, n_records, seed):
        u = np.random.default_rng(seed).random(n_records)
        atom = np.searchsorted(reference_cdf(dist), u, side="right")
        ds = sample(dist, n_records, seed)
        assert np.array_equal(ds.x, grid_reference(dist.space)[atom >> 1])
        assert np.array_equal(ds.y, np.where(atom & 1, 1, -1))


def preset_inputs(preset, n, q):
    """A preset's distribution with the marginal and conditional it hands
    to ``from_conditional``."""
    seen = []
    build = JointDistribution.from_conditional.__func__

    def record(cls, n, q, point_probs, cond_pos):
        seen.append((point_probs, cond_pos))
        return build(cls, n, q, point_probs, cond_pos)

    with mock.patch.object(JointDistribution, "from_conditional", classmethod(record)):
        dist = generate_scenario(preset, n, q)
    ((m, c),) = seen
    return dist, m, c


def flatten_grid(space, grid):
    """One value per point, in enumeration order, from an array that
    broadcasts against ``space.grid_shape``."""
    return np.broadcast_to(grid, space.grid_shape).reshape(-1)


def from_conditional_or_error(space, m, c):
    try:
        return JointDistribution.from_conditional(space.n, space.q, m, c)
    except ValidationError as exc:
        return str(exc)


def assert_same_distribution(a, b, n_records, seed):
    for got, want in (
        (a.probs, b.probs),
        (a._cdf_ends, b._cdf_ends),
        (a.support_mask(), b.support_mask()),
        (np.array(a._label_sums), np.array(b._label_sums)),
    ):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(a.support_mask(), a.probs.sum(axis=1) > 0)
    assert a._cdf_ends.tobytes() == reference_block_ends(a).tobytes()
    sa, sb = sample(a, n_records, seed), sample(b, n_records, seed)
    assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.y, sb.y)


@st.composite
def broadcast_grids(draw, space):
    """A float array whose shape broadcasts against ``space.grid_shape``:
    each axis full or 1, leading axes possibly dropped, a scalar at most."""
    keep = draw(st.lists(st.booleans(), min_size=space.n, max_size=space.n))
    shape = tuple(space.q + 1 if k else 1 for k in keep)[draw(st.integers(0, space.n)):]
    values = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
    size = int(np.prod(shape))
    return np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)


class TestFromConditional:
    """Grid and scalar inputs build the same table, bit for bit, as the
    same inputs spread over every point."""

    @given(
        preset_nq=st.sampled_from(PRESETS).flatmap(lambda preset: st.tuples(
            st.just(preset),
            st.integers(2 if preset == "pair-epistasis" else 1, 4),
            st.integers(1, 3),
        )),
        n_records=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(preset_nq=("single-factor", 1, 3), n_records=7, seed=1)
    @example(preset_nq=("pair-epistasis", 2, 1), n_records=7, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_presets_match_their_flattened_inputs(self, preset_nq, n_records, seed):
        dist, m, c = preset_inputs(*preset_nq)
        assert np.ndim(m) == 0  # the uniform marginal stays a scalar
        flat = JointDistribution.from_conditional(
            dist.space.n, dist.space.q, flatten_grid(dist.space, m), flatten_grid(dist.space, c)
        )
        assert_same_distribution(dist, flat, n_records, seed)

    @given(space=spaces(max_n=4, max_q=3), data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_grids_match_flat_arrays(self, space, data, seed):
        raw = data.draw(broadcast_grids(space))
        total = flatten_grid(space, raw).sum()
        assume(total > 0)
        m, c = raw / total, data.draw(broadcast_grids(space))
        m_flat, c_flat = flatten_grid(space, m), flatten_grid(space, c)
        got = from_conditional_or_error(space, m, c)
        want = from_conditional_or_error(space, m_flat, c_flat)
        if isinstance(want, str):
            assert got == want
        else:
            table = np.stack([m_flat * (1.0 - c_flat), m_flat * c_flat], axis=1)
            assert want.probs.tobytes() == table.tobytes()
            assert_same_distribution(got, want, 20, seed)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 3), (3, 3, 1), (9, 1), (10,), (3, 2)])
    def test_shapes_that_do_not_broadcast_rejected(self, shape):
        space = FactorSpace(2, 2)
        for m, c in ((np.full(shape, 1 / 9), 0.5), (1 / 9, np.full(shape, 0.5))):
            with pytest.raises(ValidationError, match="must cover every point"):
                JointDistribution.from_conditional(space.n, space.q, m, c)

    @pytest.mark.parametrize("preset", ["null", "single-factor", "pair-epistasis"])
    def test_preset_build_keeps_to_table_ends_and_mask(self, preset):
        # beside the table only the block ends (1/16 of its bytes), the
        # support bits (one bit a point) and one CDF_CHUNK cumsum buffer
        # are alive at the peak: no table-sized CDF or support mask
        # (independent is left out: its conditional depends on every factor)
        generate_scenario(preset, 2, 2)  # first-call allocations off the books
        tracemalloc.start()
        try:
            dist = generate_scenario(preset, 10, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= build_floor(dist) + 2**13

    def test_independent_build_keeps_one_conditional_buffer(self):
        # beside the table, block ends, support bits and cumsum buffer, only the
        # conditional (half the table's bytes) is alive: no level sum or
        # logistic temporary
        generate_scenario("independent", 2, 2)
        tracemalloc.start()
        try:
            dist = generate_scenario("independent", 10, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= build_floor(dist) + dist.probs.nbytes // 2 + 2**13


def build_floor(dist):
    """Bytes a distribution keeps (table, block ends, support bits) plus the
    one cumsum buffer its build needs."""
    return (dist.probs.nbytes + dist._cdf_ends.nbytes + dist._support_bits.nbytes
            + 8 * (CDF_CHUNK + 1))


class TestBlockedCdf:
    """Sampling re-sums only the blocks its draws land in, yet finds the
    atom that the full sequential CDF gives, bit for bit."""

    @given(dist=block_edge_tables(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_atom_index_matches_full_cdf_search(self, dist, data):
        c = reference_cdf(dist)
        atoms = c.size
        blocks = -(-atoms // CDF_BLOCK)
        # at least one draw per atom re-sums every block; fewer locate them
        if data.draw(st.booleans()):
            size = blocks * CDF_BLOCK + data.draw(st.integers(0, 8))
        else:
            size = data.draw(st.integers(1, blocks * CDF_BLOCK - 1))
        exact = c[c < 1.0]
        near = np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0), [0.0]])
        near = near[near < 1.0]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u = np.where(rng.random(size) < 0.5, near[rng.integers(near.size, size=size)],
                     rng.random(size))
        got = _atom_index(dist, u)
        want = np.searchsorted(c, u, side="right")
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("copies", [1, 6])  # 30 draws locate, 180 re-sum all 4 blocks
    def test_draws_on_cdf_values_around_zero_edge_atoms(self, copies):
        # 54 atoms: three full blocks and a partial one; mass mostly on block
        # edges, none on atoms 45..53; the sequential sum stops one ulp below
        # 1, so draws there must land on the final atom, forced to 1.0
        p = np.zeros(54)
        p[[0, 15, 16, 31, 32, 40, 41, 42, 43, 44]] = 0.1
        dist = JointDistribution(FactorSpace(3, 2), p.reshape(-1, 2))
        c = reference_cdf(dist)
        exact = np.unique(c[c < 1.0])
        u = np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0)])
        u = np.tile(np.where(u < 1.0, u, 0.5), copies)  # draws lie in [0, 1)
        assert np.array_equal(_atom_index(dist, u), np.searchsorted(c, u, side="right"))

    @given(dist=block_edge_tables())
    @settings(max_examples=60, deadline=None)
    def test_guide_bucket_edges_match_full_cdf_search(self, dist):
        # at least as many draws as atoms: the guide table is searched.  Draws
        # sit on every bucket edge b/G and one ulp either side, G the smallest
        # power of two >= 2 * atoms
        c = reference_cdf(dist)
        guide = 2 ** int(np.ceil(np.log2(2 * c.size)))
        edges = np.arange(guide) / guide
        u = np.concatenate([edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
                            [0.0, np.nextafter(1.0, 0.0)]])
        assert u.size >= c.size
        got = _atom_index(dist, u)
        want = np.searchsorted(c, u, side="right")
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("heavy", [0, 60, 127])
    def test_clustered_bucket_needs_many_search_rounds(self, heavy):
        # one heavy atom and 127 atoms of mass 1e-9 (a few zero): with the
        # heavy atom last, every light CDF value shares the first bucket;
        # otherwise one bucket holds them on either side of it
        p = np.full(128, 1e-9)
        p[[5, 16, 31, 32]] = 0.0  # zero-mass atoms, three on block edges
        p[heavy] = 1.0 - p.sum() + p[heavy]
        dist = JointDistribution(FactorSpace(6, 1), p.reshape(-1, 2))
        c = reference_cdf(dist)
        guide = 256
        bucket = np.diff(np.searchsorted(c, np.arange(guide + 1) / guide, side="left"))
        assert bucket.max() >= 64  # seven rounds or more
        exact = c[c < 1.0]
        edges = np.arange(guide) / guide
        u = np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0), edges,
                            np.random.default_rng(heavy).random(500)])
        u = u[(u >= 0.0) & (u < 1.0)]
        got = _atom_index(dist, u)
        want = np.searchsorted(c, u, side="right")
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("heavy", [(0,), (0, 4)])
    def test_cdf_past_one_before_the_final_atom(self, heavy):
        # within the normalization tolerance the running sum may pass 1.0
        # before the final atom, forced to 1.0; with all mass on atom 0 no
        # CDF value lies below 1.0, so no bucket holds one
        p = np.zeros(8)
        p[list(heavy)] = 1.0 / len(heavy)
        p[3] = 5e-13
        dist = JointDistribution(FactorSpace(2, 1), p.reshape(-1, 2))
        c = reference_cdf(dist)
        assert c.max() > 1.0
        u = np.concatenate([np.random.default_rng(1).random(40), [0.0, 0.5, np.nextafter(0.5, 0.0),
                                                                  np.nextafter(1.0, 0.0)]])
        got = _atom_index(dist, u)
        want = np.searchsorted(c, u, side="right")
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dist", [
        generate_scenario("pair-epistasis", 3, 2),  # 54 atoms, a partial block
        generate_scenario("independent", 4, 2),  # 162 atoms
        JointDistribution.from_atoms(1, 2, [((0,), -1, 0.5), ((2,), 1, 0.5)]),  # 6
    ], ids=["atoms54", "atoms162", "atoms6"])
    @pytest.mark.parametrize("seeds", [7, [3, 2**64 - 1, 0]], ids=["one-seed", "seed-list"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_sample_around_as_many_draws_as_atoms(self, dist, seeds, offset):
        # a single seed crosses from located blocks and per-draw level digits
        # to the guide table and the point-grid gather; a seed list gathers
        n_records = dist.probs.size + offset
        seed_list = [seeds] if np.ndim(seeds) == 0 else seeds
        u = np.concatenate([np.random.default_rng(s).random(n_records) for s in seed_list])
        atom = np.searchsorted(reference_cdf(dist), u, side="right")
        ds = sample(dist, n_records, seeds)
        assert ds.x.dtype == np.int16 and ds.y.dtype == np.int8
        assert np.array_equal(ds.x, grid_reference(dist.space)[atom >> 1])
        assert np.array_equal(ds.y, np.where(atom & 1, 1, -1))

    @pytest.mark.parametrize("space,chunk", [
        # 59,049 and 177,147 points: 2 and 6 chunks, the last one partial
        pytest.param(FactorSpace(10, 2), CDF_CHUNK, id="10"),
        pytest.param(FactorSpace(11, 2), CDF_CHUNK, id="11"),
        # CDF_CHUNK - 2 and CDF_CHUNK atoms: one chunk, the first ending mid-byte
        pytest.param(FactorSpace(1, 32766), CDF_CHUNK, id="chunk-minus-2"),
        pytest.param(FactorSpace(1, 32767), CDF_CHUNK, id="chunk"),
        # chunks scaled down: 162 atoms in chunks of 160, chunk + 2, so the
        # last chunk holds one point; 62 atoms in a chunk of 64, chunk - 2;
        # 686 atoms in a chunk of 688 and 1458 in chunks of 1456, each with
        # a partial last block
        pytest.param(FactorSpace(4, 2), 160, id="small-chunk-plus-2"),
        pytest.param(FactorSpace(1, 30), 64, id="small-chunk-minus-2"),
        pytest.param(FactorSpace(3, 6), 688, id="partial-block"),
        pytest.param(FactorSpace(6, 2), 1456, id="partial-block-plus-2"),
    ])
    def test_support_bits_span_chunks(self, monkeypatch, space, chunk):
        # zero-mass points on both sides of every chunk edge and in the last,
        # partial byte; one label's mass alone keeps a point in the support.
        # The same pass builds the block ends: they carry across the chunks
        monkeypatch.setattr(model, "CDF_CHUNK", chunk)
        if space.n > 1:
            probs = generate_scenario("pair-epistasis", space.n, space.q).probs.copy()
        else:  # one factor makes no pair
            probs = np.random.default_rng(space.q).uniform(0.5, 1.0, (space.num_points, 2))
        P = len(probs)
        edges = np.arange(0, P, chunk // 2)
        inside = lambda idx: idx[idx < P]  # a last chunk of one or two points
        probs[inside(np.concatenate([edges, edges[1:] - 1, [P - 1]]))] = 0.0
        probs[inside(edges[1:] + 1), 0] = 0.0
        probs[inside(edges[1:] + 2), 1] = 0.0
        dist = JointDistribution(space, probs / probs.sum())
        mask = dist.support_mask()
        assert mask.dtype == np.bool_ and not mask.flags.writeable
        assert np.array_equal(mask, dist.probs.sum(axis=1) > 0)
        assert dist._support_bits.tobytes() == np.packbits(mask).tobytes()
        assert dist._cdf_ends.tobytes() == reference_block_ends(dist).tobytes()

    def test_cdf_ends_carry_across_chunks(self):
        dist = generate_scenario("pair-epistasis", 10, 2)  # 118098 atoms: two chunks
        assert dist._cdf_ends.shape == (7382,)
        assert dist._cdf_ends.tobytes() == reference_block_ends(dist).tobytes()

    @given(dist=st.one_of(small_distributions(max_n=3, max_q=3), block_edge_tables()),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_support_mask_serves_any_range(self, dist, data):
        # bounds on and off byte edges, negative, past the end and reversed,
        # read as a slice of the whole mask reads them
        P = dist.space.num_points
        bound = st.integers(-P - 9, P + 9)
        start, stop = data.draw(bound), data.draw(st.none() | bound)
        got = dist.support_mask(start, stop)
        assert got.dtype == np.bool_ and not got.flags.writeable
        assert np.array_equal(got, dist.support_mask()[start:stop])
        assert np.array_equal(dist.support_mask(start), dist.support_mask()[start:])


CHUNK_DRAWS = CDF_CHUNK // CDF_BLOCK  # sorted draws searched at a time


class TestSortedChunks:
    """With fewer draws than atoms, the draws are sorted and searched
    CHUNK_DRAWS at a time, each chunk re-summing only its own blocks; every
    atom is still the one a search of the full sequential CDF finds."""

    @pytest.mark.parametrize("size", [1, CHUNK_DRAWS - 1, CHUNK_DRAWS, CHUNK_DRAWS + 1,
                                      3 * CHUNK_DRAWS + 5])
    @given(seed=st.integers(0, 2**32 - 1), zeros=st.sampled_from([0.0, 0.5, 0.95]))
    @settings(max_examples=8, deadline=None)
    def test_atom_index_matches_full_cdf_search(self, size, seed, zeros):
        # 39366 atoms, some of them zero; half the draws sit on a CDF value or
        # one ulp either side, a third repeat another draw, none are sorted
        rng = np.random.default_rng(seed)
        w = rng.random(2 * 3**9)
        w[rng.random(w.size) < zeros] = 0.0
        dist = JointDistribution(FactorSpace(9, 2), (w / w.sum()).reshape(-1, 2))
        c = reference_cdf(dist)
        exact = c[c < 1.0]
        near = np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0), [0.0]])
        near = near[near < 1.0]
        u = np.where(rng.random(size) < 0.5, near[rng.integers(near.size, size=size)],
                     rng.random(size))
        u[rng.integers(size, size=size // 3)] = u[rng.integers(size, size=size // 3)]
        assert c.size > u.size
        got = _atom_index(dist, u)
        want = np.searchsorted(c, u, side="right")
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_peak_grows_by_a_few_int64_per_draw(self):
        # 1.06M atoms: the chunks' re-summed blocks stay within CDF_CHUNK
        # atoms, so 16x more draws add only the sort order and the result
        dist = generate_scenario("pair-epistasis", 12, 2)
        u = np.random.default_rng(1).random(16 * CHUNK_DRAWS)
        _atom_index(dist, u[:10])  # first-call allocations off the books
        peaks = []
        for size in (CHUNK_DRAWS, 16 * CHUNK_DRAWS):
            tracemalloc.start()
            try:
                _atom_index(dist, u[:size])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 3 * 8 * 15 * CHUNK_DRAWS  # three int64 per added draw


class TestGuideTableOnce:
    """A distribution builds its small-table sampler once, on first use."""

    def test_guide_table_is_built_once_and_pickled_with_the_table(self):
        dist = generate_scenario("pair-epistasis", 3, 2)  # 54 atoms
        assert "_guide" not in vars(dist)
        with mock.patch("mdrcv.model._guide_table", wraps=model_guide_table) as build:
            first = sample(dist, 100, 1)
            again = sample(dist, 200, [2, 3])
            assert build.call_count == 1
            copy = pickle.loads(pickle.dumps(dist))
            assert np.array_equal(sample(copy, 200, [2, 3]).x, again.x)
            assert build.call_count == 1  # the copy carries the table
            fresh = pickle.loads(pickle.dumps(generate_scenario("pair-epistasis", 3, 2)))
            for got, want in ((sample(fresh, 100, 1), first), (sample(fresh, 200, [2, 3]), again)):
                assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
            assert build.call_count == 2
        guide, lo, rounds, pad, grid = dist._guide
        assert not (lo.flags.writeable or pad.flags.writeable or grid.flags.writeable)
        assert np.array_equal(pad[: dist.probs.size], reference_cdf(dist))
        assert np.array_equal(grid, grid_reference(dist.space))

    def test_large_table_builds_no_guide_table(self):
        dist = generate_scenario("pair-epistasis", 9, 2)  # 39366 atoms
        sample(dist, 3000, 1)
        assert "_guide" not in vars(dist)
