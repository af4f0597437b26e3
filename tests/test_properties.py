"""Property tests over alpha and the truncation (test-only dependency: hypothesis)."""
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from ringsplit import (BarrierModel, cli, coefficient, expand,  # noqa: E402
                       oracle_coefficient, oracle_coefficients, post_insertion_cost,
                       reference_state, ring_overlap, shifted_state, sign_discrepancies,
                       truncation_sums)
from test_cli import assert_writers_match_references, table_rows  # noqa: E402


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1e-3, math.pi / 2), n_trunc=st.integers(1, 2000))
def test_closed_form_sums_match_dot_products(alpha, n_trunc):
    # the mode-by-mode route: dot products of the expand() arrays
    ref, sh = (expand(c, alpha, n_trunc) for c in ("reference", "shifted"))
    a, b, c, d = ref.norm_coeffs_1, ref.norm_coeffs_2, sh.norm_coeffs_1, sh.norm_coeffs_2
    sums = truncation_sums(alpha, n_trunc)
    assert math.isclose(sums.weight_1, a @ a, rel_tol=1e-13)
    assert math.isclose(sums.weight_1, c @ c, rel_tol=1e-13)
    assert math.isclose(sums.weight_2, b @ b, rel_tol=1e-13)
    assert math.isclose(sums.weight_2, d @ d, rel_tol=1e-13)
    # |sum A*C| <= sum A^2, so the weight sets the scale of the cross sums
    assert abs(sums.cross_1 - a @ c) <= 1e-13 * sums.weight_1
    assert abs(sums.cross_2 - b @ d) <= 1e-13 * sums.weight_2


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1e-3, math.pi / 2), n=st.integers(1, 60),
       kind=st.sampled_from("abcd"))
def test_closed_form_matches_oracle(alpha, n, kind):
    assert abs(coefficient(kind, n, alpha) - oracle_coefficient(kind, n, alpha)) <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1e-3, math.pi / 2))
def test_sign_log_is_kind_d_for_every_mode(alpha):
    log = sign_discrepancies(alpha, oracle_coefficients(alpha, 8))
    assert list(zip(log["kind"].tolist(), log["n"].tolist())) == [("d", n) for n in range(1, 9)]


#: alpha over the whole float64 range the closed forms accept, log-uniform
#: draws included so that tiny angles are not rare
ALPHAS = st.one_of(st.floats(1e-100, math.pi / 2),
                   st.floats(-100.0, 0.0).map(lambda e: 10.0 ** e))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=ALPHAS, n_max=st.integers(1, 10**4))
def test_shifted_coefficients_are_signed_reference_ones_bit_for_bit(alpha, n_max):
    n = np.arange(1, n_max + 1)
    sign = (-1.0) ** n
    assert np.array_equal(coefficient("c", n, alpha), sign * coefficient("a", n, alpha))
    assert np.array_equal(coefficient("d", n, alpha), sign * coefficient("b", n, alpha))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=ALPHAS, n_trunc=st.integers(1, 10**12))
def test_ideal_barriers_cost_nothing(alpha, n_trunc):
    report = post_insertion_cost(alpha, n_trunc, BarrierModel(0.0))
    assert report.cost_after == 0.0 <= report.cost_before


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=ALPHAS, n_trunc=st.integers(1, 10**12),
       epsilons=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
def test_cost_after_bounded_and_monotone_in_epsilon(alpha, n_trunc, epsilons):
    # not bounded by cost_before for epsilon > 0: at alpha = pi/2 the
    # candidates are orthogonal (cost_before 0), and cost_after is 0.0046 at
    # epsilon = 1 and N = 1000
    low, high = (post_insertion_cost(alpha, n_trunc, BarrierModel(eps)).cost_after
                 for eps in sorted(epsilons))
    assert 0.0 <= low <= high <= 0.5


#: alpha log-uniform over [1e-100, pi/2], both ends drawn too
LOG_ALPHAS = st.one_of(st.sampled_from((1e-100, math.pi / 2)),
                       st.floats(-100.0, math.log10(math.pi / 2))
                       .map(lambda e: min(10.0 ** e, math.pi / 2)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alphas=st.lists(LOG_ALPHAS, min_size=1, max_size=8))
def test_libm_columns_equal_the_ring_overlap_bit_for_bit(alphas):
    # the tables take cos and sin of each alpha from libm; the definition is
    # the overlap of the two RingStates and the sine of their offset
    report = post_insertion_cost(np.array(alphas), 10)
    parser = cli.build_parser()
    for i, alpha in enumerate(alphas):
        c = ring_overlap(reference_state(), shifted_state(alpha))
        s = math.sin(shifted_state(alpha).offset)
        assert report.overlap_before[i].hex() == min(1.0, c * c).hex()
        assert report.cost_before[i].hex() == (0.5 - 0.5 * abs(s)).hex()
        table = cli.run_parseval(parser.parse_args(["parseval", "--alpha", repr(alpha),
                                                    "--n-trunc", "10"]))
        (cell,) = next(table.blocks())[table.header.index("ring_overlap")]
        assert cell.hex() == c.hex()


#: row counts on both sides of the writer's break-even and of a block
WRITER_ROWS = (1, cli.BULK_ROWS - 1, cli.BULK_ROWS, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS,
               cli.BLOCK_ROWS + 1, cli.BLOCK_ROWS + cli.BULK_ROWS)
#: text that needs no CSV quoting: a %, a backslash, a tab and accents, and
#: a NUL, which only JSON takes (escaped as \u0000)
CELL_TEXT = st.text(st.sampled_from("ab %\\\té☃\0"), max_size=6)


def _drawn_floats(rng, kind, n):
    """n float64 values of one kind, drawn from ``rng``."""
    if kind == "bits":
        # every exponent, both signs: zeros, subnormals, NaN and infinities among them
        return rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    if kind == "decimal":
        # few significant digits, where repr is short
        return rng.integers(-10**6, 10**6, n) / 10.0 ** rng.integers(-20, 25, n)
    if kind == "scaled":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 307, n)
    # powers of two, and powers of ten with their neighbours, of both signs
    tens = 10.0 ** rng.integers(-300, 308, n)
    tens = np.where(rng.random(n) < 1 / 3, tens,
                    np.nextafter(tens, np.where(rng.random(n) < 0.5, 0.0, np.inf)))
    powers = np.where(rng.random(n) < 0.5, np.ldexp(1.0, rng.integers(-1074, 1024, n)), tens)
    return powers * rng.choice([-1.0, 1.0], n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_rows=st.sampled_from(WRITER_ROWS), part_rows=st.sampled_from((None, 7, cli.BULK_ROWS)),
       seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(("bits", "decimal", "scaled", "powers")),
                      min_size=1, max_size=3),
       specials=st.lists(st.floats(width=64), max_size=12),
       texts=st.lists(CELL_TEXT, min_size=1, max_size=4),
       constant=st.lists(st.booleans(), min_size=7, max_size=7))
def test_writers_match_references_on_drawn_columns(n_rows, part_rows, seed, kinds, specials,
                                                   texts, constant):
    # float bit patterns at every exponent (hypothesis adds +-0, subnormals,
    # NaN and infinities among the specials), int64 over its range, and
    # object columns of text and ints beyond int64; any column may hold one
    # value. Both writers must give the csv and json modules' text, with
    # Python's per-value formatting, whichever path a block takes; the CSV
    # writer's text is drawn without a NUL, which it refuses
    rng = np.random.default_rng(seed)
    columns = {}
    for i, kind in enumerate(kinds):
        values = _drawn_floats(rng, kind, n_rows)
        at = rng.integers(0, n_rows, len(specials))
        values[at] = specials
        columns[f"float_{kind}_{i}"] = values
    ints = rng.integers(-2**63, 2**63 - 1, n_rows, endpoint=True)
    ints[rng.integers(0, n_rows, 3)] = [-2**63, 2**63 - 1, 0]
    columns["int"] = ints
    columns["small_int"] = rng.integers(-3, 300, n_rows)
    columns["text"] = rng.integers(0, len(texts), n_rows)  # indices into each format's texts
    columns["big_int"] = np.array([2**64, -2**80 - 1, 7], dtype=object)[rng.integers(0, 3, n_rows)]
    for name, one in zip(list(columns), constant):
        if one:
            columns[name] = np.repeat(columns[name][:1], n_rows)
    step = part_rows or n_rows
    for fmt, words in (("json", texts), ("csv", [text.replace("\0", "") for text in texts])):
        drawn = {**columns, "text": np.array(words, dtype=object)[columns["text"]]}
        parts = [{name: col[start:start + step] for name, col in drawn.items()}
                 for start in range(0, n_rows, step)]
        assert_writers_match_references(parts, table_rows(drawn), (fmt,))
