import pytest

from balseq.genfunc import (
    b_series,
    c_series,
    erratum_probe_c_numerator,
    expand,
    series_denominator,
)
from balseq.ring import SequenceParams

from conftest import oracle_b, oracle_c


def convolution_holds(series) -> bool:
    """expansion * denominator reproduces the numerator coefficientwise."""
    for n in range(len(series.expansion)):
        acc = 0
        for j, d in enumerate(series.denominator):
            if j > n:
                break
            acc += d * series.expansion[n - j]
        want = series.numerator[n] if n < len(series.numerator) else 0
        if acc != want:
            return False
    return True


class TestExpand:
    def test_b_series_k2(self):
        assert expand([0, 1], [1, -6, 1], 4) == [0, 1, 6, 35, 204]

    def test_c_series_k3(self):
        assert expand([1, -6], [1, -9, 2], 3) == [1, 3, 25, 219]

    def test_numerator_equal_denominator(self):
        den = [1, -12, 3]
        assert expand(den, den, 6) == [1, 0, 0, 0, 0, 0, 0]

    def test_negative_unit_constant_term(self):
        assert expand([-2, 1], [-1], 3) == [2, -1, 0, 0]

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            expand([1], [0, 1], 3)
        with pytest.raises(ValueError):
            expand([1], [], 3)

    def test_nonunit_constant_term_rejected(self):
        with pytest.raises(ValueError, match="exact division"):
            expand([1], [2, 1], 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            expand([1], [1], -1)


class TestSeries:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_b_series_matches_terms_to_200(self, k):
        series = b_series(SequenceParams(k), 200)
        assert list(series.expansion) == oracle_b(k, 200)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_c_series_matches_terms_to_200(self, k):
        series = c_series(SequenceParams(k), 200)
        assert list(series.expansion) == oracle_c(k, 200)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_convolution_reproduces_numerator(self, k):
        for series in (b_series(SequenceParams(k), 120), c_series(SequenceParams(k), 120)):
            assert series.denominator[0] == 1
            assert convolution_holds(series)

    def test_denominator_coefficients(self):
        assert series_denominator(SequenceParams(4)) == [1, -12, 3]

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            c_series(SequenceParams(2), 5, variant="original")


class TestPrintedNumeratorProbe:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_mismatch_at_n1_for_every_k(self, k):
        report = erratum_probe_c_numerator(SequenceParams(k), 50)
        assert report.inputs["first_mismatch"] == 1
        assert not report.holds
        # long-division: c_1 = num_1 + 3k*c_0 = 3(1+k) + 3k
        assert report.lhs == 3 + 6 * k
        assert report.rhs == 3

    def test_corrected_variant_has_no_mismatch_k2(self):
        series = c_series(SequenceParams(2), 50)
        assert list(series.expansion) == oracle_c(2, 50)

    def test_probe_requires_at_least_two_coefficients(self):
        with pytest.raises(ValueError):
            erratum_probe_c_numerator(SequenceParams(2), 0)
