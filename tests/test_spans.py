import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexspan.spans import nearest_int_bracket, span_even


def test_bracket_examples():
    # 33 = [32 + 2/3] because 2/3 > 1/2; 48 = [48 + 1/6] because 1/6 < 1/2
    q = 2
    assert nearest_int_bracket(Fraction(6 * q * q + 4 * q) + Fraction(2, 3)) == 33
    assert nearest_int_bracket(Fraction(6 * q * q + 10 * q + 4) + Fraction(1, 6)) == 48
    assert nearest_int_bracket(Fraction(9, 2)) == 5  # boundary selects the upper integer
    assert nearest_int_bracket(Fraction(7, 2)) == 4
    assert nearest_int_bracket(-Fraction(1, 2)) == 0


@given(st.integers(-10**6, 10**6))
def test_bracket_fixes_integers(n):
    assert nearest_int_bracket(n) == n


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=97))
def test_bracket_window(x):
    b = nearest_int_bracket(x)
    assert x - Fraction(1, 2) < b <= x + Fraction(1, 2)


@pytest.mark.parametrize("l,expected", [(8, 33), (10, 48), (12, 67)])
def test_span_values(l, expected):
    cert = span_even(l)
    assert cert.span == expected == cert.formula_value
    assert cert.clique_size + cert.extra == cert.span


def test_span_certificate_fields():
    cert = span_even(10)
    assert cert.p == 5
    assert cert.clique_size == 46
    assert cert.extra == 2
    assert cert.parity_case == "p=2q+1"
    payload = json.loads(json.dumps(cert.to_dict()))
    assert payload == {
        "l": 10, "p": 5, "clique_size": 46, "extra": 2,
        "span": 48, "formula_value": 48, "parity_case": "p=2q+1",
    }
    assert list(cert.to_dict()) == ["l", "p", "clique_size", "extra", "span",
                                    "formula_value", "parity_case"]


@pytest.mark.parametrize("l", [9, 7, 11])
def test_odd_l_out_of_range(l):
    with pytest.raises(ValueError, match="odd"):
        span_even(l)


@pytest.mark.parametrize("l", [2, 4, 6, 0, -2])
def test_small_even_l_out_of_range(l):
    with pytest.raises(ValueError, match="small"):
        span_even(l)


def test_identity_full_range():
    for l in range(8, 201, 2):
        cert = span_even(l)  # raises internally on any identity breach
        p = l // 2
        assert cert.span == 1 + 3 * p * (p + 1) // 2 + p // 2
        q = p // 2
        if p % 2 == 0:
            assert cert.span == 6 * q * q + 4 * q + 1
        else:
            assert cert.span == 6 * q * q + 10 * q + 4
