"""On-disk formats: byte-exact round trips and eager validation."""

import json
import re

import pytest

from polyext import anf, rng
from polyext.anf import Polynomial
from polyext.constructions import build_evasive_h, build_seeded, build_two_source
from polyext.errors import BudgetExceededError
from polyext.gf2 import BitVector, binom_sum
from polyext.io import (
    descriptor_from_dict,
    descriptor_to_dict,
    emit_matrix,
    emit_polynomial,
    emit_source,
    load_json,
    parse_family,
    parse_matrix,
    parse_polynomial,
    parse_source,
)
from polyext.sources import (
    Affine,
    Flat,
    Local,
    LocalBit,
    PolynomialImage,
    Sumset,
    Variety,
)


def bv(text: str) -> BitVector:
    return BitVector.from_string(text)


# ---------------------------------------------------------------------------
# matrices


def test_matrix_round_trip_is_byte_exact():
    text = "101\n010\n"
    assert emit_matrix(parse_matrix(text)) == text


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        parse_matrix("10\n1\n")
    with pytest.raises(ValueError):
        parse_matrix("1x\n10\n")
    with pytest.raises(ValueError):
        parse_matrix("   \n")


# ---------------------------------------------------------------------------
# polynomials


def test_polynomial_canonical_emission():
    p = Polynomial.from_monomials(2, 2, [[0, 1]])
    assert emit_polynomial(p) == '{"d":2,"monomials":[[0,1]],"n":2}\n'


def test_polynomial_round_trip_random():
    from polyext.anf import sample_poly

    stream = rng.derive(20260823, "io", "poly")
    for _ in range(25):
        n = stream.randrange(1, 7)
        p = sample_poly(n, min(n, 3), stream)
        text = emit_polynomial(p)
        again = parse_polynomial(text)
        assert again == p
        assert emit_polynomial(again) == text


def test_polynomial_rejects_duplicate_index():
    with pytest.raises(ValueError, match="repeats"):
        parse_polynomial('{"d":2,"monomials":[[0,0]],"n":2}')


def test_polynomial_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="out of range"):
        parse_polynomial('{"d":1,"monomials":[[2]],"n":2}')


def test_polynomial_rejects_overweight_monomial():
    with pytest.raises(ValueError, match="degree cap"):
        parse_polynomial('{"d":1,"monomials":[[0,1]],"n":2}')


def test_polynomial_past_the_monomial_budget_is_refused_before_its_order():
    with pytest.raises(BudgetExceededError, match="monomials"):
        parse_polynomial('{"d":3,"monomials":[],"n":120}')
    # a degree cap far past n costs no more than a small one to refuse
    with pytest.raises(BudgetExceededError):
        parse_family('[{"d":100000,"monomials":[],"n":100000}]')
    # n + 1 monomials pass the count, but their n-bit masks would take about n^2/16 bytes
    with pytest.raises(BudgetExceededError, match="masks"):
        parse_polynomial('{"n":100000,"d":1,"monomials":[]}')
    with pytest.raises(ValueError, match="nonnegative"):
        parse_polynomial('{"d":1,"monomials":[],"n":-1}')


def test_monomial_budget_check_is_exact(monkeypatch):
    monkeypatch.setattr(anf, "MONOMIAL_BUDGET", 1 << 4)
    for n in range(13):
        for d in range(13):
            text = json.dumps({"n": n, "d": d, "monomials": []})
            if binom_sum(n, d) > 1 << 4:
                with pytest.raises(BudgetExceededError):
                    parse_polynomial(text)
            else:
                assert parse_polynomial(text).order.size == binom_sum(n, d)


def test_polynomial_rejects_malformed_json():
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_polynomial("{nope")
    with pytest.raises(ValueError, match="object"):
        parse_polynomial("[1,2]")


# ---------------------------------------------------------------------------
# sources, all six kinds


def _example_sources():
    flat = Flat(2, (bv("00"), bv("11")))
    yield flat
    yield Affine(3, bv("100"), (bv("010"),))
    yield Sumset(flat, Flat(2, (bv("01"),)))
    yield Local(2, 2, (LocalBit((0, 1), (0, 1, 1, 0)),))
    yield PolynomialImage(3, (Polynomial.from_monomials(3, 2, [[0, 1]]),
                              Polynomial.from_monomials(3, 2, [[2]])))
    yield Variety(2, (Polynomial.from_monomials(2, 1, [[0]]),))


def test_source_round_trips_every_kind():
    for src in _example_sources():
        text = emit_source(src)
        again = parse_source(text)
        assert again == src
        assert emit_source(again) == text


def test_source_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown source type"):
        parse_source('{"type":"mystery"}')


def test_source_rejects_nonflat_sumset_summand():
    affine = emit_source(Affine(2, bv("00"), ())).strip()
    flat = emit_source(Flat(2, (bv("01"),))).strip()
    with pytest.raises(ValueError, match="flat"):
        parse_source(f'{{"type":"sumset","x":{affine},"y":{flat}}}')


def test_source_rejects_bad_local_table():
    with pytest.raises(ValueError, match="0/1"):
        parse_source('{"type":"local","r":1,"m":1,"bits":[{"inputs":[0],"table":"0x"}]}')


def test_source_rejects_wrong_length_offset():
    with pytest.raises(ValueError, match="offset"):
        parse_source('{"type":"affine","n":3,"offset":"10","basis":[]}')


@pytest.mark.parametrize(
    "parse, text, field",
    [
        (parse_source, '{"type":"local","r":1,"m":1,"bits":[{"inputs":[0],"table":[0,1]}]}',
         "bits[0].table"),
        (parse_source, '{"type":"local","r":1,"m":1,"bits":[[0]]}', "bits[0]"),
        (parse_source, '{"type":"local","r":1,"m":1,"bits":[{"inputs":["0"],"table":"01"}]}',
         "bits[0].inputs"),
        (parse_source, '{"type":"flat","n":"2","support":["00"]}', "n"),
        (parse_source, '{"type":"sumset","x":[],"y":{}}', "x"),
        (parse_source, '{"type":"sumset","x":{"type":"flat","n":1,"support":[0]},"y":{}}',
         "x.support[0]"),
        (parse_source, '{"type":"variety","n":1,"polys":[{"n":1,"d":1,"monomials":{}}]}',
         "polys[0].monomials"),
        (parse_source, '{"type":"affine","n":1,"basis":[]}', "offset"),
        (parse_polynomial, '{"d":1,"monomials":[0],"n":1}', "monomials[0]"),
        (parse_polynomial, '{"d":null,"monomials":[],"n":1}', "d"),
        (parse_family, '[{"d":1,"monomials":[],"n":1}, 3]', "[1]"),
    ],
)
def test_wrong_typed_field_is_named(parse, text, field):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)}: "):
        parse(text)


def test_family_must_be_an_array():
    with pytest.raises(ValueError, match="array"):
        parse_family('{"d":1,"monomials":[],"n":1}')


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_round_trips_reproduce_builders():
    for desc in (
        build_two_source(3, seed=5),
        build_seeded(n=6, t=3, d=2, seed=7),
        build_evasive_h(4, 2, seed=9),
    ):
        assert descriptor_from_dict(descriptor_to_dict(desc)) == desc


def test_descriptor_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown descriptor"):
        descriptor_from_dict({"kind": "mystery"})


def test_descriptor_rejects_wrong_typed_field():
    with pytest.raises(ValueError, match="^seed: "):
        descriptor_from_dict({"kind": "seeded", "n": 6, "t": 3, "d": 2, "seed": [7]})


# ---------------------------------------------------------------------------
# files


def test_save_and_load_json(tmp_path):
    path = tmp_path / "poly.json"
    p = Polynomial.from_monomials(3, 2, [[0], [1, 2]])
    path.write_text(emit_polynomial(p))
    assert load_json(path) == p.to_json_dict()
    assert parse_polynomial(path.read_text()) == p
