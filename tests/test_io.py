"""On-disk formats: byte-exact round trips and eager validation."""

import dataclasses

import pytest

from polyext import rng
from polyext.anf import Polynomial
from polyext.codes import CodeView
from polyext.constructions import build_evasive_h, build_seeded, build_two_source
from polyext.gf2 import BitMatrix, BitVector, hamming_ball
from polyext.io import (
    certificate_from_dict,
    code_from_dict,
    code_to_dict,
    descriptor_from_dict,
    descriptor_to_dict,
    emit_matrix,
    emit_polynomial,
    emit_source,
    emit_vector,
    load_json,
    parse_matrix,
    parse_polynomial,
    parse_source,
    parse_vector,
    witness_from_dict,
)
from polyext.oracles import AttackWitness
from polyext.ranklab import eval_rank
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
# vectors and matrices


def test_vector_round_trip_is_byte_exact():
    assert emit_vector(parse_vector("0110\n")) == "0110\n"
    assert emit_vector(parse_vector("  10 ")) == "10\n"


def test_vector_rejects_junk():
    with pytest.raises(ValueError):
        parse_vector("")
    with pytest.raises(ValueError):
        parse_vector("012")


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


# ---------------------------------------------------------------------------
# codes, descriptors, witnesses, certificates


def test_code_round_trip():
    code = CodeView(BitMatrix(2, 4, [0b0011, 0b0101]))
    data = code_to_dict(code)
    again = code_from_dict(data)
    assert again.generator.row_words == code.generator.row_words
    assert code_to_dict(again) == data


def test_code_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        code_from_dict({"dim": 3, "length": 4, "rows": ["0011", "0101"]})


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


def test_witness_round_trip():
    w = AttackWitness(
        set_a=(bv("01"),),
        set_b=(bv("10"), bv("11")),
        value=1,
        verified=True,
        params={"t": 1},
    )
    again = witness_from_dict(w.to_json_dict())
    assert again == dataclasses.replace(w, verified=False)


def test_witness_rejects_mixed_lengths():
    data = AttackWitness((bv("01"),), (bv("10"), bv("110")), 1, False).to_json_dict()
    with pytest.raises(ValueError, match="one length"):
        witness_from_dict(data)


def test_witness_rejects_empty_sets_and_bad_value():
    good = AttackWitness((bv("0"),), (bv("1"),), 0, False).to_json_dict()
    for field, bad in (("set_a", []), ("value", 2)):
        data = dict(good)
        data[field] = bad
        with pytest.raises(ValueError):
            witness_from_dict(data)


def test_certificate_round_trip_reverifies():
    cert = eval_rank(hamming_ball(3, 1), 1)
    again = certificate_from_dict(cert.to_json_dict())
    assert again == cert


def test_certificate_rejects_dependent_witness():
    data = eval_rank(hamming_ball(3, 1), 1).to_json_dict()
    data["witness"][1] = data["witness"][0]
    with pytest.raises(ValueError, match="dependent"):
        certificate_from_dict(data)


def test_certificate_rejects_impossible_point_count():
    good = eval_rank(hamming_ball(3, 1), 1).to_json_dict()
    for point_count, message in ((good["rank"] - 1, "exceeds"), (0, "positive")):
        data = dict(good, point_count=point_count)
        with pytest.raises(ValueError, match=message):
            certificate_from_dict(data)


def test_certificate_rejects_rank_mismatch():
    data = eval_rank(hamming_ball(3, 1), 1).to_json_dict()
    data["rank"] = data["rank"] - 1
    with pytest.raises(ValueError, match="disagrees"):
        certificate_from_dict(data)


# ---------------------------------------------------------------------------
# files


def test_save_and_load_json(tmp_path):
    path = tmp_path / "poly.json"
    p = Polynomial.from_monomials(3, 2, [[0], [1, 2]])
    path.write_text(emit_polynomial(p))
    assert Polynomial.from_json_dict(load_json(path)) == p
