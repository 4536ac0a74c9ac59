import random

import pytest

from wicketlab.errors import (
    CapFileError,
    CapVerificationError,
    DimensionMismatchError,
    DomainTooLargeError,
)
from wicketlab.gf3 import (
    CapSet,
    all_vectors,
    decode,
    encode,
    f3_add,
    f3_neg,
    f3_scale,
    find_ap3,
    lift_cap,
    max_cap_exact,
    parse_cap_text,
    product_cap,
    string_to_vec,
    vec_to_string,
    verify_cap,
    write_cap_file,
)
from oracles import (
    ap3_free_cubic,
    binary_cap,
    max_cap_bruteforce,
    max_cap_first_dfs,
)


def test_arithmetic_small_cases():
    assert f3_add((1, 2), (2, 2)) == (0, 1)
    assert f3_neg((1, 2, 0)) == (2, 1, 0)
    assert f3_scale(2, (1, 2)) == (2, 1)


def test_arithmetic_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        f3_add((1,), (1, 2))


def test_encode_decode_roundtrip():
    for n in range(4):
        for i, v in enumerate(all_vectors(n)):
            assert encode(v) == i
            assert decode(i, n) == v


def test_vec_string_roundtrip():
    assert vec_to_string((1, 0, 2)) == "102"
    assert string_to_vec("102") == (1, 0, 2)
    assert string_to_vec(vec_to_string(())) == ()


def test_find_ap3_witness_is_canonical():
    witness = find_ap3([(0, 0), (0, 1), (0, 2), (1, 1)])
    assert witness == ((0, 0), (0, 1), (0, 2))
    third = f3_neg(f3_add(witness[0], witness[1]))
    assert third == witness[2]
    assert encode(witness[0]) < encode(witness[1]) < encode(witness[2])


def test_find_ap3_none_on_cap():
    assert find_ap3([(0, 0), (0, 1), (1, 0), (1, 1)]) is None


def test_is_ap3_free_matches_cubic_oracle():
    rng = random.Random(17)
    vecs = list(all_vectors(2))
    for _ in range(60):
        sample = rng.sample(vecs, rng.randrange(1, 8))
        assert (find_ap3(sample) is None) == ap3_free_cubic(sample)


def test_verify_cap_accepts_and_rejects():
    cap = verify_cap(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert cap.verified and len(cap) == 4
    with pytest.raises(CapVerificationError) as info:
        verify_cap(1, [(0,), (1,), (2,)])
    assert len(info.value.witness) == 3


def test_verify_cap_range_check():
    with pytest.raises(ValueError):
        verify_cap(1, [(3,)])
    with pytest.raises(DimensionMismatchError):
        verify_cap(2, [(0,)])


def test_binary_cap_sizes_and_freeness():
    for n in range(4):
        cap = binary_cap(n)
        assert len(cap) == 2 ** n
        assert cap.verified
        assert ap3_free_cubic(cap.sorted_elements)


def test_product_cap_sizes_and_freeness():
    left = binary_cap(2)
    right = binary_cap(1)
    prod = product_cap(left, right)
    assert prod.dimension == 3
    assert len(prod) == 8
    assert ap3_free_cubic(prod.sorted_elements)


def test_product_cap_requires_verified():
    raw = CapSet(dimension=1, elements=frozenset({(0,), (1,)}))
    with pytest.raises(ValueError):
        product_cap(raw, binary_cap(1))


def test_lift_cap_pads_leading_zeros():
    lifted = lift_cap(binary_cap(1), 3)
    assert lifted.dimension == 3
    assert lifted.elements == frozenset({(0, 0, 0), (0, 0, 1)})
    with pytest.raises(ValueError):
        lift_cap(binary_cap(2), 1)


def test_max_cap_exact_values():
    assert len(max_cap_exact(0)) == 1
    assert len(max_cap_exact(1)) == 2
    assert len(max_cap_exact(2)) == 4
    assert len(max_cap_exact(3)) == 9
    for n in (1, 2, 3):
        assert ap3_free_cubic(max_cap_exact(n).sorted_elements)


def test_max_cap_exact_matches_bruteforce_small():
    for n in (1, 2):
        assert len(max_cap_exact(n)) == max_cap_bruteforce(n)


def test_max_cap_exact_matches_backtracking_in_order():
    # The shared forbidden-set search picks the same cap as the
    # counter-based backtracking it replaced.
    for n in range(4):
        assert max_cap_exact(n).sorted_elements == max_cap_first_dfs(n)


def test_max_cap_exact_contains_the_frame():
    for n in (1, 2, 3):
        frame = {(0,) * n} | {
            tuple(int(i == j) for j in range(n)) for i in range(n)
        }
        assert frame <= max_cap_exact(n).elements


def test_max_cap_exact_dimension_guard():
    with pytest.raises(DomainTooLargeError):
        max_cap_exact(4)
    with pytest.raises(ValueError):
        max_cap_exact(-1)


def test_parse_cap_text_comments_and_blanks():
    cap = parse_cap_text("# header\n\n00\n01\n # more\n10\n11\n")
    assert len(cap) == 4 and cap.dimension == 2 and cap.verified


def test_parse_cap_text_empty_file():
    cap = parse_cap_text("")
    assert cap.dimension == 0 and len(cap) == 0 and cap.verified


def test_parse_cap_text_bad_digit_line_number():
    with pytest.raises(CapFileError) as info:
        parse_cap_text("00\n0x\n")
    assert "line 2" in str(info.value)


def test_parse_cap_text_length_mismatch():
    with pytest.raises(CapFileError) as info:
        parse_cap_text("00\n011\n")
    assert "line 2" in str(info.value)


def test_parse_cap_text_duplicate():
    with pytest.raises(CapFileError) as info:
        parse_cap_text("00\n01\n00\n")
    assert "line 3" in str(info.value)


def test_parse_cap_text_verifies():
    with pytest.raises(CapVerificationError):
        parse_cap_text("0\n1\n2\n")


def test_write_cap_file_roundtrip(tmp_path):
    cap = binary_cap(2)
    path = tmp_path / "cap.txt"
    write_cap_file(cap, path)
    first = path.read_bytes()
    write_cap_file(cap, path)
    assert path.read_bytes() == first
    text = first.decode()
    assert text.endswith("\n")
    again = parse_cap_text(text)
    assert again.elements == cap.elements
