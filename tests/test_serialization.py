import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supportminors.field import PrimeField
from supportminors.instance import MinRankInstance, gen_planted, gen_random, verify_solution
from supportminors.serialization import (
    FormatError,
    load_instance,
    parse_instance,
    parse_witness,
    save_instance,
    witness_path,
    write_instance,
    write_witness,
)

from oracle import ref_parse_instance, ref_write_instance

F5 = PrimeField(5)

TINY = MinRankInstance(
    F5, 2, 3, 2, 1,
    (np.array([[0, 1, 2], [3, 4, 0]]), np.array([[1, 1, 1], [0, 0, 2]])),
)

TINY_TEXT = (
    "minrank v1\n"
    "q 5\n"
    "m 2 n 3 K 2 r 1\n"
    "matrix 1\n"
    "0 1 2\n"
    "3 4 0\n"
    "matrix 2\n"
    "1 1 1\n"
    "0 0 2\n"
)

ONE_BY_ONE = "minrank v1\nq 5\nm 1 n 1 K 1 r 1\nmatrix 1\n3\n"


def test_exact_bytes():
    assert write_instance(TINY) == TINY_TEXT


def test_roundtrip_identity():
    assert parse_instance(TINY_TEXT) == TINY
    assert write_instance(parse_instance(write_instance(TINY))) == TINY_TEXT
    assert write_instance(parse_instance(ONE_BY_ONE)) == ONE_BY_ONE


def test_roundtrip_random_instances():
    for seed in range(5):
        inst = gen_random(PrimeField(32003), 4, 5, 3, seed=seed, r=2)
        assert parse_instance(write_instance(inst)) == inst


def test_file_roundtrip(tmp_path):
    path = tmp_path / "inst.mr"
    save_instance(path, TINY)
    assert load_instance(path) == TINY
    # Byte-identical regeneration.
    save_instance(tmp_path / "again.mr", load_instance(path))
    assert (tmp_path / "again.mr").read_bytes() == path.read_bytes()


def test_load_non_ascii_names_byte_offset(tmp_path):
    path = tmp_path / "inst.mr"
    path.write_bytes(ONE_BY_ONE.replace("3\n", "\u0663\n").encode("utf-8"))
    with pytest.raises(FormatError, match="non-ASCII byte 0xd9 at offset 40"):
        load_instance(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.replace("minrank v1", "minrank v2"),
        lambda t: t.replace("\n", "\r\n"),              # CRLF endings
        lambda t: t.replace("0 1 2\n", "0 1 2 \n"),     # trailing space
        lambda t: t.replace("0 1 2\n", "0 1\n"),        # short row
        lambda t: t.replace("0 1 2\n", "0 1 7\n"),      # entry >= q
        lambda t: t.replace("0 1 2\n", "0 1 -1\n"),     # negative entry
        lambda t: t.replace("0 1 2\n", "0 01 2\n"),     # non-canonical int
        lambda t: t.replace("matrix 2", "matrix 3"),
        lambda t: t + "extra\n",
        lambda t: t.rstrip("\n"),                        # missing final LF
        lambda t: t.replace("m 2 n 3 K 2 r 1", "m 2 n 3 K 2"),
        # Tokens that int() accepts but the writer never emits; at q = 11 each
        # would parse to an entry in range.
        lambda t: t.replace("0 1 2\n", "0 +1 2\n"),
        lambda t: t.replace("q 5", "q 11").replace("0 1 2\n", "0 1_0 2\n"),
        lambda t: t.replace("0 1 2\n", "0 \u0663 2\n"),    # ARABIC-INDIC DIGIT THREE
        lambda t: t.replace("0 1 2\n", " 0 1 2\n"),         # leading space
        lambda t: t.replace("0 1 2\n", "0  1 2\n"),         # double space
        lambda t: t.replace("0 1 2\n", "0\t1 2\n"),        # tab separator
        lambda t: t.replace("0 1 2\n", "0 1 \n"),           # empty last token
        lambda t: t.replace("3 4 0\n", "3 4 99999999999999999999\n"),  # above int64
    ],
)
def test_malformed_inputs_rejected(mutate):
    with pytest.raises(FormatError):
        parse_instance(mutate(TINY_TEXT))


@pytest.mark.parametrize(
    "text",
    [
        TINY_TEXT.replace("0 1 2\n", "0 abc 2\n"),
        ONE_BY_ONE.replace("matrix 1\n3\n", "matrix 1\n\n"),  # empty row
        TINY_TEXT.replace("q 5\n", "q x\n"),
        TINY_TEXT.replace("m 2 n 3", "m 2 n three"),
    ],
    ids=["entry", "empty-row", "q", "dimension"],
)
def test_non_integer_instance_tokens_raise_format_error(text):
    with pytest.raises(FormatError):
        parse_instance(text)


@pytest.mark.parametrize(
    "text",
    [
        TINY_TEXT.replace("q 5\n", "q 05\n"),
        TINY_TEXT.replace("m 2 n 3", "m 02 n 3"),
        TINY_TEXT.replace("q 5\n", "q 6\n"),
        TINY_TEXT.replace("K 2 r 1", "K 2 r 4"),
        TINY_TEXT.replace("m 2 n 3", "m -2 n 3"),
        ONE_BY_ONE.replace("K 1", "K 0").replace("matrix 1\n3\n", ""),
        TINY_TEXT.replace("q 5\n", "q +5\n"),
        TINY_TEXT.replace("q 5\n", "q 1_1\n"),
        TINY_TEXT.replace("m 2 n 3", "m \u0662 n 3"),
        TINY_TEXT.replace("q 5\n", " q 5\n"),
        TINY_TEXT.replace("m 2 n 3", "m 2  n 3"),
        TINY_TEXT.replace("q 5\n", "q\t5\n"),
        TINY_TEXT.replace("K 2 r 1", "K 2 r 1 "),
    ],
    ids=["q-leading-zero", "m-leading-zero", "q-not-prime", "r-above-n", "m-negative", "K-zero",
         "q-plus", "q-underscore", "m-non-ascii", "q-leading-space", "double-space", "q-tab",
         "empty-last-token"],
)
def test_header_errors_raise_format_error(text):
    with pytest.raises(FormatError):
        parse_instance(text)


@pytest.mark.parametrize(
    "text",
    [
        "minrank-witness v1\nq x\nK 2\nx 0 1\n",
        "minrank-witness v1\nq 5\nK two\nx 0 1\n",
        "minrank-witness v1\nq 5\nK 2\nx 0 abc\n",
        "minrank-witness v1\nq 5\nK 1\nx \n",
        "minrank-witness v1\nq 5\nK 02\nx 0 1\n",
        "minrank-witness v1\n7\nK 2\nx 0 1\n",
        "minrank-witness v1\nq 7\n2\nx 0 1\n",
        "minrank-witness v1\nq 7\nK 2\n0 1\n",
        "minrank-witness v1\nq  7\nK 2\nx 0 1\n",
        "minrank-witness v1\nq 6\nK 2\nx 0 1\n",
        "minrank-witness v1\nq 7\nK 2\nx -2 1\n",
        "minrank-witness v1\nq 7\nK 2\nx 0 9\n",
        "minrank-witness v1\nq 7\nK 2\nx 0 7\n",
        "minrank-witness v1\nq 7\nK 2\nx 0 +1\n",
        "minrank-witness v1\nq 11\nK 2\nx 0 1_0\n",
        "minrank-witness v1\nq 7\nK 2\nx 0 \u0663\n",
        "minrank-witness v1\nq 7\nK 2\nx  0 1\n",
        "minrank-witness v1\nq 7\nK 2\nx 0  1\n",
        "minrank-witness v1\nq 7\nK 2\nx 0\t1\n",
        "minrank-witness v1\nq 7\nK 2\nx 0 \n",
        "minrank-witness v1\nq 7\nK +2\nx 0 1\n",
        "minrank-witness v1\nq 1_1\nK 2\nx 0 1\n",
    ],
    ids=["q", "K", "coordinate", "empty-x", "K-leading-zero", "q-key-missing",
         "K-key-missing", "x-key-missing", "q-two-spaces", "q-not-prime",
         "coordinate-negative", "coordinate-above-q", "coordinate-equals-q",
         "coordinate-plus", "coordinate-underscore", "coordinate-non-ascii",
         "coordinate-leading-space", "coordinate-double-space", "coordinate-tab",
         "coordinate-empty-last", "K-plus", "q-underscore"],
)
def test_non_integer_witness_tokens_raise_format_error(text):
    with pytest.raises(FormatError):
        parse_witness(text)


def test_witness_roundtrip():
    text = write_witness(5, (0, 3, 1))
    assert text == "minrank-witness v1\nq 5\nK 3\nx 0 3 1\n"
    assert parse_witness(text) == (5, (0, 3, 1))
    with pytest.raises(FormatError):
        parse_witness(text.replace("K 3", "K 4"))
    with pytest.raises(FormatError):
        parse_witness("nope\n")


def test_witness_against_reloaded_instance(tmp_path):
    inst, x = gen_planted(PrimeField(7), 3, 3, 2, 1, seed=5)
    p = tmp_path / "planted.mr"
    save_instance(p, inst)
    witness_path(p).write_text(write_witness(7, x))
    reloaded = load_instance(p)
    _, wx = parse_witness(witness_path(p).read_text())
    assert verify_solution(reloaded, wx)


def _of_length(q: int):
    """Entries below q with a digit count drawn first, so every length occurs."""
    return st.integers(1, len(str(q - 1))).flatmap(
        lambda k: st.integers(10 ** (k - 1) if k > 1 else 0, min(10**k, q) - 1))


@st.composite
def instances(draw):
    """Instances over the five test fields, entries biased to 0 and q - 1
    or spread over every digit length."""
    q = draw(st.sampled_from([2, 3, 7, 32003, 2**31 - 1]))
    m, n, K = (draw(st.integers(1, 4)) for _ in range(3))
    r = draw(st.integers(1, n))
    fill = draw(st.sampled_from(["zero", "top", "mixed", "lengths"]))
    entry = {"zero": st.just(0), "top": st.just(q - 1),
             "mixed": st.sampled_from([0, q - 1]) | st.integers(0, q - 1),
             "lengths": _of_length(q)}[fill]
    values = draw(st.lists(entry, min_size=K * m * n, max_size=K * m * n))
    return MinRankInstance(PrimeField(q), m, n, K, r, np.array(values).reshape(K, m, n))


@settings(max_examples=150, deadline=None)
@given(instances())
@example(MinRankInstance(PrimeField(2**31 - 1), 1, 1, 1, 1, np.array([[[2**31 - 2]]])))
@example(MinRankInstance(PrimeField(2), 1, 1, 1, 1, np.zeros((1, 1, 1), dtype=np.int64)))
@example(MinRankInstance(PrimeField(100000007), 1, 3, 1, 1,  # 9 digits: two uint64 reads
                         np.array([[[100000006, 99999999, 10000000]]])))
def test_roundtrip_property(inst):
    text = write_instance(inst)
    assert text == ref_write_instance(inst)
    assert parse_instance(text) == inst
    assert write_instance(parse_instance(text)) == text


# One-character edits of a valid file: a digit, a separator, or a character
# that the format never holds (CR, tab, sign, underscore, letter, non-ASCII digit).
EDIT_CHARS = list("0123456789 \n\r\t+-_a\u0663")


@settings(max_examples=400, deadline=None)
@given(instances(), st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 10**6),
       st.sampled_from(EDIT_CHARS))
def test_single_edit_matches_reference(inst, op, pos, char):
    text = write_instance(inst)
    pos %= len(text) + (op == "insert")
    edited = text[:pos] + (char if op != "delete" else "") + text[pos + (op != "insert"):]
    try:
        want = ref_parse_instance(edited)
    except FormatError:
        with pytest.raises(FormatError):
            parse_instance(edited)
    else:
        assert parse_instance(edited) == want


TWO_BY_THREE = (
    "minrank v1\n"
    "q 101\n"
    "m 2 n 3 K 2 r 1\n"
    "matrix 1\n"
    "0 1 2\n"
    "3 4 5\n"
    "matrix 2\n"
    "6 7 8\n"
    "9 10 100\n"
)


@pytest.mark.parametrize(
    "row, message",
    [
        ("9 10\n", "matrix 2 row 1 is not 3 canonical integers separated by single spaces"),
        ("9 1x 100\n", "matrix 2 row 1 is not 3 canonical integers separated by single spaces"),
        ("9 010 100\n", "matrix 2 row 1 is not 3 canonical integers separated by single spaces"),
        ("9 10 101\n", "matrix 2 row 1 has an entry outside [0, 101)"),
        ("9 10 99999999999999999999\n", "matrix 2 row 1 has an entry outside [0, 101)"),
        ("9 10 100000000\n", "matrix 2 row 1 has an entry outside [0, 101)"),
    ],
    ids=["short-row", "bad-token", "leading-zero", "out-of-range", "above-int64",
         "last-8-digits-in-range"],
)
def test_row_errors_name_matrix_and_row(row, message):
    text = TWO_BY_THREE.replace("9 10 100\n", row)
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert str(err.value) == message
    with pytest.raises(FormatError) as ref_err:
        ref_parse_instance(text)
    assert str(ref_err.value) == message
