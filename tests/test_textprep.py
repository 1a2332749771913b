"""Transcript normalization, chunking, and token sequence tests."""

import unicodedata

import pytest

from anchoralign import (
    MAX_WORDS_PER_UTT,
    TokenSequence,
    Utterance,
    build_token_sequence,
    estimate_time_refs,
    load_utterances,
    normalize_text,
    split_utterances,
)
from anchoralign.errors import EmptyTextError

# --- normalize_text ----------------------------------------------------------


def test_normalize_lowercases_and_drops_oov(spanish_vocab):
    assert normalize_text("Hola, Mundo!", spanish_vocab) == "hola mundo"


def test_normalize_collapses_whitespace(spanish_vocab):
    assert normalize_text("  uno \t dos\n\ntres  ", spanish_vocab) == "uno dos tres"


def test_normalize_applies_nfc(spanish_vocab):
    decomposed = "man" + "̃" + "ana"  # n + combining tilde
    assert unicodedata.normalize("NFC", decomposed) == "mañana"
    assert normalize_text(decomposed, spanish_vocab) == "mañana"


def test_normalize_is_idempotent(spanish_vocab):
    once = normalize_text("¿Qué tal? ¡BIEN!", spanish_vocab)
    assert normalize_text(once, spanish_vocab) == once


def test_normalize_keeps_vocab_punctuation(spanish_vocab):
    assert normalize_text("치de-facto치 d'oro", spanish_vocab) == "de-facto d'oro"


def test_normalize_rejects_empty_result(spanish_vocab):
    with pytest.raises(EmptyTextError):
        normalize_text("¿¡!? 123", spanish_vocab)
    with pytest.raises(EmptyTextError):
        normalize_text("   ", spanish_vocab)


# --- split_utterances --------------------------------------------------------


def test_split_chunks_by_word_count():
    words = [f"w{i}" for i in range(50)]
    utts = split_utterances(" ".join(words), max_words=24)
    assert [u.word_count for u in utts] == [24, 24, 2]
    assert [u.utt_index for u in utts] == [0, 1, 2]
    assert utts[0].text == " ".join(words[:24])
    assert utts[2].text == "w48 w49"
    assert " ".join(u.text for u in utts) == " ".join(words)


def test_split_single_short_text():
    utts = split_utterances("solo dos", max_words=MAX_WORDS_PER_UTT)
    assert len(utts) == 1
    assert utts[0] == Utterance(utt_index=0, text="solo dos", word_count=2)


def test_split_validates_inputs():
    with pytest.raises(ValueError):
        split_utterances("uno", max_words=0)
    with pytest.raises(EmptyTextError):
        split_utterances("   ")


# --- build_token_sequence ----------------------------------------------------


def test_token_sequence_layout(spanish_vocab):
    utts = [
        Utterance(utt_index=0, text="ab", word_count=1),
        Utterance(utt_index=1, text="c", word_count=1),
    ]
    ts = build_token_sequence(utts, spanish_vocab)
    a, b, c = (spanish_vocab.index_of[ch] for ch in "abc")
    sep = spanish_vocab.separator_index
    assert ts.tokens == (a, b, sep, c)
    assert ts.boundaries == ((0, 0, 1), (1, 3, 3))
    assert ts.padded_length == 6


def test_token_sequence_inner_spaces_are_tokens(spanish_vocab):
    utts = [Utterance(utt_index=0, text="a b", word_count=2)]
    ts = build_token_sequence(utts, spanish_vocab)
    assert ts.tokens == (
        spanish_vocab.index_of["a"],
        spanish_vocab.separator_index,
        spanish_vocab.index_of["b"],
    )
    assert ts.boundaries == ((0, 0, 2),)


def test_token_sequence_errors(spanish_vocab):
    with pytest.raises(EmptyTextError):
        build_token_sequence([], spanish_vocab)
    with pytest.raises(EmptyTextError):
        build_token_sequence(
            [Utterance(utt_index=0, text="a?b", word_count=1)], spanish_vocab
        )
    blank = spanish_vocab.symbols[spanish_vocab.blank_index]
    with pytest.raises(EmptyTextError):
        build_token_sequence(
            [Utterance(utt_index=0, text=f"a{blank}b", word_count=1)], spanish_vocab
        )
    with pytest.raises(EmptyTextError):
        build_token_sequence([Utterance(utt_index=0, text="", word_count=0)], spanish_vocab)


def test_token_sequence_is_plain_data(spanish_vocab):
    ts = build_token_sequence([Utterance(utt_index=7, text="ola", word_count=1)], spanish_vocab)
    assert isinstance(ts, TokenSequence)
    assert ts.boundaries[0][0] == 7  # keeps the caller's utterance index


# --- estimate_time_refs ------------------------------------------------------


def test_estimates_are_proportional_to_char_count():
    utts = [
        Utterance(utt_index=0, text="a" * 10, word_count=1),
        Utterance(utt_index=1, text="b" * 30, word_count=1),
    ]
    est = estimate_time_refs(utts, total_speech_s=8.0)
    assert est[0].est_duration_s == pytest.approx(2.0)
    assert est[1].est_duration_s == pytest.approx(6.0)
    assert sum(u.est_duration_s for u in est) == pytest.approx(8.0)
    assert [u.text for u in est] == [u.text for u in utts]  # only durations change


def test_estimate_validation():
    utts = [Utterance(utt_index=0, text="abc", word_count=1)]
    with pytest.raises(ValueError):
        estimate_time_refs(utts, total_speech_s=0.0)
    with pytest.raises(EmptyTextError):
        estimate_time_refs([Utterance(utt_index=0, text="", word_count=0)], 5.0)


# --- transcript files --------------------------------------------------------


def test_load_utterances_plain_lines_join(tmp_path, spanish_vocab):
    path = tmp_path / "plain.txt"
    path.write_text("Primera línea\nsegunda línea\n", encoding="utf-8")
    utts = load_utterances(path, spanish_vocab)
    assert [u.text for u in utts] == ["primera línea segunda línea"]


def test_load_utterances_captions_skip_blank_lines(tmp_path, spanish_vocab):
    path = tmp_path / "caps.txt"
    path.write_text("0.00 1.50 hola que tal\n\n2.0 3.5 adios\n", encoding="utf-8")
    utts = load_utterances(path, spanish_vocab)
    assert [u.text for u in utts] == ["hola que tal", "adios"]


def test_load_utterances_mixed_lines_stay_plain(tmp_path, spanish_vocab):
    # one non-caption line means the whole file is plain text, timestamps and all
    path = tmp_path / "mixed.txt"
    path.write_text("0.00 1.50 hola\nsin marcas\n", encoding="utf-8")
    utts = load_utterances(path, spanish_vocab)
    assert [u.text for u in utts] == ["hola sin marcas"]


def test_load_utterances_from_captions(tmp_path, spanish_vocab):
    path = tmp_path / "caps.txt"
    path.write_text(
        "0.0 1.0 Hola, que tal\n1.5 2.0 ¿?\n2.5 4.0 MUY bien\n", encoding="utf-8"
    )
    utts = load_utterances(path, spanish_vocab)
    # the all-punctuation line vanishes and indices stay dense
    assert [(u.utt_index, u.text) for u in utts] == [(0, "hola que tal"), (1, "muy bien")]


def test_load_utterances_splits_long_caption_lines(tmp_path, spanish_vocab):
    words = " ".join(f"pala{i % 10}" for i in range(30))
    path = tmp_path / "caps.txt"
    path.write_text(f"0.0 9.0 {words}\n9.5 10.0 fin\n", encoding="utf-8")
    utts = load_utterances(path, spanish_vocab, max_words=24)
    assert [u.word_count for u in utts] == [24, 6, 1]
    assert [u.utt_index for u in utts] == [0, 1, 2]


def test_load_utterances_plain_text_chunks(tmp_path, spanish_vocab):
    path = tmp_path / "plain.txt"
    path.write_text(" ".join(["si"] * 50), encoding="utf-8")
    utts = load_utterances(path, spanish_vocab, max_words=24)
    assert [u.word_count for u in utts] == [24, 24, 2]


def test_load_utterances_empty_raises(tmp_path, spanish_vocab):
    path = tmp_path / "void.txt"
    path.write_text("!!! ???\n", encoding="utf-8")
    with pytest.raises(EmptyTextError):
        load_utterances(path, spanish_vocab)
