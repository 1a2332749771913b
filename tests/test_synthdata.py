"""Synthetic posterior rendering, manifests, and the exhaustive oracle."""

import math

import numpy as np
import pytest

from anchoralign import (
    SynthSpec,
    SynthUtterance,
    Utterance,
    backtrack,
    build_token_sequence,
    compute_trellis,
    default_spanish_vocab,
    end_scores,
    load_ground_truth,
    oracle_best_path,
    parse_manifest,
    random_window,
    synth_posteriors,
    write_ground_truth,
    write_manifest,
)
from anchoralign.errors import ManifestError
from anchoralign.posterior_io import logsumexp
from anchoralign.synthdata import ORACLE_MAX_FRAMES, ORACLE_MAX_PADDED

FRAME_S = 0.02


def test_default_vocab_shape(spanish_vocab):
    assert spanish_vocab.size == 38
    assert spanish_vocab.symbols[spanish_vocab.blank_index] == "∅"
    assert spanish_vocab.separator_symbol == " "
    for ch in "añç'-":
        assert ch in spanish_vocab.text_charset


# --- posterior rendering -----------------------------------------------------


def test_two_frame_certain_utterance(spanish_vocab):
    spec = SynthSpec(
        utterances=(SynthUtterance(text="ab", start_s=0.0, end_s=2 * FRAME_S),),
        peak_prob=1.0,
        total_s=2 * FRAME_S,
    )
    pm, truths = synth_posteriors(spec, spanish_vocab)
    assert pm.n_frames == 2
    assert truths == [(0, 0, 1)]
    a, b = spanish_vocab.index_of["a"], spanish_vocab.index_of["b"]
    assert pm.data[0, a] == 0.0 and pm.data[1, b] == 0.0
    # all remaining mass is zero at peak 1.0
    off = np.delete(pm.data[0], a)
    assert (off == -np.inf).all()


def test_rendering_is_seeded_and_deterministic(spanish_vocab):
    spec = SynthSpec(
        utterances=(SynthUtterance(text="hola", start_s=0.5, end_s=1.0),),
        peak_prob=0.9,
        noise_seed=11,
        total_s=2.0,
    )
    pm1, t1 = synth_posteriors(spec, spanish_vocab)
    pm2, t2 = synth_posteriors(spec, spanish_vocab)
    assert pm1.data.tobytes() == pm2.data.tobytes()
    assert t1 == t2
    other = synth_posteriors(
        SynthSpec(utterances=spec.utterances, peak_prob=0.9, noise_seed=12, total_s=2.0),
        spanish_vocab,
    )[0]
    assert pm1.data.tobytes() != other.data.tobytes()


def test_rows_are_normalized_and_peaked(spanish_vocab):
    spec = SynthSpec(
        utterances=(SynthUtterance(text="casa", start_s=0.2, end_s=0.6),),
        peak_prob=0.9,
        noise_seed=3,
        total_s=1.0,
    )
    pm, truths = synth_posteriors(spec, spanish_vocab)
    mass = logsumexp(pm.data.astype(np.float64), axis=1)
    np.testing.assert_allclose(mass, 0.0, atol=1e-5)
    _, start, end = truths[0]
    positions = np.linspace(start, end, 4).round().astype(int)
    chars = [spanish_vocab.index_of[ch] for ch in "casa"]
    for pos, idx in zip((start, end), (chars[0], chars[-1])):
        assert math.exp(pm.data[pos, idx]) == pytest.approx(0.9, abs=1e-6)


def test_characters_spread_uniformly_over_span(spanish_vocab):
    # 6 tokens across a 12-frame span: every other frame carries a character
    spec = SynthSpec(
        utterances=(SynthUtterance(text="abc ab", start_s=1.0, end_s=1.0 + 12 * FRAME_S),),
        peak_prob=0.95,
        noise_seed=5,
        total_s=2.0,
    )
    pm, truths = synth_posteriors(spec, spanish_vocab)
    start = int(round(1.0 / FRAME_S))
    assert truths == [(0, start, start + 10)]
    tokens = [spanish_vocab.index_of[ch] for ch in "abc ab"]
    for offset, tok in zip(range(0, 12, 2), tokens):
        assert math.exp(pm.data[start + offset, tok]) == pytest.approx(0.95, abs=1e-6)
    # frames between characters schedule the blank at the span peak
    assert math.exp(pm.data[start + 1, spanish_vocab.blank_index]) == pytest.approx(
        0.95, abs=1e-6
    )


def test_gap_peak_controls_silence_frames(spanish_vocab):
    spec = SynthSpec(
        utterances=(SynthUtterance(text="dado", start_s=1.0, end_s=1.5),),
        peak_prob=0.9,
        gap_peak=0.98,
        noise_seed=7,
        total_s=3.0,
    )
    pm, _ = synth_posteriors(spec, spanish_vocab)
    blank = spanish_vocab.blank_index
    assert math.exp(pm.data[0, blank]) == pytest.approx(0.98, abs=1e-6)
    assert math.exp(pm.data[-1, blank]) == pytest.approx(0.98, abs=1e-6)
    # inside the span, non-character frames use the speech peak instead
    in_span = int(round(1.0 / FRAME_S)) + 1
    assert math.exp(pm.data[in_span, blank]) == pytest.approx(0.9, abs=1e-6)


def test_char_rate_packs_characters_into_leading_region(spanish_vocab):
    # 10 chars at 10 chars/s occupy 1 s of the 2 s span
    text = "abcdefghij"
    spec = SynthSpec(
        utterances=(SynthUtterance(text=text, start_s=0.0, end_s=2.0, char_rate=10.0),),
        peak_prob=0.9,
        noise_seed=9,
        total_s=2.5,
    )
    pm, truths = synth_posteriors(spec, spanish_vocab)
    _, start, end = truths[0]
    assert (start, end) == (0, 45)  # 10 chars over 50 frames, every 5th frame
    for i, ch in enumerate(text):
        pos = i * 5
        assert math.exp(pm.data[pos, spanish_vocab.index_of[ch]]) == pytest.approx(
            0.9, abs=1e-6
        )
    # past the speaking region the span falls back to the gap blank
    assert math.exp(pm.data[60, spanish_vocab.blank_index]) == pytest.approx(0.9, abs=1e-6)


def test_peak_scale_damps_one_utterance(spanish_vocab):
    spec = SynthSpec(
        utterances=(
            SynthUtterance(text="si", start_s=0.0, end_s=0.2),
            SynthUtterance(text="no", start_s=0.5, end_s=0.7, peak_scale=0.5),
        ),
        peak_prob=0.9,
        noise_seed=13,
        total_s=1.0,
    )
    pm, truths = synth_posteriors(spec, spanish_vocab)
    s = spanish_vocab.index_of["s"]
    n = spanish_vocab.index_of["n"]
    assert math.exp(pm.data[truths[0][1], s]) == pytest.approx(0.9, abs=1e-6)
    assert math.exp(pm.data[truths[1][1], n]) == pytest.approx(0.45, abs=1e-6)


def test_peak_one_alignment_recovers_truth_exactly(spanish_vocab):
    spec = SynthSpec(
        utterances=(SynthUtterance(text="mesa alta", start_s=0.3, end_s=0.7),),
        peak_prob=1.0,
        total_s=1.2,
    )
    pm, truths = synth_posteriors(spec, spanish_vocab)
    ts = build_token_sequence(
        [Utterance(utt_index=0, text="mesa alta", word_count=2)], spanish_vocab
    )
    tr = compute_trellis(pm.data.astype(np.float64), ts, spanish_vocab.blank_index)
    frames, _ = backtrack(tr)
    assert frames[0] == truths[0][1]
    assert frames[-2] == truths[0][2]  # last character before the blank
    assert end_scores(tr).max() == 0.0


@pytest.mark.parametrize(
    "spec_kwargs",
    [
        dict(utterances=(SynthUtterance(text="a", start_s=0.0, end_s=0.0),)),
        dict(utterances=(SynthUtterance(text="abcd", start_s=0.0, end_s=2 * FRAME_S),)),
        dict(
            utterances=(
                SynthUtterance(text="a", start_s=0.0, end_s=0.5),
                SynthUtterance(text="b", start_s=0.3, end_s=0.8),
            )
        ),
        dict(
            utterances=(SynthUtterance(text="a", start_s=0.0, end_s=0.5),), peak_prob=1.5
        ),
        dict(
            utterances=(SynthUtterance(text="a", start_s=0.0, end_s=0.5),), gap_peak=0.0
        ),
        dict(
            utterances=(SynthUtterance(text="a", start_s=0.0, end_s=0.5, char_rate=-1.0),)
        ),
        dict(utterances=(SynthUtterance(text="", start_s=0.0, end_s=0.5),)),
        dict(utterances=(SynthUtterance(text="a∅b", start_s=0.0, end_s=0.5),)),
        dict(
            utterances=(SynthUtterance(text="a", start_s=0.0, end_s=5.0),), total_s=1.0
        ),
        dict(utterances=(), frame_duration_s=0.0),
    ],
)
def test_rendering_rejects_bad_specs(spanish_vocab, spec_kwargs):
    with pytest.raises(ManifestError):
        synth_posteriors(SynthSpec(**spec_kwargs), spanish_vocab)


def test_default_total_pads_after_last_utterance(spanish_vocab):
    spec = SynthSpec(utterances=(SynthUtterance(text="ya", start_s=0.0, end_s=0.5),))
    pm, _ = synth_posteriors(spec, spanish_vocab)
    assert pm.duration_s == pytest.approx(1.5)


# --- exhaustive oracle -------------------------------------------------------


def test_oracle_tiny_hand_case():
    logp = np.log(np.array([[0.1, 0.9], [0.8, 0.2]]))  # blank=0, 'x'=1
    from anchoralign import TokenSequence

    ts = TokenSequence(tokens=(1,), boundaries=((0, 0, 0),))
    lp, path = oracle_best_path(logp, ts, blank_index=0)
    assert lp == pytest.approx(math.log(0.9 * 0.8), abs=1e-12)
    np.testing.assert_array_equal(path, [1, 2])


def test_oracle_free_endpoints():
    # best placement ignores cheap frames before and after the token
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.9, 0.1]])
    from anchoralign import TokenSequence

    ts = TokenSequence(tokens=(1,), boundaries=((0, 0, 0),))
    lp, path = oracle_best_path(np.log(probs), ts, blank_index=0)
    assert lp == pytest.approx(math.log(0.8 * 0.9), abs=1e-12)
    np.testing.assert_array_equal(path, [0, 1, 2])


def test_oracle_guards():
    from anchoralign import TokenSequence

    ts = TokenSequence(tokens=(1,), boundaries=((0, 0, 0),))
    with pytest.raises(ValueError):
        oracle_best_path(np.zeros((ORACLE_MAX_FRAMES + 1, 2)), ts, 0)
    big = TokenSequence(
        tokens=tuple([1] * (ORACLE_MAX_PADDED - 1)),
        boundaries=((0, 0, ORACLE_MAX_PADDED - 2),),
    )
    with pytest.raises(ValueError):
        oracle_best_path(np.zeros((4, 2)), big, 0)
    with np.errstate(divide="ignore"):
        dead = np.log(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        oracle_best_path(dead, ts, 0)


def test_random_window_is_seeded_and_normalized():
    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    for _ in range(50):
        w1, ts1, b1 = random_window(rng1)
        w2, ts2, b2 = random_window(rng2)
        assert np.array_equal(w1, w2) and ts1 == ts2 and b1 == b2
        assert w1.shape[0] <= 12
        assert ts1.padded_length <= 8
        assert 0 <= b1 < w1.shape[1]
        assert b1 not in ts1.tokens
        np.testing.assert_allclose(logsumexp(w1, axis=1), 0.0, atol=1e-9)


def test_tie_prone_windows_duplicate_rows():
    rng = np.random.default_rng(7)
    seen_dup = False
    for _ in range(50):
        w, _, _ = random_window(rng, tie_prone=True)
        rows = {tuple(np.round(row, 12)) for row in w}
        if len(rows) < w.shape[0]:
            seen_dup = True
    assert seen_dup  # shared quantized rows are what makes exact ties likely


# --- manifest and ground-truth files ------------------------------------------


def test_manifest_round_trip(tmp_path):
    spec = SynthSpec(
        utterances=(
            SynthUtterance(text="hola que tal", start_s=0.5, end_s=2.0),
            SynthUtterance(text="muy bien", start_s=3.25, end_s=4.5, peak_scale=0.5),
            SynthUtterance(text="gracias", start_s=5.0, end_s=6.0, peak_scale=0.5, char_rate=12.0),
            SynthUtterance(text="adios", start_s=7.0, end_s=8.0, peak_scale=0.5),
        ),
        frame_duration_s=0.02,
        peak_prob=0.85,
        noise_seed=123,
        gap_peak=0.98,
        total_s=10.0,
    )
    path = tmp_path / "corpus.manifest"
    write_manifest(path, spec)
    assert parse_manifest(path) == spec


def test_manifest_parsing_details(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        "#seed 42\n#peak 0.8\n#total 20\n"
        "0.0 1.0 uno\n"
        "#rate 15\n2.0 3.0 dos\n"
        "#rate none\n#peak_scale 0.25\n4.0 5.0 tres\n",
        encoding="utf-8",
    )
    spec = parse_manifest(path)
    assert spec.noise_seed == 42
    assert spec.peak_prob == 0.8
    assert spec.gap_peak is None
    assert spec.total_s == 20.0
    assert [u.char_rate for u in spec.utterances] == [None, 15.0, None]
    assert [u.peak_scale for u in spec.utterances] == [1.0, 1.0, 0.25]


@pytest.mark.parametrize(
    "content",
    [
        "#nonsense 3\n0.0 1.0 hola\n",
        "#seed\n",
        "#peak high\n",
        "0.0 hola\n",
        "cero uno hola\n",
    ],
)
def test_manifest_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ManifestError):
        parse_manifest(path)


def test_ground_truth_round_trip(tmp_path):
    truths = [(0, 50, 61), (1, 300, 344), (2, 620, 700)]
    path = tmp_path / "file.truth.tsv"
    write_ground_truth(path, truths)
    assert load_ground_truth(path) == truths
    assert path.read_text(encoding="utf-8").startswith("# utt_index")
