"""Vocabulary, posterior container, and speech-region I/O tests."""

import hashlib
import math
import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from anchoralign import (
    FrameMap,
    PosteriorMatrix,
    SpeechRegions,
    Vocab,
    apply_speech_regions,
    identity_frame_map,
    load_posteriors,
    load_regions,
    load_vocab,
    map_frames_back,
    save_posteriors,
    save_regions,
    save_vocab,
)
from anchoralign.errors import (
    FrameMapError,
    NoSpeechError,
    PosteriorFormatError,
    SpeechRegionsError,
    VocabFormatError,
)
from anchoralign import posterior_io
from anchoralign.posterior_io import (
    _MASS_BLOCK_ROWS,
    _MASS_MARGIN,
    ROW_MASS_TOL,
    _kept_runs,
    logsumexp,
)


def _rand_logp(rng, n_frames, n_symbols, dtype=np.float32):
    probs = rng.random((n_frames, n_symbols)) + 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    return np.log(probs).astype(dtype)


# --- logsumexp ---------------------------------------------------------------

# sha256 of the bytes _logsumexp_outputs writes, computed with
# scipy.special.logsumexp 1.17.1; the package's scores inherit these bits
LOGSUMEXP_SHA256 = "497db8711e4c4573f369e6b1239874710e03255bb06f7218a7d43c125965cd14"


def _logsumexp_outputs(lse):
    """Seeded fragments with tied maxima, -inf frames and all--inf runs, plus
    posterior rows, through lse over both axes; returns the output bytes."""
    rng = np.random.default_rng(31)
    out = []
    for _ in range(400):
        frag = np.log(rng.random(int(rng.integers(1, 61))))
        if rng.random() < 0.5:
            frag = np.round(frag, int(rng.integers(0, 3)))
        frag[rng.random(frag.size) < 0.1] = -np.inf
        if rng.random() < 0.05:
            frag[:] = -np.inf
        out.append(np.float64(lse(frag)))
    rows = _rand_logp(rng, 300, 38).astype(np.float64)
    rows[:100] = np.round(rows[:100], 1)
    rows[rng.random(rows.shape) < 0.02] = -np.inf
    rows[-3:] = -np.inf
    for axis in (0, 1, None):
        out.append(lse(rows, axis=axis))
    return b"".join(np.asarray(x, dtype=np.float64).tobytes() for x in out)


def test_logsumexp_bits_are_pinned():
    assert hashlib.sha256(_logsumexp_outputs(logsumexp)).hexdigest() == LOGSUMEXP_SHA256


def test_logsumexp_exact_cases():
    x = -3.25
    assert logsumexp(np.array([x, x])) == math.log(2) + x
    assert logsumexp(np.array([x, -np.inf, x, x])) == math.log(3) + x
    assert logsumexp(np.array([1000.0, 1000.0])) == math.log(2) + 1000.0
    assert logsumexp(np.array([-0.5])) == -0.5
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    assert isinstance(logsumexp(np.zeros(3)), np.float64)
    rows = np.array([[0.0, -np.inf], [-np.inf, -np.inf], [x, x]])
    assert logsumexp(rows, axis=1).tolist() == [0.0, -np.inf, math.log(2) + x]
    assert logsumexp(rows, axis=0).shape == (2,)


# --- vocab -------------------------------------------------------------------


def test_vocab_round_trip(tmp_path, spanish_vocab):
    path = tmp_path / "vocab.txt"
    save_vocab(path, spanish_vocab)
    loaded = load_vocab(path)
    assert loaded == spanish_vocab
    assert loaded.checksum() == spanish_vocab.checksum()


def test_vocab_properties(spanish_vocab):
    assert spanish_vocab.size == 38
    assert spanish_vocab.blank_index == 0
    assert spanish_vocab.separator_symbol == " "
    assert spanish_vocab.index_of["a"] == 2
    assert " " in spanish_vocab.text_charset
    assert spanish_vocab.symbols[0] not in spanish_vocab.text_charset


def test_text_charset_skips_multichar_symbols():
    vocab = Vocab(symbols=("<b>", " ", "a", "sil"), blank_index=0, separator_index=1)
    assert vocab.text_charset == frozenset({" ", "a"})


def test_vocab_validation_errors():
    with pytest.raises(VocabFormatError):
        Vocab(symbols=("x",), blank_index=0, separator_index=0)
    with pytest.raises(VocabFormatError):
        Vocab(symbols=("x", "x"), blank_index=0, separator_index=1)
    with pytest.raises(VocabFormatError):
        Vocab(symbols=("x", "y"), blank_index=0, separator_index=5)
    with pytest.raises(VocabFormatError):
        Vocab(symbols=("x", "y"), blank_index=1, separator_index=1)
    with pytest.raises(VocabFormatError):
        Vocab(symbols=("x", ""), blank_index=0, separator_index=1)


@pytest.mark.parametrize(
    "content",
    [
        "#separator 1\n0\tx\n1\t \n",  # no blank directive
        "#blank 0\n0\tx\n1\t \n",  # no separator directive
        "#blank 0\n#separator 1\n",  # no entries
        "#blank 0\n#separator 1\n0\tx\n2\ty\n",  # index gap
        "#blank 0\n#separator 1\n0\tx\n0\ty\n",  # duplicate index
        "#blank 0\n#separator 1\nnot a line\n",  # missing tab
        "#blank zero\n#separator 1\n0\tx\n",  # bad directive value
    ],
)
def test_load_vocab_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(VocabFormatError):
        load_vocab(path)


@pytest.mark.parametrize(
    "content, message",
    [
        ("#separator 1\n0\tx\n1\t \n", "missing #blank directive"),
        ("#blank 0\n0\tx\n1\t \n", "missing #separator directive"),
        ("#blank 0\n#separator 1\n", "no symbol entries"),
        ("#blank 0\n#separator 1\n0\tx\n2\ty\n", "symbol indices must cover 0..V-1"),
        # and each error of Vocab itself
        ("#blank 0\n#separator 1\n0\tx\n", "vocab needs at least blank and separator"),
        ("#blank 0\n#separator 1\n0\tx\n1\tx\n", "vocab symbols are not unique"),
        ("#blank 0\n#separator 2\n0\tx\n1\t \n", "separator index 2 out of range"),
        ("#blank 0\n#separator 0\n0\tx\n1\t \n", "blank and separator must be distinct"),
        ("#blank 0\n#separator 1\n0\tx\n1\t \n2\t\n", "empty symbol"),
    ],
)
def test_a_vocab_error_of_the_whole_file_names_the_file(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(VocabFormatError, match=re.escape(f"{path}: {message}")):
        load_vocab(path)


def test_vocab_checksum_tracks_content(spanish_vocab):
    other = Vocab(
        symbols=spanish_vocab.symbols,
        blank_index=spanish_vocab.blank_index,
        separator_index=2,
    )
    assert other.checksum() != spanish_vocab.checksum()


def test_default_vocab_checksum_is_pinned(spanish_vocab):
    # every PosteriorMatrix.vocab_id of the default vocab is this hex: the
    # vocab text it hashes must not drift
    want = "7f588369c9581f48769ad92771e4d97e389c1609dd35e9fb180e94908362025a"
    assert spanish_vocab.checksum() == want


def test_vocab_checksum_hashes_the_saved_file(tmp_path, spanish_vocab):
    path = tmp_path / "vocab.txt"
    save_vocab(path, spanish_vocab)
    blob = path.read_bytes()
    assert blob.endswith(b"\n") and hashlib.sha256(blob[:-1]).hexdigest() == spanish_vocab.checksum()


# --- posterior matrix --------------------------------------------------------


def test_posterior_properties():
    rng = np.random.default_rng(0)
    pm = PosteriorMatrix(data=_rand_logp(rng, 50, 4), frame_duration_s=0.02)
    assert pm.n_frames == 50
    assert pm.n_symbols == 4
    assert pm.duration_s == pytest.approx(1.0)
    assert not pm.data.flags.writeable


def test_posterior_validation_errors():
    rng = np.random.default_rng(1)
    good = _rand_logp(rng, 5, 3)
    with pytest.raises(PosteriorFormatError):
        PosteriorMatrix(data=good[0], frame_duration_s=0.02)
    for bad_duration in (0.0, math.inf, math.nan):
        with pytest.raises(PosteriorFormatError):
            PosteriorMatrix(data=good, frame_duration_s=bad_duration)
    nan = good.copy()
    nan[2, 1] = np.nan
    with pytest.raises(PosteriorFormatError, match="NaN"):
        PosteriorMatrix(data=nan, frame_duration_s=0.02)
    positive = good.copy()
    positive[0, 0] = 0.5
    with pytest.raises(PosteriorFormatError, match="must be <= 0"):
        PosteriorMatrix(data=positive, frame_duration_s=0.02)
    positive[4, 2] = np.nan  # NaN is reported first, as before
    with pytest.raises(PosteriorFormatError, match="NaN"):
        PosteriorMatrix(data=positive, frame_duration_s=0.02)
    # rows are probability distributions; half mass is far outside tolerance
    unnormalized = np.log(np.full((4, 3), 1.0 / 6.0))
    with pytest.raises(PosteriorFormatError):
        PosteriorMatrix(data=unnormalized, frame_duration_s=0.02)


def test_row_mass_error_names_the_worst_row_across_blocks():
    # the check runs in row blocks; the message still names the worst row of the whole matrix
    rng = np.random.default_rng(6)
    data = _rand_logp(rng, 2 * _MASS_BLOCK_ROWS + 100, 4)
    data[10] += np.float32(math.log(0.8))  # out of tolerance, but not the worst
    worst = 2 * _MASS_BLOCK_ROWS + 7
    data[worst] += np.float32(math.log(0.5))
    data[worst + 1] = data[worst]  # a tie: the earlier row is named
    mass = logsumexp(data.astype(np.float64), axis=1)
    assert int(np.argmax(np.abs(mass))) == worst
    with pytest.raises(PosteriorFormatError, match=f"row {worst} log-mass {mass[worst]:.4f} "):
        PosteriorMatrix(data=data, frame_duration_s=0.02)


def _count_exact_checks(monkeypatch):
    """Count the rows posterior_io's logsumexp checks, one entry per call."""
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return logsumexp(a, *args, **kwargs)

    monkeypatch.setattr(posterior_io, "logsumexp", counting)
    return calls


def _verdict(data):
    """PosteriorMatrix's error message for data, or None if it accepts it."""
    try:
        PosteriorMatrix(data=data, frame_duration_s=0.02)
    except PosteriorFormatError as exc:
        return str(exc)
    return None


def _exact_verdict(data):
    """The check without the screen: the exact logsumexp on every row."""
    mass = logsumexp(data.astype(np.float64), axis=1)
    worst = int(np.argmax(np.abs(mass)))
    if abs(mass[worst]) <= ROW_MASS_TOL:
        return None
    return f"row {worst} log-mass {mass[worst]:.4f} outside +/-{ROW_MASS_TOL}"


@pytest.mark.parametrize("sign", [1, -1])
def test_rows_the_screen_cannot_decide_get_the_exact_check(monkeypatch, sign):
    rng = np.random.default_rng(8)
    data = _rand_logp(rng, 3 * _MASS_BLOCK_ROWS, 38)
    near = [5, _MASS_BLOCK_ROWS + 9]
    shift = sign * (ROW_MASS_TOL - _MASS_MARGIN / 2)
    data[near] = (_rand_logp(rng, 2, 38, np.float64) + shift).astype(np.float32)
    plain = np.log(np.exp(data[near]).sum(axis=1, dtype=np.float64))
    assert (np.abs(plain) > ROW_MASS_TOL - _MASS_MARGIN).all()  # outside the screen
    assert (np.abs(logsumexp(data[near].astype(np.float64), axis=1)) <= ROW_MASS_TOL).all()
    calls = _count_exact_checks(monkeypatch)
    PosteriorMatrix(data=data, frame_duration_s=0.02)
    assert calls == [_MASS_BLOCK_ROWS, _MASS_BLOCK_ROWS]  # the third block is screened


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sign", [1, -1])
def test_rows_just_outside_the_tolerance_are_rejected(sign, dtype):
    rng = np.random.default_rng(9)
    data = _rand_logp(rng, 100, 38, np.float64)
    data[40] += sign * (ROW_MASS_TOL + 1e-6)
    data = data.astype(dtype)
    mass = logsumexp(data[40].astype(np.float64))
    assert sign * mass > ROW_MASS_TOL
    with pytest.raises(PosteriorFormatError, match=rf"^row 40 log-mass {mass:.4f} outside "):
        PosteriorMatrix(data=data, frame_duration_s=0.02)


def test_an_all_minus_inf_row_is_rejected_without_a_warning():
    data = _rand_logp(np.random.default_rng(10), 50, 4)
    data[7] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PosteriorFormatError, match=r"^row 7 log-mass -inf outside \+/-0\.1$"):
            PosteriorMatrix(data=data, frame_duration_s=0.02)


def test_the_exact_check_runs_only_on_blocks_the_screen_cannot_accept(monkeypatch):
    rng = np.random.default_rng(11)
    data = _rand_logp(rng, 2 * _MASS_BLOCK_ROWS + 100, 38)
    calls = _count_exact_checks(monkeypatch)
    PosteriorMatrix(data=data.copy(), frame_duration_s=0.02)
    assert calls == []
    data[_MASS_BLOCK_ROWS + 3] += np.float32(math.log(0.5))
    with pytest.raises(PosteriorFormatError, match=f"row {_MASS_BLOCK_ROWS + 3} "):
        PosteriorMatrix(data=data, frame_duration_s=0.02)
    assert calls == [_MASS_BLOCK_ROWS]


def test_the_screened_check_decides_as_the_exact_one():
    # rows shifted to masses up to just past either side of the tolerance:
    # accept or reject, and the message, are the exact check's
    rng = np.random.default_rng(12)
    verdicts = set()
    for _ in range(24):
        data = _rand_logp(rng, _MASS_BLOCK_ROWS + 500, 8, np.float64)
        rows = rng.choice(len(data), size=int(rng.integers(1, 40)), replace=False)
        bound = rng.uniform(ROW_MASS_TOL - 2 * _MASS_MARGIN, ROW_MASS_TOL + _MASS_MARGIN)
        shifts = bound * rng.uniform(0.99, 1, len(rows)) * rng.choice([-1, 1], len(rows))
        data[rows] += shifts[:, None]
        data = data.astype(np.float32)
        want = _exact_verdict(data)
        assert _verdict(data) == want
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_load_peak_memory_is_bounded(tmp_path):
    # no bytes copy of the payload and no float64 copy of the matrix: validation
    # works in row blocks, so the peak stays under twice the float32 matrix
    rng = np.random.default_rng(7)
    pm = PosteriorMatrix(data=_rand_logp(rng, 50_000, 38), frame_duration_s=0.02)
    path = tmp_path / "big.ctcp"
    save_posteriors(path, pm)
    del pm
    tracemalloc.start()
    try:
        loaded = load_posteriors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * loaded.data.nbytes


# --- binary container --------------------------------------------------------


def test_binary_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    pm = PosteriorMatrix(data=_rand_logp(rng, 200, 38), frame_duration_s=0.02)
    path = tmp_path / "file.ctcp"
    save_posteriors(path, pm)
    loaded = load_posteriors(path)
    assert loaded.data.dtype == np.float32
    assert np.array_equal(loaded.data, pm.data)
    assert loaded.data.tobytes() == pm.data.tobytes()
    assert loaded.frame_duration_s == pytest.approx(0.02)
    assert loaded.n_frames == 200 and loaded.n_symbols == 38


@pytest.mark.parametrize("dur", [0.02, 0.01, 0.025, 0.0125, 0.1])
def test_binary_round_trip_recovers_frame_duration_exactly(tmp_path, dur):
    # the header holds f32; naive promotion would give e.g. 0.019999999552...
    rng = np.random.default_rng(20)
    pm = PosteriorMatrix(data=_rand_logp(rng, 6, 3), frame_duration_s=dur)
    path = tmp_path / "file.ctcp"
    save_posteriors(path, pm)
    assert load_posteriors(path).frame_duration_s == dur


def test_binary_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    pm = PosteriorMatrix(data=_rand_logp(rng, 64, 5), frame_duration_s=0.01)
    a, b = tmp_path / "a.ctcp", tmp_path / "b.ctcp"
    save_posteriors(a, pm)
    save_posteriors(b, pm)
    assert a.read_bytes() == b.read_bytes()


def test_load_with_vocab_sets_id_and_checks_size(tmp_path, spanish_vocab):
    rng = np.random.default_rng(4)
    pm = PosteriorMatrix(data=_rand_logp(rng, 10, spanish_vocab.size), frame_duration_s=0.02)
    path = tmp_path / "file.ctcp"
    save_posteriors(path, pm)
    loaded = load_posteriors(path, vocab=spanish_vocab)
    assert loaded.vocab_id == spanish_vocab.checksum()
    small = Vocab(symbols=("∅", " ", "a"), blank_index=0, separator_index=1)
    with pytest.raises(PosteriorFormatError):
        load_posteriors(path, vocab=small)


def test_load_with_vocab_validates_once(tmp_path, spanish_vocab, monkeypatch):
    rng = np.random.default_rng(4)
    pm = PosteriorMatrix(data=_rand_logp(rng, 10, spanish_vocab.size), frame_duration_s=0.02)
    path = tmp_path / "file.ctcp"
    save_posteriors(path, pm)
    validate = PosteriorMatrix.__post_init__
    calls = []
    monkeypatch.setattr(
        PosteriorMatrix, "__post_init__", lambda self: calls.append(1) or validate(self)
    )
    load_posteriors(path, vocab=spanish_vocab)
    assert len(calls) == 1


def test_binary_format_errors(tmp_path):
    path = tmp_path / "bad.ctcp"
    path.write_bytes(b"CTCP")
    with pytest.raises(PosteriorFormatError):
        load_posteriors(path)
    rng = np.random.default_rng(5)
    pm = PosteriorMatrix(data=_rand_logp(rng, 8, 3), frame_duration_s=0.02)
    good = tmp_path / "good.ctcp"
    save_posteriors(good, pm)
    blob = good.read_bytes()
    truncated = tmp_path / "truncated.ctcp"
    truncated.write_bytes(blob[:-4])
    with pytest.raises(PosteriorFormatError, match="payload is 92 bytes, expected 96"):
        load_posteriors(truncated)
    padded = tmp_path / "padded.ctcp"
    padded.write_bytes(blob + b"\0\0\0\0")
    with pytest.raises(PosteriorFormatError, match="payload is 100 bytes, expected 96"):
        load_posteriors(padded)
    wrong_version = tmp_path / "version.ctcp"
    wrong_version.write_bytes(blob[:4] + b"\x09\x00\x00\x00" + blob[8:])
    with pytest.raises(PosteriorFormatError):
        load_posteriors(wrong_version)
    infinite_frame = tmp_path / "infinite_frame.ctcp"
    infinite_frame.write_bytes(blob[:16] + struct.pack("<f", math.inf) + blob[20:])
    with pytest.raises(PosteriorFormatError):
        load_posteriors(infinite_frame)


# --- text container ----------------------------------------------------------


def test_text_posteriors_load(tmp_path):
    rng = np.random.default_rng(6)
    logp = _rand_logp(rng, 4, 3, dtype=np.float64)
    lines = ["4 3 0.05"] + [" ".join(f"{v:.10f}" for v in row) for row in logp]
    path = tmp_path / "plain.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pm = load_posteriors(path)
    assert pm.n_frames == 4 and pm.n_symbols == 3
    assert pm.frame_duration_s == pytest.approx(0.05)
    assert np.allclose(pm.data, logp, atol=1e-6)


@pytest.mark.parametrize(
    "content",
    [
        "4 3\n",  # header too short
        "x 3 0.05\n-1 -1 -1\n",  # non-numeric header
        "2 3 0.05\n-1.0 -1.0 -1.0\n",  # row count mismatch
        "1 3 0.05\n-1.0 oops -1.0\n",  # unparseable value
        "1 3 inf\n-1.0986 -1.0986 -1.0986\n",  # infinite frame duration
        "1 3 nan\n-1.0986 -1.0986 -1.0986\n",  # NaN frame duration
    ],
)
def test_text_posteriors_errors(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(PosteriorFormatError):
        load_posteriors(path)


# --- speech regions ----------------------------------------------------------


def test_regions_round_trip(tmp_path):
    sr = SpeechRegions(regions=((0.5, 2.0), (3.25, 10.0)))
    path = tmp_path / "file.regions"
    save_regions(path, sr)
    loaded = load_regions(path)
    assert loaded.regions == ((0.5, 2.0), (3.25, 10.0))


def test_regions_file_parsing(tmp_path):
    path = tmp_path / "file.regions"
    path.write_text("# comment\n\n0.0 1.5\n2.0 3.0\n", encoding="utf-8")
    assert load_regions(path).regions == ((0.0, 1.5), (2.0, 3.0))
    path.write_text("0.0 1.5 extra\n", encoding="utf-8")
    with pytest.raises(SpeechRegionsError):
        load_regions(path)
    path.write_text("zero one\n", encoding="utf-8")
    with pytest.raises(SpeechRegionsError):
        load_regions(path)


@pytest.mark.parametrize(
    "content, message",
    [
        ("0.0 1.0\nnan 5\n", "2: bad region (nan, 5.0)"),
        ("0.0 1.0\n3.0 2.0\n", "2: bad region (3.0, 2.0)"),
        ("# speech\n2.0 3.0\n\n1.0 1.5\n", "4: regions must be sorted and non-overlapping"),
    ],
)
def test_a_region_speech_regions_rejects_is_named_by_path_and_line(tmp_path, content, message):
    path = tmp_path / "file.regions"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(SpeechRegionsError, match=re.escape(f"{path}:{message}")):
        load_regions(path)


def test_regions_validation():
    with pytest.raises(SpeechRegionsError):
        SpeechRegions(regions=((2.0, 1.0),))
    with pytest.raises(SpeechRegionsError):
        SpeechRegions(regions=((-1.0, 1.0),))
    with pytest.raises(SpeechRegionsError):
        SpeechRegions(regions=((0.0, 2.0), (1.5, 3.0)))


# --- gap compression ---------------------------------------------------------


def _flat_pm(n_frames, frame_s=0.1, n_symbols=3):
    data = np.log(np.full((n_frames, n_symbols), 1.0 / n_symbols))
    return PosteriorMatrix(data=data, frame_duration_s=frame_s)


def test_long_gap_is_compressed_and_invertible():
    # 10 s of audio at 0.1 s frames; speech at both ends, 6 s gap between
    pm = _flat_pm(100)
    sr = SpeechRegions(regions=((0.0, 2.0), (8.0, 10.0)))
    compressed, fm = apply_speech_regions(pm, sr, max_gap_s=5.0)
    assert compressed.n_frames == 40
    assert not np.shares_memory(compressed.data, pm.data)  # its own compressed copy
    assert fm.original_frames == 100
    assert fm.compressed_frames == 40
    assert fm.segments == ((0, 0, 20), (20, 80, 20))
    assert map_frames_back(fm, 0) == 0
    assert map_frames_back(fm, 19) == 19
    assert map_frames_back(fm, 20) == 80
    assert map_frames_back(fm, 39) == 99
    with pytest.raises(FrameMapError):
        map_frames_back(fm, 40)


def test_short_gaps_are_kept():
    pm = _flat_pm(100)
    sr = SpeechRegions(regions=((0.0, 2.0), (8.0, 10.0)))
    compressed, fm = apply_speech_regions(pm, sr, max_gap_s=6.0)
    assert compressed.n_frames == 100
    assert fm.segments == ((0, 0, 100),)
    # nothing is cut, so nothing is copied: the matrix comes back as it is
    assert compressed is pm and compressed.data is pm.data
    assert fm == identity_frame_map(100)


def test_leading_and_trailing_gaps():
    pm = _flat_pm(200)  # 20 s
    sr = SpeechRegions(regions=((8.0, 10.0),))
    compressed, fm = apply_speech_regions(pm, sr, max_gap_s=4.0)
    # both the 8 s lead-in and the 10 s tail go away
    assert compressed.n_frames == 20
    assert fm.segments == ((0, 80, 20),)
    assert map_frames_back(fm, 0) == 80


def test_no_speech_left_raises():
    pm = _flat_pm(100)
    with pytest.raises(NoSpeechError):
        apply_speech_regions(pm, SpeechRegions(regions=()), max_gap_s=5.0)


def test_region_past_end_raises():
    pm = _flat_pm(10)  # 1 s
    with pytest.raises(SpeechRegionsError):
        apply_speech_regions(pm, SpeechRegions(regions=((0.0, 2.0),)), max_gap_s=5.0)


def test_region_ends_may_pass_the_file_by_at_most_half_a_frame():
    ordinary = _flat_pm(10, frame_s=0.02)  # 0.2 s: the slack stays 1e-6 s
    apply_speech_regions(ordinary, SpeechRegions(regions=((0.0, 0.2 + 0.9e-6),)))
    with pytest.raises(SpeechRegionsError):
        apply_speech_regions(ordinary, SpeechRegions(regions=((0.0, 0.2 + 1.1e-6),)))
    tiny = _flat_pm(10, frame_s=1e-320)  # the file ends at 1e-319 s
    apply_speech_regions(tiny, SpeechRegions(regions=((0.0, 1e-319),)), max_gap_s=0.0)
    with pytest.raises(SpeechRegionsError, match=r"\(5e-07, 6e-07\)"):
        apply_speech_regions(tiny, SpeechRegions(regions=((5e-7, 6e-7),)), max_gap_s=0.0)


def test_compression_preserves_payload_and_vocab_id(spanish_vocab, tmp_path):
    rng = np.random.default_rng(7)
    pm = PosteriorMatrix(
        data=_rand_logp(rng, 400, spanish_vocab.size), frame_duration_s=0.02
    )
    path = tmp_path / "file.ctcp"
    save_posteriors(path, pm)
    pm = load_posteriors(path, vocab=spanish_vocab)
    sr = SpeechRegions(regions=((0.0, 1.0), (7.0, 8.0)))
    compressed, fm = apply_speech_regions(pm, sr, max_gap_s=3.0)
    assert compressed.vocab_id == pm.vocab_id
    assert np.array_equal(compressed.data[:50], pm.data[:50])
    assert np.array_equal(compressed.data[50:], pm.data[350:])


def test_compressed_matrix_is_read_only():
    pm = _flat_pm(100)
    compressed, _ = apply_speech_regions(pm, SpeechRegions(regions=((0.0, 2.0),)), max_gap_s=5.0)
    assert isinstance(compressed, PosteriorMatrix)
    assert compressed.frame_duration_s == pm.frame_duration_s
    with pytest.raises(ValueError):
        compressed.data[0, 0] = 0.0


def test_compaction_by_slices_equals_the_boolean_mask_copy():
    # regions on the kept runs and max_gap_s 0 cut exactly the frames keep drops
    rng = np.random.default_rng(32)
    frame_s = 0.25  # exact in binary, so every region edge lands on its frame
    compared = 0
    for n in (2, 7, 500):
        pm = PosteriorMatrix(data=_rand_logp(rng, n, 5), frame_duration_s=frame_s)
        for p_keep in (0.1, 0.5, 0.95):
            for first, last in ((False, True), (True, False), (False, False)):
                keep = rng.random(n) < p_keep
                keep[0], keep[-1] = first, last
                if not keep.any():
                    continue
                runs = _kept_runs(keep)
                regions = tuple((o * frame_s, (o + k) * frame_s) for _, o, k in runs)
                compressed, fm = apply_speech_regions(pm, SpeechRegions(regions), max_gap_s=0.0)
                assert fm.segments == runs
                want = pm.data[keep]
                assert compressed.data.dtype == want.dtype and compressed.data.shape == want.shape
                assert compressed.data.tobytes() == want.tobytes()
                assert compressed.data.flags.c_contiguous
                assert not compressed.data.flags.writeable
                assert not np.shares_memory(compressed.data, pm.data)
                compared += 1
    assert compared >= 20


def _kept_runs_loop(keep):
    """The FrameMap segments as first written: one loop step per kept frame."""
    kept_idx = np.flatnonzero(keep)
    segments = []
    run_start = 0
    for i in range(1, len(kept_idx) + 1):
        if i == len(kept_idx) or kept_idx[i] != kept_idx[i - 1] + 1:
            length = i - run_start
            segments.append((run_start, int(kept_idx[run_start]), length))
            run_start = i
    return tuple(segments)


def test_kept_runs_equal_the_reference_loop():
    rng = np.random.default_rng(15)
    alternating = np.arange(41) % 2 == 0  # single-frame runs
    masks = [np.ones(1, bool), np.ones(60, bool), alternating, ~alternating]
    for n in (2, 7, 500):
        for p_keep in (0.1, 0.5, 0.95):
            mask = rng.random(n) < p_keep
            for first, last in ((True, True), (False, True), (True, False), (False, False)):
                edged = mask.copy()
                edged[0], edged[-1] = first, last
                masks.append(edged)
    compared = 0
    for keep in masks:
        if keep.any():
            runs = _kept_runs(keep)
            assert runs == _kept_runs_loop(keep)
            assert all(type(x) is int for run in runs for x in run)
            FrameMap(segments=runs, original_frames=len(keep))  # passes its checks
            compared += 1
    assert compared > 30


def test_identity_frame_map():
    fm = identity_frame_map(17)
    assert fm == FrameMap(segments=((0, 0, 17),), original_frames=17)
    assert map_frames_back(fm, 16) == 16
    assert identity_frame_map(1).compressed_frames == 1


@pytest.mark.parametrize(
    "segments, original_frames",
    [
        ((), 10),  # no segment
        (((0, 0, 0),), 10),  # an empty segment
        (((0, 0, 5), (5, 6, -1)), 10),
        (((1, 0, 5),), 10),  # the compressed axis starts past 0
        (((0, 0, 5), (6, 6, 2)), 10),  # a hole in the compressed axis
        (((0, 0, 5), (4, 6, 2)), 10),  # compressed spans overlap
        (((0, -1, 5),), 10),  # an original span before frame 0
        (((0, 2, 5), (5, 6, 2)), 10),  # original spans overlap
        (((0, 6, 2), (2, 0, 3)), 10),  # original spans out of order
        (((0, 190, 30),), 200),  # past the original frames
        (((0, 0, 5), (5, 7, 4)), 10),
    ],
)
def test_frame_map_rejects_inconsistent_segments(segments, original_frames):
    with pytest.raises(FrameMapError):
        FrameMap(segments=segments, original_frames=original_frames)


def test_frame_map_admits_spans_that_touch_and_end_at_the_last_frame():
    fm = FrameMap(segments=((0, 0, 5), (5, 5, 2), (7, 8, 2)), original_frames=10)
    assert [map_frames_back(fm, f) for f in range(9)] == [0, 1, 2, 3, 4, 5, 6, 8, 9]


def _map_frames_back_linear(fm, frame):
    """map_frames_back as first written: a scan of the segments, None outside them."""
    for comp_start, orig_start, length in fm.segments:
        if comp_start <= frame < comp_start + length:
            return orig_start + (frame - comp_start)
    return None


def test_frame_mapping_equals_the_linear_scan():
    # every frame of seeded multi-segment maps, and the frames just outside them
    rng = np.random.default_rng(16)
    for n, p_keep in ((50, 0.5), (400, 0.9), (400, 0.2), (3000, 0.6)):
        keep = rng.random(n) < p_keep
        keep[rng.integers(n)] = True
        fm = FrameMap(segments=_kept_runs(keep), original_frames=n)
        assert len(fm.segments) > 1
        for frame in range(-2, fm.compressed_frames + 2):
            want = _map_frames_back_linear(fm, frame)
            if want is None:
                with pytest.raises(FrameMapError):
                    map_frames_back(fm, frame)
            else:
                assert map_frames_back(fm, frame) == want
        kept = [map_frames_back(fm, f) for f in range(fm.compressed_frames)]
        assert kept == np.flatnonzero(keep).tolist()


# --- atomic writes -----------------------------------------------------------


def test_writes_leave_no_temp_files(tmp_path, spanish_vocab):
    rng = np.random.default_rng(8)
    pm = PosteriorMatrix(data=_rand_logp(rng, 10, 3), frame_duration_s=0.02)
    save_posteriors(tmp_path / "a.ctcp", pm)
    save_vocab(tmp_path / "v.txt", spanish_vocab)
    save_regions(tmp_path / "r.regions", SpeechRegions(regions=((0.0, 1.0),)))
    leftovers = [name for name in os.listdir(tmp_path) if ".tmp-" in name]
    assert leftovers == []


def test_save_regions_empty(tmp_path):
    path = tmp_path / "empty.regions"
    save_regions(path, SpeechRegions(regions=()))
    assert path.read_text(encoding="utf-8") == ""
    assert load_regions(path).regions == ()
