"""Compare the three confidence filters on one mixed-quality alignment.

A fixed absolute cutoff is the bluntest tool; the normalized variant
rescales by utterance duration so long utterances are not over-punished;
the distribution-free variant picks its own cutoff from the score
population and never removes more than the requested worst fraction.
"""

import numpy as np

from anchoralign import (
    SynthSpec,
    SynthUtterance,
    Utterance,
    align_file,
    default_spanish_vocab,
    estimate_time_refs,
    filter_absolute,
    filter_chebyshev,
    filter_normalized,
    frames_to_seconds,
    identity_frame_map,
    recovery_stats,
)
from anchoralign.synthdata import synth_posteriors

WORDS = ("marea", "solana", "viento", "calma", "lluvia", "norte", "puerto", "farola")


def main():
    vocab = default_spanish_vocab()
    rng = np.random.default_rng(3)

    # 24 utterances; every sixth rendered with a weaker peak (a mumbled
    # passage) and one rendered barely above the noise (a wrong transcript)
    texts, synth_utts, frame = [], [], 60
    for i in range(24):
        text = " ".join(rng.choice(WORDS, size=7))
        texts.append(text)
        start = frame * 0.02
        scale = 0.3 if i % 6 == 5 else 1.0
        if i == 8:
            scale = 0.12
        synth_utts.append(
            SynthUtterance(
                text=text,
                start_s=start,
                end_s=start + len(text) * 0.02,
                peak_scale=scale,
            )
        )
        frame += len(text) + int(rng.integers(120, 200))
    spec = SynthSpec(
        utterances=tuple(synth_utts),
        frame_duration_s=0.02,
        peak_prob=0.9,
        noise_seed=31,
        gap_peak=0.98,
        total_s=120.0,
    )
    pm, _ = synth_posteriors(spec, vocab)
    utts = estimate_time_refs(
        [Utterance(utt_index=i, text=t, word_count=len(t.split())) for i, t in enumerate(texts)],
        pm.duration_s,
    )
    run = align_file(pm, utts, vocab, file_id="mixed")
    run = frames_to_seconds(run, identity_frame_map(pm.n_frames))
    scores = np.array([u.s_seg for u in run.utterances])
    print(f"aligned {len(scores)} utterances, scores {scores.min():.2f} .. {scores.max():.2f}\n")

    for name, (kept, report) in (
        ("absolute", filter_absolute(run.utterances, cutoff=-1.0)),
        ("normalized", filter_normalized(run.utterances, cutoff=-1.5)),
        ("chebyshev 15%", filter_chebyshev(run.utterances, worst_fraction=0.15)),
    ):
        print(
            f"{name:>14}: kept {report.kept_count}/{report.input_count}"
            f" ({report.kept_hours * 3600:.1f} of {report.input_hours * 3600:.1f} s),"
            f" cutoff {report.cutoff:.3f}"
        )

    kept, _ = filter_chebyshev(run.utterances, worst_fraction=0.15)
    print("\nrecovery table (hours of audio: total, aligned, kept after filter):")
    for row in recovery_stats({run.file_id: run.total_duration_s}, run.utterances, kept):
        print(f"  {row[0]}: {row[1]:.4f} {row[2]:.4f} {row[3]:.4f}")


if __name__ == "__main__":
    main()
