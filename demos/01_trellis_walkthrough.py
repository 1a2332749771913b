"""Walk the alignment lattice by hand on a toy three-frame window.

Cell (t, j) of the lattice scores the best log probability of having
consumed the first j tokens after t frames. The free-start column (all
zeros) lets the text begin at any frame. The fill keeps only two rows of
scores; per cell it stores one decision bit, 1 where the best path into the
cell advanced into token j on frame t and 0 where it held, packed eight to a
byte in k, and it keeps the score column where the text ends. The path ends on the frame after its
last character where one trailing blank scores best (end_scores), so the
text may end before the window does. Backtracking follows the decisions to
recover where each character was emitted, plus the frame-wise confidence rho
used for scoring. The lattice keeps its own copy of the window, so the end
rule and the backtrack take only the lattice.
"""

import math

import numpy as np

from anchoralign import (
    Utterance,
    Vocab,
    backtrack,
    build_token_sequence,
    compute_trellis,
    end_scores,
    fragment_scores,
    segment_score,
)


def main():
    vocab = Vocab(symbols=("*", " ", "a", "b"), blank_index=0, separator_index=1)
    ts = build_token_sequence([Utterance(utt_index=0, text="ab", word_count=1)], vocab)
    print(f"text 'ab' -> token indices {ts.tokens}, then one trailing blank\n")

    # one clearly dominant symbol per frame: a, blank (held), b, blank
    probs = np.array(
        [
            [0.05, 0.05, 0.85, 0.05],
            [0.70, 0.10, 0.10, 0.10],
            [0.05, 0.05, 0.05, 0.85],
            [0.70, 0.10, 0.10, 0.10],
        ]
    )
    window = np.log(probs)

    tr = compute_trellis(window, ts, vocab.blank_index)
    # k packs each frame's decisions for columns 1.. eight to a byte; unpack them
    decisions = np.unpackbits(tr.k, axis=1, count=tr.width - 1, bitorder="little")
    print("advance decisions (rows = frames 1.., columns = 'a', 'b'):")
    print(decisions)
    print("(ties advance, so a cell no path reaches yet, -inf either way, reads 1)\n")

    ends = end_scores(tr)
    print("end_scores: log prob of placing 'ab' by frame f - 1 and a blank on frame f:")
    with np.printoptions(precision=3, suppress=True):
        print(ends)
    best = ends.max()
    expect = 0.85 * 0.70 * 0.85 * 0.70
    assert abs(best - math.log(expect)) < 1e-12
    print(f"best full-text log prob {best:.4f} = ln({expect:.4f}) as hand-multiplied\n")

    frames, rho = backtrack(tr)
    print(f"emission frame per token, then the trailing blank's frame: {frames}")
    names = [repr(vocab.symbols[t]) for t in ts.tokens] + ["the trailing blank"]
    for name, emitted, next_emitted in zip(names, frames, [*frames[1:], frames[-1] + 1]):
        print(f"{name} emitted at frame {emitted}, held through frame {next_emitted - 1}")
    print()

    span = rho[frames[0] : frames[-1] + 1]
    frags = fragment_scores(span)
    print(f"rho over the traced span: {np.round(span, 3)}")
    print(f"fragment scores {np.round(frags, 4)} -> segment score {segment_score(frags):.4f}")
    print(f"(a segment score of {math.log(0.13):.2f} ~ linear 0.13 is the acceptance floor)")


if __name__ == "__main__":
    main()
