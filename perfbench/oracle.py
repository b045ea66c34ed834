"""Output checks that run outside the timed region.

``check_candidates`` compares a ranked candidate list with an fp64
brute-force enumeration of every valid (start, end) pair of the same
logits. Every decode channel the variants enable includes the joint
stream, which already holds every valid pair, so the expected list is:
all pairs with both ends in the text region and width below
``max_span_len``, ordered by (-score, start, end), first occurrence of
each surface text kept, cut at k.

``check_report`` re-scores a prediction file against gold with a
straight-line top-k count and compares it with the evaluator's report.
"""

from __future__ import annotations

import numpy as np

SCORE_TOL = 1e-9


def _log_probs(logits: np.ndarray, valid: np.ndarray) -> np.ndarray:
    x = np.where(valid, np.asarray(logits, dtype=np.float64), -np.inf)
    m = x.max()
    return x - (m + np.log(np.exp(x - m).sum()))


def brute_force(start_logits, end_logits, valid, text: str, text_span,
                k: int, max_span_len: int) -> list[tuple[int, int, float, str]]:
    """Expected (start, end, score, text) list for one example."""
    valid = np.asarray(valid, dtype=bool)
    lp_s = _log_probs(start_logits, valid)
    lp_e = _log_probs(end_logits, valid)
    first = int(text_span[0])
    idx = [int(i) for i in np.flatnonzero(valid)]
    pairs = [(lp_s[s] + lp_e[e], s, e)
             for s in idx for e in idx if 0 <= e - s < max_span_len]
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    out: list[tuple[int, int, float, str]] = []
    seen: set[str] = set()
    for score, s, e in pairs:
        txt = text[s - first:e - first + 1]
        if txt in seen:
            continue
        seen.add(txt)
        out.append((s, e, float(score), txt))
        if len(out) == k:
            break
    return out


def check_candidates(got, start_logits, end_logits, valid, text: str,
                     text_span, k: int, max_span_len: int) -> list[str]:
    """Problems with ``got``, a list of (start, end, score, text); empty
    when it matches the enumeration exactly (scores within SCORE_TOL)."""
    problems = []
    first, last = int(text_span[0]), int(text_span[1])
    texts = [c[3] for c in got]
    if len(got) > k:
        problems.append(f"{len(got)} candidates for k={k}")
    if len(set(texts)) != len(texts):
        problems.append(f"duplicate texts in {texts}")
    for s, e, _, _ in got:
        if not first <= s <= e <= last:
            problems.append(f"span ({s}, {e}) outside text region ({first}, {last})")
        if e - s >= max_span_len:
            problems.append(f"span ({s}, {e}) not narrower than {max_span_len}")
    want = brute_force(start_logits, end_logits, valid, text, text_span,
                       k, max_span_len)
    if [(s, e, t) for s, e, _, t in got] != [(s, e, t) for s, e, _, t in want]:
        problems.append(f"ranking {[(s, e, t) for s, e, _, t in got]} != "
                        f"enumeration {[(s, e, t) for s, e, _, t in want]}")
    elif any(abs(g[2] - w[2]) > SCORE_TOL for g, w in zip(got, want)):
        problems.append(f"scores {[g[2] for g in got]} != {[w[2] for w in want]}")
    return problems


def topk_counts(predictions: dict, gold: dict, k_max: int) -> dict:
    """Identified, annotated and per-k correct counts ('any' match)."""
    identified = annotated = 0
    correct = [0] * k_max
    for ex_id, golds in gold.items():
        preds = predictions.get(ex_id, [])
        identified += bool(preds)
        annotated += bool(golds)
        for k in range(1, k_max + 1):
            if set(golds) & set(preds[:k]):
                correct[k - 1] += 1
    return {"identified": identified, "annotated": annotated, "correct": correct}


def check_report(report: dict, predictions: dict, gold: dict, k_max: int) -> list[str]:
    """Problems with an evaluator JSON report against a fresh count."""
    want = topk_counts(predictions, gold, k_max)
    got = {"identified": report.get("identified"),
           "annotated": report.get("annotated"),
           "correct": [row.get("correct") for row in report.get("top_k", [])]}
    return [] if got == want else [f"report counts {got} != recount {want}"]
