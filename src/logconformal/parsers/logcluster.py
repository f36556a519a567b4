"""Frequent-word template miner.

Words occurring in at least ``min_support`` records are frequent. Each
record is keyed by its in-order sequence of frequent words; records sharing
a key form a cluster. Token runs between (or around) the frequent words are
gaps; a gap that is non-empty in any member record is collapsed to a single
wildcard token so the cluster template fits the common single-token-wildcard
shape used by the other miners.
"""

from __future__ import annotations

from collections import Counter

from ..templates import WILDCARD


def fit_logcluster(records, *, min_support: int):
    """Cluster records; returns (template, line_ids) pairs in first-seen order.

    Each distinct token sequence is keyed once; a word's support is the
    number of lines, over all distinct sequences, that contain it.
    """
    ids_of: dict[tuple[str, ...], list[int]] = {}
    for rec in records:
        ids_of.setdefault(rec.tokens, []).append(rec.line_id)
    support: Counter = Counter()
    for tokens, ids in ids_of.items():
        lines = len(ids)
        for word in dict.fromkeys(tokens):
            support[word] += lines
    frequent = {w for w, c in support.items() if c >= min_support}

    clusters: dict[tuple, dict] = {}
    for tokens, ids in ids_of.items():
        key_words = []
        gaps = [0]  # gap sizes around frequent words: len(key_words) + 1 slots
        for tok in tokens:
            if tok in frequent:
                key_words.append(tok)
                gaps.append(0)
            else:
                gaps[-1] += 1
        key = tuple(key_words)
        cluster = clusters.get(key)
        if cluster is None:
            cluster = {"gap_seen": [g > 0 for g in gaps], "ids": []}
            clusters[key] = cluster
        else:
            cluster["gap_seen"] = [seen or g > 0
                                   for seen, g in zip(cluster["gap_seen"], gaps)]
        cluster["ids"].extend(ids)

    out = []
    for key, cluster in clusters.items():
        template: list[str] = []
        if cluster["gap_seen"][0]:
            template.append(WILDCARD)
        for word, has_gap in zip(key, cluster["gap_seen"][1:]):
            template.append(word)
            if has_gap:
                template.append(WILDCARD)
        out.append((template, cluster["ids"]))
    return out
