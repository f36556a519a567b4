"""Longest-common-subsequence template miner.

Each record is compared with the templates of existing same-length groups;
the group whose literal tokens share the longest common subsequence with
the record wins, provided that length reaches the threshold fraction of the
record length. Positions where the merged record disagrees with the group
template become wildcards. Records whose exact token sequence was seen
before join the same group.
"""

from __future__ import annotations

from ..templates import WILDCARD, Group, ids_by_tokens, merged


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence of two token sequences."""
    prev = [0] * (len(b) + 1)
    for ai in a:
        row = [0]
        for j, bj in enumerate(b, 1):
            if ai == bj:
                row.append(prev[j - 1] + 1)
            else:
                row.append(max(prev[j], row[j - 1]))
        prev = row
    return prev[-1]


def fit_spell(records, *, lcs_threshold: float):
    """Group records; returns (template, line_ids) pairs in creation order."""
    groups: list[Group] = []
    for tokens, ids in ids_by_tokens(records).items():
        best = None
        best_len = 0
        for cand in groups:
            if len(cand.template) != len(tokens):
                continue
            literals = [t for t in cand.template if t != WILDCARD]
            common = lcs_length(literals, tokens)
            if common > best_len:
                best, best_len = cand, common
        # best is set once best_len > 0, and the threshold is positive
        if best_len >= lcs_threshold * len(tokens):
            best.template = merged(best.template, tokens)
            group = best
        else:
            group = Group(template=list(tokens))
            groups.append(group)
        group.member_ids.extend(ids)
    return [(g.template, g.member_ids) for g in groups]
