"""Weighted edit-distance scoring of log records against event templates.

The nonconformity of a record with respect to a template is the sum of a
positional sigmoid weight over the minimal token-level edit script turning
the template into the record:

    score = sum_i 1 / (1 + exp(x_i - v))

where x_i is the 1-based record position touched by the i-th edit and v
centers the sigmoid. Edits near the front of a record (the constant part of
an event) weigh close to 1; edits in the tail (variable fields) decay toward
0. A wildcard token on the template side matches exactly one record token at
zero cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyTemplateSet
from .templates import WILDCARD, TemplateSet

INSERT = "insert"
DELETE = "delete"
REPLACE = "replace"


@dataclass(frozen=True, slots=True)
class ScoreParams:
    """Sigmoid center, in units of token index. Must be positive."""

    v: float

    def __post_init__(self):
        if not self.v > 0:
            raise ValueError(f"sigmoid center must be > 0, got {self.v}")


def edit_script(a, b) -> tuple[tuple[str, int], ...]:
    """Minimal-cost edit script transforming token sequence ``a`` into ``b``.

    Each op is a (kind, 1-based record position) pair. Positions index the
    record for replace/insert; for delete they give the index the removed
    template token would occupy in the record. Unit costs; a ``<*>`` in
    ``a`` matches any single token of ``b`` for free. Among minimal
    alignments the backtrace deterministically prefers match, then replace,
    then delete, then insert, working backward from the sequence ends.
    """
    m, n = len(a), len(b)

    # dp[i][j] = min ops to turn a[:i] into b[:j]
    dp = [list(range(n + 1))]
    for i in range(1, m + 1):
        prev = dp[i - 1]
        row = [i] + [0] * n
        ai = a[i - 1]
        wild = ai == WILDCARD
        for j in range(1, n + 1):
            sub = prev[j - 1] + (0 if wild or ai == b[j - 1] else 1)
            dele = prev[j] + 1
            ins = row[j - 1] + 1
            row[j] = sub if sub <= dele and sub <= ins else (dele if dele <= ins else ins)
        dp.append(row)

    ops: list[tuple[str, int]] = []
    i, j = m, n
    while i > 0 or j > 0:
        here = dp[i][j]
        if i > 0 and j > 0 and dp[i - 1][j - 1] == here and (a[i - 1] == WILDCARD or a[i - 1] == b[j - 1]):
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and dp[i - 1][j - 1] + 1 == here:
            ops.append((REPLACE, j))
            i -= 1
            j -= 1
        elif i > 0 and dp[i - 1][j] + 1 == here:
            ops.append((DELETE, j + 1))
            i -= 1
        else:
            ops.append((INSERT, j))
            j -= 1
    ops.reverse()
    return tuple(ops)


# A non-empty edit script scores exactly 0 only if every edit's sigmoid
# weight is 0, which ``_weight`` returns once x - v > 700. An edit
# position x is at most n + 1 and the center v is (m + n) / 2 for a template
# of m tokens and a record of n, so x - v <= (n - m) / 2 + 1: up to this
# length gap, "score is 0" is exactly "positional match". Longer records are
# scored by the DP.
MAX_EXACT_GAP = 1398


def _weight(x: int, v: float) -> float:
    t = x - v
    if t > 700.0:  # exp overflow guard; weight is ~0 long before this
        return 0.0
    return 1.0 / (1.0 + math.exp(t))


def weighted_score(template, record, params: ScoreParams | None = None) -> float:
    """Nonconformity of the tokens ``record`` against the tokens ``template``.

    With ``params`` omitted, the sigmoid center defaults to the mean of the
    two token counts, so edits in the first half of a record weigh > 0.5.
    """
    v = params.v if params is not None else (len(template) + len(record)) / 2.0
    ops = edit_script(template, record)
    if not ops:
        return 0.0
    return sum(_weight(x, v) for _, x in ops)


def nearest(ts: TemplateSet, tokens) -> tuple[str, float]:
    """Id and score of the template of ``ts`` nearest to ``tokens``.

    A positional match scores 0, the least possible score, so while the
    record is at most ``MAX_EXACT_GAP`` tokens longer than the shortest
    template the matching templates are found without the DP. Otherwise
    every template is scored. Ties go to the smaller id compared as a
    string (``"T10" < "T2"``).
    """
    if not ts.templates:
        raise EmptyTemplateSet(f"{ts.parser_name} has no templates")
    # a record of at most MAX_EXACT_GAP tokens is within the gap of any template
    if len(tokens) <= MAX_EXACT_GAP \
            or len(tokens) - min(len(t.tokens) for t in ts.templates) <= MAX_EXACT_GAP:
        matching = [t.template_id for t in ts.templates if t.matches(tokens)]
        if matching:
            return min(matching), 0.0
    best_id, best = None, math.inf
    for tmpl in ts.templates:
        s = weighted_score(tmpl.tokens, tokens)
        if s < best or (s == best and tmpl.template_id < best_id):
            best_id, best = tmpl.template_id, s
    return best_id, best
