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


# At the default center v = (m + n) / 2 (m template, n record tokens) every
# non-empty edit script has an edit at x - v <= 0.5, weighing >= 1/(1+e**0.5)
# ~ 0.3775: if n > m, its >= n - m inserts sit at distinct x, the first at
# x <= m + 1; if n < m, every x <= n + 1; if n == m, a replace or insert is at
# x <= n. So a score is 0 exactly when the template matches positionally.
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

    Only a positional match scores 0, and only a template of the record's
    length can match, so the DP runs only when none of those matches. Ties
    go to the smaller id compared as a string (``"T10" < "T2"``).
    """
    if not ts.templates:
        raise EmptyTemplateSet(f"{ts.parser_name} has no templates")
    matching = [t.template_id for t in ts.of_length(len(tokens)) if t.matches(tokens)]
    if matching:
        return min(matching), 0.0
    score, best_id = min((weighted_score(t.tokens, tokens), t.template_id)
                         for t in ts.templates)
    return best_id, score
