"""Iterative-partitioning template miner.

Three partitioning passes, each refining the previous one:

1. by token count;
2. by the token position with the fewest distinct values;
3. by a position pair whose values co-occur as a bijection (1-1); for 1-M /
   M-1 relations the single-valued side splits the partition when its
   cardinality ratio stays below ``lower_bound``.

A partition already dominated by constant positions (fraction of
single-valued positions at or above ``upper_bound``) is left alone after
pass 1. Split products whose relative support falls below
``partition_support_threshold`` are pooled into a leftover partition at that
step. Finally each partition becomes one template: positions with a single
surviving value stay literal, the rest become wildcards.

The passes work on distinct token sequences. A row is ``(tokens,
line_ids)`` and weighs as many lines as it has ids, so every support and
cardinality ratio counts lines, as if each line were partitioned on its own.
Rows keep first-seen order, so values split in the same order too. One
distinct row has no varying position, so "at most one line" may be tested
on rows.
"""

from __future__ import annotations

from collections import defaultdict

from ..templates import WILDCARD, ids_by_tokens


def _lines(rows) -> int:
    return sum(len(ids) for _, ids in rows)


def _distinct_per_position(rows) -> list[set]:
    width = len(rows[0])
    distinct = [set() for _ in range(width)]
    for row in rows:
        for i, tok in enumerate(row):
            distinct[i].add(tok)
    return distinct


def _apply_support_threshold(buckets, parent_size, threshold):
    """Route under-supported split products into one leftover bucket."""
    if threshold <= 0.0:
        return list(buckets)
    kept = []
    leftovers = []
    for bucket in buckets:
        if _lines(bucket) / parent_size < threshold:
            leftovers.extend(bucket)
        else:
            kept.append(bucket)
    if leftovers:
        kept.append(leftovers)
    return kept


def _split_by_position(rows, pos):
    by_value: dict[str, list] = defaultdict(list)
    for row in rows:
        by_value[row[0][pos]].append(row)
    return [by_value[key] for key in by_value]


def _step2(rows, upper_bound):
    if len(rows) <= 1:
        return [rows]
    distinct = _distinct_per_position([r[0] for r in rows])
    if sum(len(d) == 1 for d in distinct) / len(distinct) >= upper_bound:
        return [rows]
    pos = min(range(len(distinct)), key=lambda i: (len(distinct[i]), i))
    if len(distinct[pos]) <= 1:
        return [rows]
    return _split_by_position(rows, pos)


def _step3(rows, lower_bound):
    if len(rows) <= 1:
        return [rows]
    tokens = [r[0] for r in rows]
    distinct = _distinct_per_position(tokens)
    varying = [i for i, d in enumerate(distinct) if len(d) > 1]
    if len(varying) < 2:
        return [rows]
    p1, p2 = sorted(varying, key=lambda i: (len(distinct[i]), i))[:2]
    forward: dict[str, set] = defaultdict(set)
    backward: dict[str, set] = defaultdict(set)
    for row in tokens:
        forward[row[p1]].add(row[p2])
        backward[row[p2]].add(row[p1])
    one_to = all(len(v) == 1 for v in forward.values())
    to_one = all(len(v) == 1 for v in backward.values())
    if one_to and to_one:
        return _split_by_position(rows, p1)
    lines = _lines(rows)
    if one_to and len(distinct[p1]) / lines <= lower_bound:
        return _split_by_position(rows, p1)
    if to_one and len(distinct[p2]) / lines <= lower_bound:
        return _split_by_position(rows, p2)
    return [rows]


def fit_iplom(records, *, partition_support_threshold: float,
              lower_bound: float, upper_bound: float):
    """Partition records; returns a list of (template_tokens, line_ids)."""
    by_count: dict[int, list] = defaultdict(list)
    for row in ids_by_tokens(records).items():
        by_count[len(row[0])].append(row)

    final = []
    for count in sorted(by_count):
        level1 = by_count[count]
        for part in _apply_support_threshold(
                _step2(level1, upper_bound), _lines(level1),
                partition_support_threshold):
            final.extend(_apply_support_threshold(
                _step3(part, lower_bound), _lines(part),
                partition_support_threshold))

    described = []
    for part in final:
        rows = [r[0] for r in part]
        ids = [i for r in part for i in r[1]]
        template = [next(iter(d)) if len(d) == 1 else WILDCARD
                    for d in _distinct_per_position(rows)]
        described.append((template, ids))
    described.sort(key=lambda item: min(item[1]))
    return described
