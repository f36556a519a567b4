"""Per-line template miners: the reference the miners in ``src`` must match.

These are the drain, iplom, logcluster and spell miners as they were before
the miners learnt to visit each distinct token sequence once: every line is
searched, partitioned or counted on its own. ``tests/test_parsers.py``
requires the shipped miners to return the same templates and the same
member ids per group as these, on random corpora with many repeats.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from logconformal.templates import WILDCARD

# --- drain ---

def _has_digit(token: str) -> bool:
    return any(ch.isdigit() for ch in token)


@dataclass
class _Cluster:
    template: list[str]
    member_ids: list[int] = field(default_factory=list)


class _Node:
    __slots__ = ("children", "clusters")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.clusters: list[_Cluster] = []


class DrainTree:
    def __init__(self, depth: int = 4, sim_threshold: float = 0.5,
                 max_children: int = 100):
        # depth counts root, token-count level, leading-token levels and the
        # leaf group level, so depth 4 keys one leading token.
        self.lead_levels = depth - 3
        self.sim_threshold = sim_threshold
        self.max_children = max_children
        self.root = _Node()
        self.clusters: list[_Cluster] = []

    def _path_tokens(self, tokens) -> list[str]:
        # never key on the final token; it is usually a variable tail
        usable = max(len(tokens) - 1, 0)
        return [t for t in tokens[:min(self.lead_levels, usable)]]

    def _similarity(self, template, tokens) -> tuple[float, int]:
        same = 0
        params = 0
        for t, o in zip(template, tokens):
            if t == WILDCARD:
                params += 1
            elif t == o:
                same += 1
        return (same / len(template) if template else 1.0), params

    def _search(self, tokens) -> _Cluster | None:
        node = self.root.children.get(str(len(tokens)))
        if node is None:
            return None
        for tok in self._path_tokens(tokens):
            child = node.children.get(tok) or node.children.get(WILDCARD)
            if child is None:
                return None
            node = child
        best = None
        best_sim = -1.0
        best_params = -1
        for cluster in node.clusters:
            sim, params = self._similarity(cluster.template, tokens)
            if sim > best_sim or (sim == best_sim and params > best_params):
                best, best_sim, best_params = cluster, sim, params
        if best is not None and best_sim >= self.sim_threshold:
            return best
        return None

    def _insert(self, cluster: _Cluster):
        node = self.root.children.setdefault(str(len(cluster.template)), _Node())
        for tok in self._path_tokens(cluster.template):
            key = WILDCARD if _has_digit(tok) else tok
            if key in node.children:
                node = node.children[key]
            elif WILDCARD in node.children:
                if len(node.children) < self.max_children:
                    node = node.children.setdefault(key, _Node())
                else:
                    node = node.children[WILDCARD]
            elif len(node.children) + 1 < self.max_children:
                node = node.children.setdefault(key, _Node())
            else:
                node = node.children.setdefault(WILDCARD, _Node())
        node.clusters.append(cluster)

    def add(self, tokens, line_id: int):
        cluster = self._search(tokens)
        if cluster is None:
            cluster = _Cluster(template=list(tokens))
            self.clusters.append(cluster)
            self._insert(cluster)
        else:
            cluster.template = [t if t == o or t == WILDCARD else WILDCARD
                                for t, o in zip(cluster.template, tokens)]
        cluster.member_ids.append(line_id)


def fit_drain(records, depth: int = 4, sim_threshold: float = 0.5,
              max_children: int = 100):
    """Group records; returns (template, line_ids) pairs in creation order."""
    tree = DrainTree(depth=depth, sim_threshold=sim_threshold,
                     max_children=max_children)
    for rec in records:
        tree.add(rec.tokens, rec.line_id)
    return [(c.template, c.member_ids) for c in tree.clusters]


# --- iplom ---

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
        if len(bucket) / parent_size < threshold:
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


def _goodness(rows) -> float:
    distinct = _distinct_per_position(rows)
    if not distinct:
        return 1.0
    return sum(1 for d in distinct if len(d) == 1) / len(distinct)


def _step2(rows, upper_bound):
    if len(rows) <= 1 or not rows[0][0]:
        return [rows]
    if _goodness([r[0] for r in rows]) >= upper_bound:
        return [rows]
    distinct = _distinct_per_position([r[0] for r in rows])
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
    if one_to and len(distinct[p1]) / len(rows) <= lower_bound:
        return _split_by_position(rows, p1)
    if to_one and len(distinct[p2]) / len(rows) <= lower_bound:
        return _split_by_position(rows, p2)
    return [rows]


def fit_iplom(records, partition_support_threshold: float = 0.0,
              lower_bound: float = 0.25, upper_bound: float = 0.9):
    """Partition records; returns a list of (template_tokens, line_ids)."""
    by_count: dict[int, list] = defaultdict(list)
    for rec in records:
        by_count[len(rec.tokens)].append((rec.tokens, rec.line_id))

    final = []
    for count in sorted(by_count):
        level1 = by_count[count]
        level2 = []
        for part in _apply_support_threshold(
                _step2(level1, upper_bound), len(level1),
                partition_support_threshold):
            level2.append(part)
        for part in level2:
            for out in _apply_support_threshold(
                    _step3(part, lower_bound), len(part),
                    partition_support_threshold):
                final.append(out)

    described = []
    for part in final:
        rows = [r[0] for r in part]
        ids = [r[1] for r in part]
        if rows[0]:
            distinct = _distinct_per_position(rows)
            template = [next(iter(d)) if len(d) == 1 else WILDCARD for d in distinct]
        else:
            template = []
        described.append((template, ids))
    described.sort(key=lambda item: min(item[1]))
    return described


# --- logcluster ---

def _word_supports(token_rows) -> Counter:
    """Number of records each word occurs in (per-record deduplicated)."""
    support: Counter = Counter()
    for tokens in token_rows:
        support.update(dict.fromkeys(tokens, 1))
    return support


def fit_logcluster(records, min_support: int = 10):
    """Cluster records; returns (template, line_ids) pairs in first-seen order."""
    support = _word_supports(rec.tokens for rec in records)
    frequent = {w for w, c in support.items() if c >= min_support}

    clusters: dict[tuple, dict] = {}
    for rec in records:
        key_words = []
        gaps = [0]  # gap sizes around frequent words: len(key_words) + 1 slots
        for tok in rec.tokens:
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
        cluster["ids"].append(rec.line_id)

    out = []
    for key, cluster in clusters.items():
        template: list[str] = []
        if cluster["gap_seen"][0]:
            template.append(WILDCARD)
        for word, has_gap in zip(key, cluster["gap_seen"][1:]):
            template.append(word)
            if has_gap:
                template.append(WILDCARD)
        if not template:
            template.append(WILDCARD)
        out.append((template, cluster["ids"]))
    return out


# --- spell ---

@dataclass
class _Group:
    template: list[str]
    member_ids: list[int] = field(default_factory=list)


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence of two token sequences."""
    if not a or not b:
        return 0
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


def fit_spell(records, lcs_threshold: float = 0.5):
    """Group records; returns (template, line_ids) pairs in creation order."""
    groups: list[_Group] = []
    seen: dict[tuple[str, ...], _Group] = {}
    for rec in records:
        tokens = rec.tokens
        group = seen.get(tokens)
        if group is None:
            best = None
            best_len = 0
            for cand in groups:
                if len(cand.template) != len(tokens):
                    continue
                literals = [t for t in cand.template if t != WILDCARD]
                common = lcs_length(literals, tokens)
                if common > best_len:
                    best, best_len = cand, common
            if best is not None and tokens and best_len >= lcs_threshold * len(tokens):
                best.template = [t if t == o or t == WILDCARD else WILDCARD
                                 for t, o in zip(best.template, tokens)]
                group = best
            else:
                group = _Group(template=list(tokens))
                groups.append(group)
            seen[tokens] = group
        group.member_ids.append(rec.line_id)
    return [(g.template, g.member_ids) for g in groups]
