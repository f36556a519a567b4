"""Fixed-depth parse-tree template miner.

Records are routed through a shallow prefix tree: the first level is keyed
by token count, the next levels by leading tokens (tokens carrying digits
are keyed as the wildcard). Leaf groups hold clusters; a record joins the
most similar cluster when the fraction of positions with exactly equal
tokens reaches the similarity threshold, and every differing position of
the cluster template becomes a wildcard. Otherwise the record seeds a new
cluster.

A repeated token sequence skips the search only while the tree is exactly
as it was after that sequence last joined a cluster without changing it.
After any other add the same sequence may take another path: ``<*>`` never
counts as a match, so a sequence with many ``<*>`` tokens can miss the
cluster it has just seeded; wildcards that other records add to its
cluster can tip the choice to another cluster; and a new cluster can add a
literal child that now captures it.
"""

from __future__ import annotations

from ..templates import WILDCARD, Group, merged


def _has_digit(token: str) -> bool:
    return any(ch.isdigit() for ch in token)


class _Node:
    __slots__ = ("children", "clusters")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.clusters: list[Group] = []


class DrainTree:
    def __init__(self, depth: int, sim_threshold: float, max_children: int):
        # depth counts root, token-count level, leading-token levels and the
        # leaf group level, so depth 4 keys one leading token.
        self.lead_levels = depth - 3
        self.sim_threshold = sim_threshold
        self.max_children = max_children
        self.root = _Node()
        self.clusters: list[Group] = []
        # bumped on every new cluster and every template change
        self.version = 0

    def _path_tokens(self, tokens):
        # never key on the final token; it is usually a variable tail
        return tokens[:min(self.lead_levels, len(tokens) - 1)]

    def _similarity(self, template, tokens) -> tuple[float, int]:
        same = 0
        params = 0
        for t, o in zip(template, tokens):
            if t == WILDCARD:
                params += 1
            elif t == o:
                same += 1
        return same / len(template), params

    def _search(self, tokens) -> Group | None:
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

    def _insert(self, cluster: Group):
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

    def add(self, tokens, line_id: int) -> Group:
        cluster = self._search(tokens)
        if cluster is None:
            cluster = Group(template=list(tokens))
            self.clusters.append(cluster)
            self._insert(cluster)
            self.version += 1
        else:
            template = merged(cluster.template, tokens)
            if template != cluster.template:
                cluster.template = template
                self.version += 1
        cluster.member_ids.append(line_id)
        return cluster


def fit_drain(records, *, depth: int, sim_threshold: float, max_children: int):
    """Group records; returns (template, line_ids) pairs in creation order."""
    tree = DrainTree(depth=depth, sim_threshold=sim_threshold,
                     max_children=max_children)
    # tokens -> (cluster, tree version) after an add that changed nothing;
    # while the version holds, the same tokens would take the same path
    settled: dict[tuple[str, ...], tuple[Group, int]] = {}
    for rec in records:
        hit = settled.get(rec.tokens)
        if hit is not None and hit[1] == tree.version:
            hit[0].member_ids.append(rec.line_id)
            continue
        version = tree.version
        cluster = tree.add(rec.tokens, rec.line_id)
        if tree.version == version:
            settled[rec.tokens] = (cluster, version)
    return [(c.template, c.member_ids) for c in tree.clusters]
