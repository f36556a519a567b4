"""Fixed reference work that measures how fast the host runs Python right now.

Usage: python3 reference.py

The benchmark runs this program between the timed commands and divides every
command's wall time by this program's wall time (see ``run.py``). It is the
same code on every commit, so a change to the program under test moves the
ratio by its full amount, while a host that runs every process slower for a
while moves both sides of the ratio alike.

The work resembles the program's hot paths: interpreter start and imports,
a working set of tens of megabytes of token tuples, regular-expression
masking and splitting of log-like lines, dict counting and small token
edit-distance tables.
"""

import argparse  # noqa: F401  (imported for the start-up cost only)
import csv  # noqa: F401
import dataclasses  # noqa: F401
import hashlib
import json
import re

LINES = 12_000
NUMBER = re.compile(r"\d+")


def edit_distance(a: list[str], b: list[str]) -> int:
    prev = list(range(len(b) + 1))
    for x in a:
        cur = [prev[0] + 1]
        for j, y in enumerate(b):
            cur.append(min(prev[j + 1] + 1, cur[j] + 1, prev[j] + (x != y)))
        prev = cur
    return prev[-1]


def main() -> None:
    # Distinct lines kept as token tuples: a working set of tens of MB, as
    # the program's corpora and caches have.
    lines = {}
    for i in range(LINES):
        verb = ("send", "receive", "delete", "verify")[i % 4]
        line = (f"081109 2035{i % 60:02d} {i % 997} INFO dfs.DataNode: node{i % 97} "
                f"{verb} blk_{i * 7919 % 100_003} size {i % 4096}")
        lines[tuple(line.split())] = i
    masked: dict[tuple[str, ...], int] = {}
    total = 0
    for n, tokens in enumerate(lines):
        key = tuple(NUMBER.sub("<*>", " ".join(tokens)).split())
        masked[key] = masked.get(key, 0) + 1
        if n % 4 == 0:
            total += edit_distance(list(key[:7]), list(key[1:8]))
    keys = list(lines)
    hits = sum(lines[keys[i * 7919 % LINES]] & 1 for i in range(LINES))
    digest = hashlib.sha256(json.dumps(sorted(masked.items())).encode()).hexdigest()
    print(total, len(masked), hits, digest[:12])


if __name__ == "__main__":
    main()
