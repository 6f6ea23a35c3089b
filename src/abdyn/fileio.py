"""Text file formats: edge lists, interaction scripts, social profiles, traces.

Edge list format: optional header line ``nodes N`` (needed to declare isolated
nodes), then one ``u v`` pair of decimal ids per line. ``#`` starts a comment.

Interaction script format: one round per line, space-separated ``u-v`` tokens;
a blank line is an empty round.

Social profile format: one ``id niceness extroversion`` line per node, then
``enemy u v`` lines for enemy pairs.

Trace format: JSON lines, a header record carrying ``format`` (TRACE_FORMAT),
one record per round and a verdict record. Round fingerprints are those of
``graph.graph_fingerprint``; a trace of another format cannot be replayed.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from .errors import InputError
from .graph import DynGraph, fingerprint_hex, norm_pair


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def read_edgelist(path: str) -> DynGraph:
    n_declared = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = _strip(raw)
            if not line:
                continue
            parts = line.split()
            if parts[0] == "nodes":
                if len(parts) != 2:
                    raise InputError(f"{path}:{lineno}: malformed nodes header")
                n_declared = int(parts[1])
                continue
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: non-integer node id") from exc
            edges.append((u, v))
            max_id = max(max_id, u, v)
    n = n_declared if n_declared is not None else max_id + 1
    if n < max_id + 1:
        raise InputError(f"{path}: declared nodes {n} but saw node id {max_id}")
    return DynGraph.from_edges(max(n, 0), edges)


def write_edgelist(g: DynGraph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"nodes {g.n}\n")
        for u, v in sorted(g.edges()):
            fh.write(f"{u} {v}\n")


def read_interaction_script(path: str) -> list[list[tuple[int, int]]]:
    rounds: list[list[tuple[int, int]]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = _strip(raw)
            if line == "" and raw.strip().startswith("#"):
                continue
            pairs: list[tuple[int, int]] = []
            if line:
                for tok in line.split():
                    if "-" not in tok:
                        raise InputError(f"{path}:{lineno}: expected 'u-v' token, got {tok!r}")
                    a, b = tok.split("-", 1)
                    pairs.append(norm_pair(int(a), int(b)))
            rounds.append(pairs)
    return rounds


def write_interaction_script(rounds: Iterable[Iterable[tuple[int, int]]], path: str) -> None:
    with open(path, "w") as fh:
        for pairs in rounds:
            fh.write(" ".join(f"{u}-{v}" for u, v in pairs) + "\n")


def read_social_profile(path: str):
    """Parse a social profile file. Returns (niceness, extroversion, enemy_pairs)."""
    niceness: dict[int, float] = {}
    extroversion: dict[int, int] = {}
    enemies: set[tuple[int, int]] = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = _strip(raw)
            if not line:
                continue
            parts = line.split()
            if parts[0] == "enemy":
                if len(parts) != 3:
                    raise InputError(f"{path}:{lineno}: expected 'enemy u v'")
                enemies.add(norm_pair(int(parts[1]), int(parts[2])))
                continue
            if len(parts) != 3:
                raise InputError(f"{path}:{lineno}: expected 'id niceness extroversion'")
            node = int(parts[0])
            niceness[node] = float(parts[1])
            extroversion[node] = int(parts[2])
    if sorted(niceness) != list(range(len(niceness))):
        raise InputError(f"{path}: node ids must be dense 0..n-1")
    n = len(niceness)
    return (
        tuple(niceness[i] for i in range(n)),
        tuple(extroversion[i] for i in range(n)),
        frozenset(enemies),
    )


# 2: fingerprints fold splitmix64 edge tokens (1, unmarked: blake2b tokens)
TRACE_FORMAT = 2


class TraceWriter:
    """Line-delimited JSON trace records, one per round plus header/verdict."""

    def __init__(self, fh: IO[str]):
        self._fh = fh

    def header(self, seed: int, metadata: dict) -> None:
        self._fh.write(json.dumps({"type": "header", "format": TRACE_FORMAT, "seed": seed,
                                   **metadata}) + "\n")

    def round(self, record) -> None:
        self._fh.write(
            json.dumps(
                {
                    "type": "round",
                    "round": record.t,
                    "interactions": record.interactions,
                    "added": record.added,
                    "removed": record.removed,
                    "classes": record.classes,
                    "fingerprint": fingerprint_hex(record.fingerprint),
                }
            )
            + "\n"
        )

    def verdict(self, verdict) -> None:
        rec = {"type": "verdict", "kind": verdict.kind, "round": verdict.round}
        if verdict.period is not None:
            rec["period"] = verdict.period
        self._fh.write(json.dumps(rec) + "\n")


def read_trace(path: str) -> dict:
    """Load a trace file back into {header, rounds, verdict}.

    Raises InputError unless the header declares format TRACE_FORMAT.
    """
    header = None
    rounds = []
    verdict = None
    with open(path) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            rec = json.loads(raw)
            kind = rec.pop("type")
            if kind == "header":
                header = rec
            elif kind == "round":
                rounds.append(rec)
            elif kind == "verdict":
                verdict = rec
    found = (header or {}).get("format")
    if found != TRACE_FORMAT:
        raise InputError(
            f"{path}: trace format {found if found is not None else 'missing'}, "
            f"this version reads format {TRACE_FORMAT} only")
    return {"header": header, "rounds": rounds, "verdict": verdict}
