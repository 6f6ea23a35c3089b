"""Text file formats: edge lists, interaction scripts, social profiles, traces.

Edge list format: optional header line ``nodes N`` (needed to declare isolated
nodes), then one ``u v`` pair of decimal ids per line, each edge once in
either orientation. ``#`` starts a comment.

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
from typing import IO

import numpy as np

from .errors import InputError
from .graph import DynGraph, code_ends, edge_codes, fingerprint_hex, norm_pair

WRITE_BLOCK = 1 << 16      # edge lines formatted per write


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _malformed(path: str, lineno: int, line: str) -> InputError:
    return InputError(f"{path}:{lineno}: malformed number in {line!r}")


def read_edgelist(path: str) -> DynGraph:
    n_declared = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = _strip(raw)
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected 'nodes N' or 'u v', got {line!r}")
            try:
                if parts[0] == "nodes":
                    n_declared = int(parts[1])
                    continue
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise _malformed(path, lineno, line) from None
            edge = norm_pair(u, v)
            if edge in seen:
                raise InputError(f"{path}:{lineno}: edge ({edge[0]},{edge[1]}) listed twice")
            seen.add(edge)
            edges.append((u, v))
            max_id = max(max_id, u, v)
    n = n_declared if n_declared is not None else max_id + 1
    if n < max_id + 1:
        raise InputError(f"{path}: declared nodes {n} but saw node id {max_id}")
    return DynGraph.from_edges(max(n, 0), edges)


def write_edgelist(g: DynGraph, path: str) -> None:
    """Write g as a ``nodes N`` header and its edges ``u v``, u < v, in
    ascending order, formatted from its edge codes WRITE_BLOCK lines at a
    time, so no neighbour set is built."""
    codes = edge_codes(g)
    with open(path, "w") as fh:
        fh.write(f"nodes {g.n}\n")
        for lo in range(0, len(codes), WRITE_BLOCK):
            part = codes[lo:lo + WRITE_BLOCK]
            ends = np.stack(code_ends(part), axis=1).ravel().tolist()
            fh.write("%d %d\n" * len(part) % tuple(ends))


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
                    try:
                        pairs.append(norm_pair(int(a), int(b)))
                    except ValueError:
                        raise _malformed(path, lineno, line) from None
            rounds.append(pairs)
    return rounds


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
            if len(parts) != 3:
                raise InputError(
                    f"{path}:{lineno}: expected 'id niceness extroversion' or 'enemy u v'")
            try:
                if parts[0] == "enemy":
                    enemies.add(norm_pair(int(parts[1]), int(parts[2])))
                    continue
                node = int(parts[0])
                if node in niceness:
                    raise InputError(f"{path}:{lineno}: node {node} listed twice")
                niceness[node] = float(parts[1])
                extroversion[node] = int(parts[2])
            except ValueError:
                raise _malformed(path, lineno, line) from None
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


def write_trace(fh: IO[str], seed: int, metadata: dict, trace) -> None:
    """Write a run's trace to ``fh``: the header, carrying ``seed`` and
    ``metadata``, one record per recorded round, and the verdict."""
    fh.write(json.dumps({"type": "header", "format": TRACE_FORMAT, "seed": seed,
                         **metadata}) + "\n")
    for r in trace.rounds:
        fh.write(json.dumps({"type": "round", "round": r.t, "interactions": r.interactions,
                             "added": r.added, "removed": r.removed, "classes": r.classes,
                             "fingerprint": fingerprint_hex(r.fingerprint)}) + "\n")
    v = trace.verdict
    period = {} if v.period is None else {"period": v.period}
    fh.write(json.dumps({"type": "verdict", "kind": v.kind, "round": v.round, **period}) + "\n")


def read_trace(path: str) -> dict:
    """Load a trace file back into {header, rounds, verdict}.

    Raises InputError, naming the line, for a line that is not a JSON record
    with a ``type``, and unless the header declares format TRACE_FORMAT.
    """
    header = None
    rounds = []
    verdict = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
                kind = rec.pop("type")
            except (ValueError, TypeError, AttributeError, KeyError):
                raise InputError(f"{path}:{lineno}: malformed trace record") from None
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
