"""Persistence for the public index (PADS / KPADS / PageRank).

The public index is the only expensive artifact in PPKWS — it is built
once per public graph and shared by every user — so a production
deployment wants it on disk.  The format is JSON-lines: one record per
vertex sketch / keyword sketch, self-describing and diff-friendly.

Crash safety (format v2)
------------------------
``save_index`` writes through :func:`repro.ioutil.atomic_write`
(tmp + fsync + rename), so a crash mid-save leaves the previous index
intact — never a truncated hybrid at ``path``.  The file ends with a
checksummed trailer record::

    {"record": "trailer", "records": N, "sha256": "<hex>"}

where the digest covers every preceding raw line.  ``load_index``
verifies the trailer *before* interpreting any record: a truncated
file, a bit flip, a missing trailer or a record-count mismatch raises
:class:`~repro.exceptions.IndexCorruptError` (which the service facade
quarantines to ``<path>.corrupt``) instead of half-loading a damaged
index.  A *stale* file — right format, wrong graph — still raises the
base :class:`~repro.exceptions.IndexBuildError`, which callers treat
as "rebuild".

Vertex identity: JSON only has strings and numbers, so vertices are
stored with a one-character type tag (``i:42`` / ``s:name``).  Only
``int`` and ``str`` vertices are supported for persistence — the
generators and datasets use exactly these.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple, Union

from repro import faults
from repro.core.framework import PublicIndex
from repro.exceptions import IndexBuildError, IndexCorruptError
from repro.faults.points import (
    PERSIST_LOAD_READ,
    PERSIST_SAVE_FSYNC,
    PERSIST_SAVE_RENAME,
    PERSIST_SAVE_WRITE,
)
from repro.graph.labeled_graph import Vertex
from repro.ioutil import atomic_write

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.protocol import GraphLike
from repro.sketches.base import DistanceSketch
from repro.sketches.kpads import KeywordSketch

__all__ = ["save_index", "load_index"]

PathLike = Union[str, "os.PathLike[str]"]

_FORMAT_VERSION = 2


def _encode_vertex(v: Vertex) -> str:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise IndexBuildError(
            f"only int and str vertices can be persisted, got {type(v).__name__}"
        )
    return f"i:{v}" if isinstance(v, int) else f"s:{v}"


def _decode_vertex(token: str) -> Vertex:
    tag, _, body = token.partition(":")
    if tag == "i":
        return int(body)
    if tag == "s":
        return body
    raise IndexBuildError(f"malformed vertex token {token!r}")


def _iter_records(index: PublicIndex) -> Iterator[str]:
    """Yield every record line (with newline), trailer excluded."""
    yield json.dumps({
        "record": "header",
        "version": _FORMAT_VERSION,
        "k": index.pads.k,
        "kpads_per_center": index.kpads.per_center,
        "num_vertices": index.pads.num_vertices,
    }) + "\n"
    for v, score in index.pagerank_scores.items():
        yield json.dumps({
            "record": "pagerank",
            "v": _encode_vertex(v),
            "score": score,
        }) + "\n"
    for v, sketch in index.pads.entries.items():
        yield json.dumps({
            "record": "pads",
            "v": _encode_vertex(v),
            "centers": [[_encode_vertex(c), d] for c, d in sketch.items()],
        }) + "\n"
    for t, merged in index.kpads.entries.items():
        witnesses = index.kpads.witnesses.get(t, {})
        candidates = index.kpads.candidates.get(t, {})
        yield json.dumps({
            "record": "kpads",
            "t": t,
            "centers": [
                [
                    _encode_vertex(c),
                    d,
                    _encode_vertex(witnesses[c]),
                    [[cd, _encode_vertex(cv)] for cd, cv in candidates.get(c, [])],
                ]
                for c, d in merged.items()
            ],
        }) + "\n"


def save_index(index: PublicIndex, path: PathLike) -> None:
    """Write a :class:`PublicIndex` to ``path`` atomically (JSON lines).

    The new file becomes visible at ``path`` only after it is complete
    and fsynced; a crash at any instant leaves the previous contents of
    ``path`` (or no file) — never a torn write.
    """
    digest = hashlib.sha256()
    count = 0
    with atomic_write(
        os.fspath(path),
        PERSIST_SAVE_WRITE,
        PERSIST_SAVE_FSYNC,
        PERSIST_SAVE_RENAME,
    ) as fh:
        for line in _iter_records(index):
            digest.update(line.encode("utf-8"))
            count += 1
            fh.write(line)
        fh.write(json.dumps({
            "record": "trailer",
            "records": count,
            "sha256": digest.hexdigest(),
        }) + "\n")


def _verify_trailer(path: PathLike, lines: List[str]) -> List[str]:
    """Integrity-check ``lines``; return the record lines sans trailer."""
    if not lines:
        raise IndexCorruptError(path, "empty index file")
    try:
        trailer = json.loads(lines[-1])
    except ValueError:
        raise IndexCorruptError(
            path, "last line is not valid JSON (truncated write?)"
        ) from None
    if not isinstance(trailer, dict) or trailer.get("record") != "trailer":
        raise IndexCorruptError(
            path, "missing checksum trailer (truncated write?)"
        )
    body = lines[:-1]
    records = trailer.get("records")
    if records != len(body):
        raise IndexCorruptError(
            path,
            f"trailer expects {records} record(s) but file has {len(body)}",
        )
    digest = hashlib.sha256("".join(body).encode("utf-8")).hexdigest()
    if digest != trailer.get("sha256"):
        raise IndexCorruptError(path, "checksum mismatch (bit flip?)")
    return body


def load_index(graph: "GraphLike", path: PathLike) -> PublicIndex:
    """Read a :class:`PublicIndex` previously written by :func:`save_index`.

    ``graph`` must be the same public graph the index was built over
    (checked by vertex count; deeper consistency is the caller's
    responsibility, exactly as with any on-disk index).  The returned
    index carries ``graph`` frozen through :func:`repro.graph.freeze`,
    like a freshly built one.

    Raises :class:`~repro.exceptions.IndexCorruptError` when the file
    fails its integrity checks (truncation, bit flip, version skew) and
    plain :class:`~repro.exceptions.IndexBuildError` when the file is
    merely stale for ``graph``.
    """
    pagerank_scores: Dict[Vertex, float] = {}
    pads_entries: Dict[Vertex, Dict[Vertex, float]] = {}
    kpads_entries: Dict[str, Dict[Vertex, float]] = {}
    kpads_witnesses: Dict[str, Dict[Vertex, Vertex]] = {}
    kpads_candidates: Dict[str, Dict[Vertex, List[Tuple[float, Vertex]]]] = {}
    header = None

    faults.fire(PERSIST_LOAD_READ)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    body = _verify_trailer(path, lines)

    for line in body:
        try:
            rec = json.loads(line)
            kind = rec["record"]
            if kind == "header":
                header = rec
                if rec.get("version") != _FORMAT_VERSION:
                    raise IndexCorruptError(
                        path,
                        f"unsupported index format version {rec.get('version')}",
                    )
            elif kind == "pagerank":
                pagerank_scores[_decode_vertex(rec["v"])] = rec["score"]
            elif kind == "pads":
                pads_entries[_decode_vertex(rec["v"])] = {
                    _decode_vertex(c): d for c, d in rec["centers"]
                }
            elif kind == "kpads":
                t = rec["t"]
                merged: Dict[Vertex, float] = {}
                wit: Dict[Vertex, Vertex] = {}
                cand: Dict[Vertex, List[Tuple[float, Vertex]]] = {}
                for c_tok, d, w_tok, cand_list in rec["centers"]:
                    c = _decode_vertex(c_tok)
                    merged[c] = d
                    wit[c] = _decode_vertex(w_tok)
                    cand[c] = [(cd, _decode_vertex(cv)) for cd, cv in cand_list]
                kpads_entries[t] = merged
                kpads_witnesses[t] = wit
                kpads_candidates[t] = cand
            elif kind == "trailer":
                raise IndexCorruptError(
                    path, "trailer record before end of file"
                )
            else:
                raise IndexCorruptError(path, f"unknown record kind {kind!r}")
        except IndexBuildError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            # The checksum passed but a record does not decode: the file
            # was damaged before the trailer was computed (or hand-edited).
            raise IndexCorruptError(
                path, f"undecodable record: {type(exc).__name__}: {exc}"
            ) from exc

    if header is None:
        raise IndexCorruptError(path, "missing index header record")
    if header["num_vertices"] != graph.num_vertices:
        # Stale, not corrupt: the graph changed since the index was
        # built.  Callers rebuild silently, exactly as before v2.
        raise IndexBuildError(
            f"index was built over {header['num_vertices']} vertices but the "
            f"graph has {graph.num_vertices}"
        )

    pads = DistanceSketch(pads_entries, header["k"], kind="PADS")
    kpads = KeywordSketch(
        kpads_entries,
        kpads_witnesses,
        header["k"],
        kpads_candidates,
        header["kpads_per_center"],
    )
    return PublicIndex(graph, pads, kpads, pagerank_scores)
