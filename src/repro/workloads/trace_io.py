"""Trace persistence: an Azure-LLM-style CSV format with loader/saver.

The public Azure LLM inference traces publish one row per request with an
arrival timestamp and context/generated token counts; this module uses the
same shape plus a tenant column::

    request_id,arrival_time,prefill_tokens,decode_tokens,tenant
    0,0.1417,9821,455,arxiv-sum

``arrival_time`` is written with ``repr()`` so a save → load → save cycle is
byte-exact, which makes deterministic replay (``ReplayArrivals``) and the
golden-regression discipline possible for recorded traces.  An empty tenant
cell round-trips to ``None``.  A malformed row (a non-numeric or non-finite
cell, a negative arrival) raises ``ValueError`` naming the file and line.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from repro.serving.request import Request

TRACE_COLUMNS = ("request_id", "arrival_time", "prefill_tokens", "decode_tokens", "tenant")


def save_trace(requests: Sequence[Request], path: str | Path) -> Path:
    """Write ``requests`` to ``path`` in the CSV trace format (see module doc)."""
    if not requests:
        raise ValueError("save_trace() requires at least one request")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for request in requests:
            writer.writerow(
                [
                    request.request_id,
                    repr(float(request.arrival_time)),
                    request.prefill_tokens,
                    request.decode_tokens,
                    request.tenant or "",
                ]
            )
    return path


def load_trace(path: str | Path) -> list[Request]:
    """Load a CSV trace saved by :func:`save_trace` (exact round-trip)."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_COLUMNS:
            raise ValueError(
                f"{path}: expected header {','.join(TRACE_COLUMNS)!r}, got {header!r}"
            )
        requests = []
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"{path}:{line_number}: expected {len(TRACE_COLUMNS)} fields")
            request_id, arrival, prefill, decode, tenant = row
            try:
                request = Request(
                    request_id=int(request_id),
                    prefill_tokens=int(prefill),
                    decode_tokens=int(decode),
                    arrival_time=float(arrival),
                    tenant=tenant or None,
                )
            except ValueError as error:
                raise ValueError(f"{path}:{line_number}: {error}") from error
            requests.append(request)
    if not requests:
        raise ValueError(f"{path}: trace contains no requests")
    return requests
