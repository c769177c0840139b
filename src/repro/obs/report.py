"""Run-report generator: one HTML page (plus markdown) per telemetry run.

Turns a finalized :class:`~repro.obs.telemetry.Telemetry` into a
self-contained artifact bundle:

* ``report.html`` — run summary, metric registry table, latency histograms
  (CSS bar charts), fleet time-series (inline SVG sparklines) and the top-K
  slowest requests as span waterfalls.  No external assets; opens anywhere.
* ``report.md`` — the same tables in markdown, for PR comments and logs.
* ``timeseries.csv`` — the :class:`~repro.obs.sampler.FleetSampler` rows.
* ``trace.json`` — the Perfetto-loadable span trace
  (https://ui.perfetto.dev).

:func:`scenario_telemetry` serves any registered workload scenario with
telemetry attached; ``repro report`` is its command line::

    PYTHONPATH=src python -m repro report --scenario shared-prefix-chat \\
        --num-requests 48 --seed 19 --out results/obs_report

``--replicas N`` sizes the fleet (``--router`` picks the policy).
"""

from __future__ import annotations

import html as html_mod
from pathlib import Path
from typing import Any, Sequence

from repro.obs.metrics import Histogram
from repro.obs.telemetry import Telemetry

#: Waterfall phase colors (also the HTML legend order).
PHASE_COLORS = {
    "queued": "#b5b5b5",
    "prefill": "#4c78a8",
    "recompute": "#e45756",
    "decode": "#59a14f",
}

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem;
       color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; font-size: 0.85rem; margin: 0.5rem 0; }
th, td { border: 1px solid #ddd; padding: 0.25rem 0.6rem; text-align: right; }
th { background: #f5f5f5; } td:first-child, th:first-child { text-align: left; }
.bar { background: #4c78a8; height: 0.8rem; display: inline-block; }
.lane { position: relative; height: 1.1rem; background: #fafafa;
        border: 1px solid #eee; margin: 2px 0; }
.lane span { position: absolute; top: 0; bottom: 0; }
.legend span { display: inline-block; width: 0.9rem; height: 0.9rem;
               margin: 0 0.3rem 0 1rem; vertical-align: middle; }
.small { color: #666; font-size: 0.8rem; }
svg { background: #fafafa; border: 1px solid #eee; }
"""


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _html_table(rows: Sequence[dict[str, Any]], columns: Sequence[str] | None = None) -> str:
    if not rows:
        return "<p class='small'>(no rows)</p>"
    columns = list(columns or rows[0].keys())
    head = "".join(f"<th>{html_mod.escape(str(c))}</th>" for c in columns)
    body: list[str] = []
    for row in rows:
        cells = "".join(
            f"<td>{html_mod.escape(_fmt(row.get(c, '')))}</td>" for c in columns
        )
        body.append(f"<tr>{cells}</tr>")
    return f"<table><tr>{head}</tr>{''.join(body)}</table>"


def _md_table(rows: Sequence[dict[str, Any]], columns: Sequence[str] | None = None) -> str:
    if not rows:
        return "_(no rows)_"
    columns = list(columns or rows[0].keys())
    lines = [
        "| " + " | ".join(str(c) for c in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(c, "")) for c in columns) + " |")
    return "\n".join(lines)


def _histogram_chart(hist: Histogram, unit: str = "s") -> str:
    """One histogram as an HTML bucket-bar table."""
    rows = hist.bucket_rows()
    if not rows:
        return "<p class='small'>(empty)</p>"
    peak = max(row["count"] for row in rows)
    out = ["<table><tr><th>bucket</th><th>count</th><th></th></tr>"]
    for row in rows:
        width = max(int(160 * row["count"] / peak), 2)
        out.append(
            f"<tr><td>{row['low']:.4g}&ndash;{row['high']:.4g} {unit}</td>"
            f"<td>{row['count']}</td>"
            f"<td style='text-align:left'><span class='bar' "
            f"style='width:{width}px'></span></td></tr>"
        )
    out.append("</table>")
    summary = hist.summary_row()
    out.append(
        "<p class='small'>"
        + " &middot; ".join(f"{k}={_fmt(v)}" for k, v in summary.items())
        + f" &middot; &plusmn;{hist.relative_error * 100:.0f}% bucket error</p>"
    )
    return "".join(out)


def _sparkline(points: Sequence[tuple[float, float]], width: int = 640, height: int = 80) -> str:
    """Inline SVG polyline over (x, y) samples."""
    if len(points) < 2:
        return "<p class='small'>(not enough samples)</p>"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_span = (max(xs) - min(xs)) or 1.0
    y_peak = max(ys) or 1.0
    coords = " ".join(
        f"{(x - min(xs)) / x_span * (width - 8) + 4:.1f},"
        f"{height - 4 - y / y_peak * (height - 8):.1f}"
        for x, y in points
    )
    return (
        f"<svg width='{width}' height='{height}'>"
        f"<polyline points='{coords}' fill='none' stroke='#4c78a8' stroke-width='1.5'/>"
        f"</svg>"
        f"<p class='small'>t &isin; [{min(xs):.4g}, {max(xs):.4g}] s, "
        f"peak {y_peak:.4g}</p>"
    )


def _waterfall(rows: Sequence[dict[str, Any]]) -> str:
    """Top-K slowest requests as per-phase horizontal span lanes."""
    if not rows:
        return "<p class='small'>(no completed requests)</p>"
    legend = "".join(
        f"<span style='background:{color}'></span>{name}"
        for name, color in PHASE_COLORS.items()
    )
    out = [f"<p class='legend small'>{legend}</p>"]
    for row in rows:
        start = row["arrival_time"]
        extent = max(row["e2e_latency"], 1e-12)
        lane: list[str] = []
        for span in row["spans"]:
            left = (span.start - start) / extent * 100.0
            width = max(span.duration / extent * 100.0, 0.15)
            color = PHASE_COLORS.get(span.name, "#888")
            lane.append(
                f"<span title='{html_mod.escape(span.name)} {span.duration:.4g}s' "
                f"style='left:{left:.2f}%;width:{width:.2f}%;background:{color}'></span>"
            )
        ttft = f"{row['ttft']:.3f}s" if row["ttft"] is not None else "-"
        out.append(
            f"<p class='small'>req {row['request_id']} &middot; replica "
            f"{row['replica_id']} &middot; e2e {row['e2e_latency']:.3f}s &middot; "
            f"ttft {ttft} &middot; preemptions {row['preemptions']}</p>"
            f"<div class='lane'>{''.join(lane)}</div>"
        )
    return "".join(out)


# ---------------------------------------------------------------- rendering


def _latency_histograms(telemetry: Telemetry) -> list[tuple[str, Histogram]]:
    sections: list[tuple[str, Histogram]] = []
    for name in ("request_e2e_s", "request_ttft_s", "request_tbt_s", "step_duration_s"):
        if telemetry.registry.instruments(name):
            sections.append((name, telemetry.registry.merged_histogram(name)))
    return sections


def render_html(telemetry: Telemetry, title: str, summary: dict[str, Any] | None = None) -> str:
    """The full self-contained HTML report."""
    fleet = telemetry.sampler.fleet_series()
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{html_mod.escape(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{html_mod.escape(title)}</h1>",
    ]
    if summary:
        parts.append("<h2>Run summary</h2>")
        parts.append(_html_table([summary]))
    parts.append("<h2>Latency distributions</h2>")
    for name, hist in _latency_histograms(telemetry):
        parts.append(f"<h3 class='small'>{html_mod.escape(name)}</h3>")
        parts.append(_histogram_chart(hist))
    parts.append("<h2>Fleet time-series</h2>")
    for column in ("queue_depth", "running", "kv_utilization", "prefix_hit_rate"):
        if column == "prefix_hit_rate":
            # Rates don't sum across replicas; chart the fleet mean.
            by_time: dict[float, list[float]] = {}
            for row in telemetry.sampler.rows:
                by_time.setdefault(row["time_s"], []).append(row["prefix_hit_rate"])
            points = [(t, sum(v) / len(v)) for t, v in sorted(by_time.items())]
        else:
            points = [(row["time_s"], row[column]) for row in fleet]
        parts.append(f"<h3 class='small'>{column}</h3>")
        parts.append(_sparkline(points))
    parts.append("<p class='small'>Full series in <code>timeseries.csv</code>; "
                 "span trace in <code>trace.json</code> (open in "
                 "<a href='https://ui.perfetto.dev'>ui.perfetto.dev</a>).</p>")
    parts.append("<h2>Slowest requests</h2>")
    parts.append(_waterfall(telemetry.tracer.waterfall_rows()))
    parts.append("<h2>Metric registry</h2>")
    parts.append(_html_table(telemetry.registry.collect()))
    parts.append("</body></html>")
    return "".join(parts)


def render_markdown(telemetry: Telemetry, title: str, summary: dict[str, Any] | None = None) -> str:
    """The markdown sibling of :func:`render_html` (tables only)."""
    parts = [f"# {title}", ""]
    if summary:
        parts += ["## Run summary", "", _md_table([summary]), ""]
    latency_rows = [
        {"metric": name, **hist.summary_row()}
        for name, hist in _latency_histograms(telemetry)
    ]
    parts += ["## Latency distributions", "", _md_table(latency_rows), ""]
    waterfall = telemetry.tracer.waterfall_rows()
    rows = [
        {
            "request": row["request_id"],
            "replica": row["replica_id"],
            "e2e_s": row["e2e_latency"],
            "ttft_s": row["ttft"] if row["ttft"] is not None else "-",
            "preemptions": row["preemptions"],
            **{f"{k}_s": v for k, v in sorted(row["phases"].items())},
        }
        for row in waterfall
    ]
    parts += ["## Slowest requests", "", _md_table(rows), ""]
    parts += ["## Metric registry", "", _md_table(telemetry.registry.collect()), ""]
    return "\n".join(parts)


def generate_report(
    telemetry: Telemetry,
    out_dir: str | Path,
    title: str = "telemetry report",
    summary: dict[str, Any] | None = None,
) -> dict[str, Path]:
    """Write the full artifact bundle; returns the paths keyed by kind."""
    telemetry.finalize()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "html": out / "report.html",
        "markdown": out / "report.md",
        "timeseries_csv": out / "timeseries.csv",
        "trace_json": out / "trace.json",
    }
    paths["html"].write_text(render_html(telemetry, title, summary))
    paths["markdown"].write_text(render_markdown(telemetry, title, summary))
    telemetry.sampler.to_csv(paths["timeseries_csv"])
    telemetry.tracer.to_perfetto(paths["trace_json"])
    return paths


# ----------------------------------------------------------------- scenarios


def scenario_telemetry(
    scenario: str,
    num_requests: int | None = None,
    seed: int = 0,
    qps: float | None = None,
    replicas: int = 1,
    router: str = "prefix-affinity",
    capacity_tokens: int | None = None,
    sample_interval: float = 0.5,
    model: str = "llama-3-8b",
) -> tuple[Telemetry, dict[str, Any]]:
    """Serve one registered scenario with a fresh Telemetry attached.

    Returns ``(telemetry, summary_row)``.  A thin telemetry dressing over
    :func:`repro.workloads.scenario.run_scenario` (the shared entry point):
    ``replicas`` colocated Sarathi+POD replicas with prefix caching on,
    routed by ``router``.
    """
    from repro.bench.pressure_rows import FIG19_CHUNK_SIZE
    from repro.models.config import ClusterSpec, paper_deployment
    from repro.serving.kv_cache import KVCacheConfig
    from repro.workloads.scenario import run_scenario

    deployment = paper_deployment(model)
    telemetry = Telemetry(sample_interval=sample_interval)
    if capacity_tokens is None:
        # Deployment-sized capacity (the fig17 configuration) fits any
        # registry scenario; explicit capacities simulate memory pressure.
        kv_config = KVCacheConfig.for_deployment(deployment, enable_prefix_caching=True)
    else:
        kv_config = KVCacheConfig(
            capacity_tokens=capacity_tokens, block_size=16, enable_prefix_caching=True
        )
    result = run_scenario(
        scenario,
        num_requests=num_requests,
        seed=seed,
        qps=qps,
        recorder=telemetry,
        spec=ClusterSpec(deployment, replicas),
        router=router,
        chunk_size=FIG19_CHUNK_SIZE,
        backend="pod",
        kv_config=kv_config,
    )
    telemetry.finalize()
    summary: dict[str, Any] = {
        "scenario": scenario,
        "replicas": replicas,
        "seed": seed,
        **result.metrics.fleet.as_row(),
    }
    return telemetry, summary
