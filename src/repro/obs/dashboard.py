"""Dashboard renderers for telemetry snapshots: terminal and HTML.

Both renderers are pure functions of a
:meth:`~repro.obs.telemetry.TelemetryPipeline.snapshot` dict, so the
``repro watch`` live view, the ``--html`` export, and the tests all
consume the same data and stay in lockstep.  The HTML export is fully
self-contained (inline CSS + inline SVG, zero external assets or
scripts) so the file can be attached to a bug report or served by any
static web server as-is.
"""

import html

_SPARKS = "▁▂▃▄▅▆▇█"

#: Terminal frame: rule width, sparkline cells, tenant rows and
#: trailing SLO events shown.
FRAME_WIDTH = 78
SPARK_WIDTH = 60
FRAME_TENANTS = 12
FRAME_EVENTS = 5

#: HTML chart viewBox size and line colour.
CHART_WIDTH = 640
CHART_HEIGHT = 90
CHART_COLOR = "#2563eb"


def sparkline(values):
    """Unicode sparkline of ``values``, resampled to ``SPARK_WIDTH`` cells."""
    if not values:
        return ""
    if len(values) > SPARK_WIDTH:
        # Max-pool each cell so spikes survive the resample.
        factor = -(-len(values) // SPARK_WIDTH)
        values = [max(values[i:i + factor])
                  for i in range(0, len(values), factor)]
    top = max(values)
    if top <= 0:
        return _SPARKS[0] * len(values)
    scale = len(_SPARKS) - 1
    return "".join(_SPARKS[min(scale, int(v * scale / top))]
                   for v in values)


def _column(rows, columns, name):
    index = columns.index(name)
    return [row[index] for row in rows]


def _fmt_us(us):
    if us >= 1_000_000:
        return "%.2fs" % (us / 1_000_000.0)
    if us >= 1_000:
        return "%.1fms" % (us / 1_000.0)
    return "%dus" % us


def render_frame(snapshot):
    """One terminal frame (plain text, no escape codes)."""
    rows = snapshot["rows"]
    columns = snapshot["columns"]
    lines = []
    lines.append("repro telemetry  t=%s  windows=%d  tenants=%d" % (
        _fmt_us(snapshot["now_us"]), len(rows), len(snapshot["tenants"])))
    lines.append("=" * FRAME_WIDTH)

    if rows:
        for label, name in (("req/win", "requests"),
                            ("p95 us", "p95_us"),
                            ("penalties", "penalties"),
                            ("active set", "active"),
                            ("breached", "breached")):
            series = _column(rows, columns, name)
            lines.append("%-10s %s %8d" % (
                label, sparkline(series), series[-1]))
    else:
        lines.append("(no closed windows yet)")

    lines.append("")
    lines.append("%-10s %8s %6s %9s %9s %9s %6s %6s %s" % (
        "tenant", "reqs", "bad", "p50", "p95", "wait95",
        "burn", "long", "slo"))
    for entry in snapshot["tenants"][:FRAME_TENANTS]:
        lines.append("%-10s %8d %6d %9s %9s %9s %6.2f %6.2f %s" % (
            entry["tenant"], entry["requests"], entry["bad"],
            _fmt_us(entry["p50_us"]), _fmt_us(entry["p95_us"]),
            _fmt_us(entry["wait_p95_us"]),
            entry["burn_short"], entry["burn_long"],
            "BREACH" if entry["breached"] else "ok"))
    hidden = len(snapshot["tenants"]) - FRAME_TENANTS
    if hidden > 0:
        lines.append("... %d more tenants" % hidden)

    events = snapshot["slo_events"]
    if events:
        lines.append("")
        lines.append("slo events (%d total):" % len(events))
        for event in events[-FRAME_EVENTS:]:
            if event["kind"] == "breach":
                lines.append("  %s BREACH %s burn=%.1f/%.1f" % (
                    _fmt_us(event["time_us"]), event["tenant"],
                    event["burn_short"], event["burn_long"]))
            else:
                lines.append("  %s recover %s after %s" % (
                    _fmt_us(event["time_us"]), event["tenant"],
                    _fmt_us(event["breach_us"])))
    return "\n".join(lines)


def _svg_chart(title, values):
    """One inline SVG line chart for a numeric series."""
    if not values:
        return ""
    top = max(max(values), 1)
    n = max(len(values) - 1, 1)
    points = " ".join(
        "%.1f,%.1f" % (index * CHART_WIDTH / n,
                       CHART_HEIGHT - value * (CHART_HEIGHT - 4) / top - 2)
        for index, value in enumerate(values))
    return (
        '<div class="chart"><h3>%s <span>max %s</span></h3>'
        '<svg viewBox="0 0 %d %d" preserveAspectRatio="none">'
        '<polyline fill="none" stroke="%s" stroke-width="1.5" '
        'points="%s"/></svg></div>'
        % (html.escape(title), top, CHART_WIDTH, CHART_HEIGHT, CHART_COLOR,
           points))


_HTML_STYLE = """
body { font-family: ui-monospace, Menlo, monospace; margin: 2em;
       background: #0b1020; color: #d8e0f0; }
h1 { font-size: 1.2em; } h3 { font-size: 0.9em; margin: 0.4em 0 0.1em; }
h3 span { color: #7a86a8; font-weight: normal; }
svg { width: 100%; height: 90px; background: #121a33;
      border: 1px solid #26304f; }
table { border-collapse: collapse; margin-top: 1em; font-size: 0.85em; }
td, th { border: 1px solid #26304f; padding: 0.25em 0.6em;
         text-align: right; }
th { background: #121a33; } td:first-child { text-align: left; }
.breach { color: #f87171; font-weight: bold; }
.ok { color: #4ade80; } .events { margin-top: 1em; font-size: 0.85em; }
"""


def render_html(snapshot, title="repro telemetry"):
    """Self-contained HTML dashboard for a telemetry snapshot."""
    rows = snapshot["rows"]
    columns = snapshot["columns"]
    charts = []
    if rows:
        for label, name in (("requests / window", "requests"),
                            ("p95 latency (us)", "p95_us"),
                            ("penalty deliveries", "penalties"),
                            ("manager events", "events"),
                            ("active pBoxes", "active"),
                            ("tenants in breach", "breached")):
            charts.append(_svg_chart(label, _column(rows, columns, name)))

    tenant_rows = []
    for entry in snapshot["tenants"]:
        state = ('<span class="breach">BREACH</span>'
                 if entry["breached"] else '<span class="ok">ok</span>')
        tenant_rows.append(
            "<tr><td>%s</td><td>%d</td><td>%d</td><td>%s</td>"
            "<td>%s</td><td>%s</td><td>%.2f</td><td>%.2f</td>"
            "<td>%s</td></tr>"
            % (html.escape(entry["tenant"]), entry["requests"],
               entry["bad"], _fmt_us(entry["p50_us"]),
               _fmt_us(entry["p95_us"]), _fmt_us(entry["wait_p95_us"]),
               entry["burn_short"], entry["burn_long"], state))

    event_items = []
    for event in snapshot["slo_events"]:
        if event["kind"] == "breach":
            event_items.append(
                "<li>%s <b class=\"breach\">BREACH</b> %s "
                "(burn %.1f short / %.1f long)</li>"
                % (_fmt_us(event["time_us"]),
                   html.escape(event["tenant"]),
                   event["burn_short"], event["burn_long"]))
        else:
            event_items.append(
                "<li>%s <b class=\"ok\">recover</b> %s after %s</li>"
                % (_fmt_us(event["time_us"]),
                   html.escape(event["tenant"]),
                   _fmt_us(event["breach_us"])))

    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        "<title>%(title)s</title><style>%(style)s</style></head><body>"
        "<h1>%(title)s &mdash; t=%(now)s, %(windows)d windows, "
        "%(tenants)d tenants</h1>"
        "%(charts)s"
        "<table><tr><th>tenant</th><th>requests</th><th>bad</th>"
        "<th>p50</th><th>p95</th><th>wait p95</th><th>burn (short)</th>"
        "<th>burn (long)</th><th>slo</th></tr>%(tenant_rows)s</table>"
        "<div class=\"events\"><b>SLO events</b><ul>%(events)s</ul></div>"
        "</body></html>"
        % {
            "title": html.escape(title),
            "style": _HTML_STYLE,
            "now": _fmt_us(snapshot["now_us"]),
            "windows": len(rows),
            "tenants": len(snapshot["tenants"]),
            "charts": "".join(charts),
            "tenant_rows": "".join(tenant_rows),
            "events": "".join(event_items) or "<li>none</li>",
        })


def write_html(snapshot, path, title="repro telemetry"):
    """Render and write the HTML dashboard; returns ``path``."""
    with open(path, "w") as handle:
        handle.write(render_html(snapshot, title=title))
    return path
