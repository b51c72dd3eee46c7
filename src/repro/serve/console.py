"""``repro top`` — a live ops console for a running query service.

Stdlib only: :mod:`urllib.request` polls ``/status``, ``/debug/slo``
and ``/metrics?format=json``; ANSI escapes repaint the screen in place.
The rendering is a pure function over one polled snapshot, so the unit
tests exercise the exact dashboard an operator sees without a socket,
and ``--once --json`` emits the raw snapshot for scripting and CI.

What the screen answers, top to bottom: is the service ready and on
which generation; which server processes serve it, and how much each
has served; how much traffic is in flight / queued / shed; where
the rolling latency percentiles sit; how each SLO's error budget is
doing (with a burn-down bar per objective); and whether the caches and
shards are earning their keep.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any

__all__ = ["poll", "render", "run_top"]

_CLEAR = "\x1b[2J\x1b[H"
_BOLD = "\x1b[1m"
_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_YELLOW = "\x1b[33m"
_RESET = "\x1b[0m"


def _fetch(base: str, path: str, timeout_s: float) -> dict[str, Any] | None:
    """One GET returning parsed JSON; None on a non-2xx or network error."""
    try:
        with urllib.request.urlopen(
            f"{base}{path}", timeout=timeout_s
        ) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError):
        return None


def poll(base: str, timeout_s: float = 5.0) -> dict[str, Any]:
    """One console snapshot: status + SLO report + metrics, with the
    status's per-process rows also under ``processes``.

    ``slo`` is None when the service has no objectives configured (the
    endpoint answers 503) — the dashboard renders the section as absent
    rather than failing the poll.
    """
    base = base.rstrip("/")
    status = _fetch(base, "/status", timeout_s)
    if status is None:
        raise ConnectionError(f"cannot reach {base}/status")
    return {
        "polled_at": time.time(),
        "url": base,
        "status": status,
        "processes": status.get("processes", []),
        "slo": _fetch(base, "/debug/slo", timeout_s),
        "metrics": _fetch(base, "/metrics?format=json", timeout_s) or {},
    }


def _counter(metrics: dict[str, Any], name: str) -> float:
    family = metrics.get(name)
    if not family:
        return 0.0
    return sum(s.get("value", 0.0) for s in family.get("samples", []))


def _ratio(hits: float, misses: float) -> float | None:
    total = hits + misses
    return hits / total if total else None


def _bar(fraction: float, width: int = 20) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = round(fraction * width)
    return "#" * filled + "-" * (width - filled)


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def _fmt_ms(value: float | None) -> str:
    return f"{value:8.2f}" if value is not None else "       -"


def render(snapshot: dict[str, Any], *, color: bool = True) -> str:
    """The dashboard for one :func:`poll` snapshot (pure; testable)."""
    status = snapshot["status"]
    metrics = snapshot.get("metrics") or {}
    slo = snapshot.get("slo")
    lines: list[str] = []

    ready = status.get("ready")
    ready_text = (
        _paint("READY", _GREEN, color) if ready
        else _paint("NOT READY", _RED, color)
    )
    lines.append(
        f"{_paint('repro top', _BOLD, color)} — {snapshot['url']}  "
        f"[{ready_text}]  "
        f"gen={status.get('generation')} epoch={status.get('epoch')} "
        f"docs={status.get('doc_count')} "
        f"writer={'up' if status.get('writer_alive') else 'DOWN'} "
        f"breaker={status.get('breaker')}"
    )

    lines.append(
        f"traffic   inflight={status.get('inflight', 0):<4} "
        f"queued={status.get('queued', 0):<4} "
        f"admitted={status.get('admitted', 0):<8} "
        f"shed={status.get('shed', 0):<6} "
        f"timeouts={status.get('admission_timeouts', 0):<6} "
        f"swaps={status.get('swaps', 0)}"
    )

    for proc in snapshot.get("processes", []):
        state = "" if proc.get("alive", True) else "  " + _paint(
            "GONE", _RED, color
        )
        lines.append(
            f"process   pid={str(proc.get('pid')):<7} "
            f"role={proc.get('role', '?'):<6} "
            f"gen={proc.get('generation')} "
            f"inflight={proc.get('inflight', 0):<4} "
            f"requests={proc.get('requests', 0)}{state}"
        )

    telem = status.get("telemetry")
    if telem:
        latency = telem.get("latency_ms") or {}
        rates = (
            f"shed_rate={telem.get('shed_rate', 0.0):.3f} "
            f"error_rate={telem.get('error_rate', 0.0):.3f}"
        )
        lines.append(
            f"latency   p50={_fmt_ms(latency.get('p50'))}ms "
            f"p95={_fmt_ms(latency.get('p95'))}ms "
            f"p99={_fmt_ms(latency.get('p99'))}ms   "
            f"window={telem.get('requests', 0)} req/{telem.get('window_s')}s "
            f"{rates}"
        )
    else:
        lines.append("latency   (telemetry disabled)")

    plan_ratio = _ratio(
        _counter(metrics, "graft_plan_cache_hits_total"),
        _counter(metrics, "graft_plan_cache_misses_total"),
    )
    result_ratio = _ratio(
        _counter(metrics, "graft_result_cache_hits_total"),
        _counter(metrics, "graft_result_cache_misses_total"),
    )
    executed = _counter(metrics, "graft_shards_executed_total")
    pruned = _counter(metrics, "graft_shards_pruned_total")
    audits = _counter(metrics, "graft_audits_total")
    divergences = _counter(metrics, "graft_audit_divergences_total")

    def pct(ratio: float | None) -> str:
        return f"{ratio * 100.0:5.1f}%" if ratio is not None else "    -"

    lines.append(
        f"engine    plan_cache={pct(plan_ratio)} "
        f"result_cache={pct(result_ratio)} "
        f"shards run={executed:.0f} pruned={pruned:.0f} "
        f"audits={audits:.0f} divergences={divergences:.0f}"
    )

    if slo and slo.get("objectives"):
        lines.append(_paint("slo", _BOLD, color))
        for objective in slo["objectives"]:
            budget = objective.get("budget", {})
            remaining = float(budget.get("remaining_fraction", 1.0))
            breaching = objective.get("state") == "breaching"
            state_text = (
                _paint("BREACHING", _RED, color) if breaching
                else _paint("ok", _GREEN, color)
            )
            if breaching:
                bar = _paint(_bar(remaining), _RED, color)
            elif remaining < 0.25:
                bar = _paint(_bar(remaining), _YELLOW, color)
            else:
                bar = _bar(remaining)
            fast = objective.get("windows", {}).get("fast", {})
            measured = objective.get("measured_ms")
            measured_text = (
                f" measured={measured:.2f}ms" if measured is not None else ""
            )
            lines.append(
                f"  {objective['name']:<24} [{bar}] "
                f"budget {remaining * 100.0:5.1f}%  {state_text}  "
                f"burn(fast)={fast.get('long_burn_rate', 0.0):.2f}"
                f"{measured_text}"
            )
        if slo.get("shed_pressure"):
            lines.append(
                "  " + _paint(
                    "early shedding ARMED (fast burn)", _YELLOW, color
                )
            )
    else:
        lines.append("slo       (no objectives configured; serve --slo SPEC)")

    spans = status.get("spans")
    if spans:
        lines.append(
            f"spans     ring={spans.get('ring')}/{spans.get('capacity')}"
            + (
                f" written={spans['written']}"
                if spans.get("written") is not None else ""
            )
        )
    return "\n".join(lines)


def run_top(
    url: str,
    *,
    interval_s: float = 2.0,
    once: bool = False,
    as_json: bool = False,
    color: bool = True,
    iterations: int | None = None,
    out=None,
) -> int:
    """The ``repro top`` loop; returns a process exit code.

    ``--once`` renders a single snapshot without clearing the screen
    (``--json`` emits it raw).  The interactive loop repaints every
    ``interval_s`` until interrupted.
    """
    out = out if out is not None else sys.stdout
    base = url if "://" in url else f"http://{url}"
    count = 0
    while True:
        try:
            snapshot = poll(base)
        except ConnectionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if as_json:
            out.write(json.dumps(snapshot) + "\n")
        else:
            if not once:
                out.write(_CLEAR)
            out.write(render(snapshot, color=color) + "\n")
        out.flush()
        count += 1
        if once or (iterations is not None and count >= iterations):
            return 0
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:
            return 0
