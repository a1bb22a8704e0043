"""Per-layer metrics: what each one counts, and what it should move where.

Each entry is (metric, unit, better, end-to-end metrics it should move,
workloads where it should move).  ``layer_metrics`` derives every value
from one traced pass; a layer a workload never reaches reads 0 there.
Totals (``calls``, ``self_s``, ``cells``, ``term_pairs``) are over one pass
of the workload's task list, so counts repeat exactly at a fixed seed.
"""

from __future__ import annotations

from .tracer import Spans

LAYERS = [
    ("linalg.rank_q.calls", "count", "lower", "tasks_per_s", "exact-q; flat on modp-lines"),
    ("linalg.rank_q.self_s", "s", "lower", "tasks_per_s", "exact-q; flat on modp-lines"),
    ("linalg.rank_q.cells", "count", "lower", "tasks_per_s", "exact-q; flat on modp-lines"),
    ("linalg.det_z.calls", "count", "lower", "tasks_per_s", "exact-q"),
    ("linalg.det_z.self_s", "s", "lower", "tasks_per_s", "exact-q"),
    ("linalg.det_z.cells", "count", "lower", "tasks_per_s", "exact-q"),
    ("linalg.det_poly.calls", "count", "lower", "tasks_per_s, peak_rss_mb", "symbolic"),
    ("linalg.det_poly.self_s", "s", "lower", "tasks_per_s, peak_rss_mb", "symbolic"),
    ("linalg.det_mod.calls", "count", "lower", "tasks_per_s", "modp-lines"),
    ("linalg.det_mod.self_s", "s", "lower", "tasks_per_s", "modp-lines"),
    ("linalg.det_mod.cells", "count", "lower", "tasks_per_s", "modp-lines"),
    ("linalg.rank_mod.self_s", "s", "lower", "tasks_per_s", "exact-q"),
    ("hessian.assemble.calls", "count", "lower", "tasks_per_s, task_p50_ms", "modp-lines"),
    ("hessian.assemble.self_s", "s", "lower", "tasks_per_s, task_p50_ms", "modp-lines"),
    ("exterior.ExteriorArray.init.calls", "count", "lower", "tasks_per_s, task_p50_ms", "modp-lines"),
    ("exterior.ExteriorArray.init.self_s", "s", "lower", "tasks_per_s, task_p50_ms", "modp-lines"),
    ("multiindex.sort_with_sign.calls", "count", "lower", "tasks_per_s, task_p50_ms", "modp-lines"),
    ("hessian.rank_exact.self_s", "s", "lower", "tasks_per_s", "exact-q"),
    ("hessian.block_row_rank.calls", "count", "lower", "tasks_per_s", "exact-q"),
    ("hessian.specialize_embed.self_s", "s", "lower", "tasks_per_s", "exact-q"),
    ("hessian.position_split_embed.self_s", "s", "lower", "tasks_per_s", "exact-q"),
    ("hessian.dualize_layout.self_s", "s", "lower", "tasks_per_s", "symbolic"),
    ("hessian.assemble_symbolic.self_s", "s", "lower", "tasks_per_s", "symbolic"),
    ("exterior.dehomogenized_polynomial.self_s", "s", "lower", "tasks_per_s", "symbolic"),
    ("exterior.act_translation.self_s", "s", "lower", "tasks_per_s", "symbolic"),
    ("exterior.act_gl.self_s", "s", "lower", "tasks_per_s", "symbolic"),
    ("ring.MultiPoly.mul.calls", "count", "lower", "tasks_per_s, peak_rss_mb", "symbolic"),
    ("ring.MultiPoly.mul.self_s", "s", "lower", "tasks_per_s, peak_rss_mb", "symbolic"),
    ("ring.MultiPoly.mul.term_pairs", "count", "lower", "tasks_per_s, peak_rss_mb", "symbolic"),
    ("ring.MultiPoly.add.self_s", "s", "lower", "tasks_per_s, peak_rss_mb", "symbolic"),
    ("ring.MultiPoly.exact_divide.self_s", "s", "lower", "tasks_per_s, peak_rss_mb", "symbolic"),
    ("ring.MultiPoly.translate.self_s", "s", "lower", "tasks_per_s, peak_rss_mb", "symbolic"),
    ("ring.lagrange_interpolate_mod.self_s", "s", "lower", "task_p50_ms", "modp-lines"),
    ("ring.uni_root_structure_mod.self_s", "s", "lower", "task_p50_ms", "modp-lines"),
    ("node_cusp.defining_forms_at.calls", "count", "lower", "tasks_per_s", "exact-q, symbolic"),
    ("node_cusp.defining_forms_at.self_s", "s", "lower", "tasks_per_s", "exact-q, symbolic"),
    ("node_cusp.limit_T0.self_s", "s", "lower", "tasks_per_s", "exact-q, symbolic"),
    ("node_cusp.forms_span_equal.self_s", "s", "lower", "tasks_per_s", "exact-q, symbolic"),
    ("node_cusp.verify_node_pair_k3.self_s", "s", "lower", "tasks_per_s", "exact-q"),
    ("node_cusp.completion_retries", "count", "lower", "tasks_per_s", "exact-q"),
    ("certificates.verify.self_s", "s", "lower", "tasks_per_s", "exact-q"),
    ("certificates.build_corank1.self_s", "s", "lower", "tasks_per_s", "exact-q"),
    ("certificates.full_rank_hessian.calls", "count", "lower", "tasks_per_s", "exact-q"),
    ("certificates.full_rank_hessian.det_attempts", "count", "lower", "tasks_per_s", "exact-q"),
    ("certificates.full_rank_hessian.useful_ratio", "ratio", "higher", "tasks_per_s", "exact-q"),
    ("certificates.payload_checksum.self_s", "s", "lower", "tasks_per_s", "exact-q"),
    ("irreducibility.run_schedule.self_s", "s", "lower", "none expected (flat)", "cli"),
    ("cli.startup_s", "s", "lower", "setup_s, task_p50_ms, tasks_per_s", "cli"),
    ("cli.command_s", "s", "lower", "setup_s, task_p50_ms, tasks_per_s", "cli"),
    ("cli.stdout_bytes", "count", "lower", "setup_s, task_p50_ms, tasks_per_s", "cli"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced pass wall / untraced pass wall", "every workload"),
    ("trace.spans", "count", "lower", "none: spans recorded in the traced pass", "every workload"),
]

UNITS = {name: unit for name, unit, *_ in LAYERS}

# Counts that must repeat exactly between two traced runs at one seed.
EXACT = [name for name, unit, *_ in LAYERS if unit == "count"]


def layer_metrics(spans: Spans, cli: dict | None, overhead: float) -> dict[str, float]:
    """Every LAYERS value from one traced pass (cli: its subprocess timings)."""
    by_name: dict[str, list[int]] = {}
    for sid, nid in enumerate(spans.name):
        by_name.setdefault(spans.names[nid], []).append(sid)

    def ids(name: str) -> list[int]:
        return by_name.get(name, [])

    frh = ids("certificates.full_rank_hessian")
    frh_set = set(frh)
    attempts = sum(1 for sid in ids("hessian.det_exact") if spans.parent[sid] in frh_set)
    cli = cli or {}
    special = {
        "node_cusp.completion_retries": sum(spans.units[s] for s in ids("node_cusp.verify_node_pair_k3")),
        "certificates.full_rank_hessian.det_attempts": attempts,
        "certificates.full_rank_hessian.useful_ratio": len(frh) / attempts if attempts else 0.0,
        "cli.startup_s": cli.get("startup_s", 0.0),
        "cli.command_s": cli.get("command_s", 0.0),
        "cli.stdout_bytes": cli.get("stdout_bytes", 0),
        "trace.overhead_ratio": overhead,
        "trace.spans": len(spans),
    }
    out: dict[str, float] = {}
    for name, *_ in LAYERS:
        if name in special:
            out[name] = special[name]
            continue
        layer, field = name.rsplit(".", 1)
        sids = ids(layer)
        if field == "calls":
            out[name] = len(sids)
        elif field == "self_s":
            out[name] = sum(spans.self_s[s] for s in sids)
        else:  # cells, term_pairs: the work count recorded on the span
            out[name] = sum(spans.units[s] for s in sids)
    return out
