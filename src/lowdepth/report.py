"""Structured pass reports: machine-readable JSON lines, optional human text."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .ir import GateMetrics


def metrics_dict(m: GateMetrics) -> dict:
    return {
        "size": m.size,
        "depth": m.depth,
        "sum_depth": m.sum_depth,
        "product_depth": m.product_depth,
        "syn_degree": m.syn_degree,
    }


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class Report:
    pass_name: str
    params: dict = dc_field(default_factory=dict)
    input_metrics: dict = dc_field(default_factory=dict)
    output_metrics: dict = dc_field(default_factory=dict)
    verify_method: str = "none"
    verdict: str = "skipped"  # equal | unequal | equal-probably | skipped | failed
    duration: float = 0.0
    extra: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "pass": self.pass_name,
            "params": _jsonable(self.params),
            "input": self.input_metrics,
            "output": self.output_metrics,
            "verify": {"method": self.verify_method, "verdict": self.verdict},
            "duration": round(self.duration, 6),
        }
        if self.extra:
            payload["extra"] = _jsonable(self.extra)
        return json.dumps(payload, sort_keys=True)

    def human(self) -> str:
        lines = [f"pass: {self.pass_name}"]
        if self.params:
            lines.append("  params: " + ", ".join(f"{k}={v}" for k, v in self.params.items()))
        for label, m in (("in", self.input_metrics), ("out", self.output_metrics)):
            if m:
                lines.append(
                    f"  {label}: size={m['size']} depth={m['depth']} "
                    f"sum_depth={m['sum_depth']} product_depth={m['product_depth']} "
                    f"degree={m['syn_degree']}"
                )
        lines.append(f"  verify: {self.verify_method} -> {self.verdict}")
        lines.append(f"  duration: {self.duration:.3f}s")
        for k, v in self.extra.items():
            lines.append(f"  {k}: {v}")
        return "\n".join(lines)
