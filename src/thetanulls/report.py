"""Deterministic machine-readable reports.

Every integer is serialized as a decimal string so consumers never lose
exactness; the only non-integer quantity (the asymptotic ratio) comes
as text, an exact fraction and a decimal rendering.  Identical
inputs produce byte-identical reports, so nothing time- or
machine-dependent belongs here.

A report holds raw results.  ``dumps`` writes them in one walk, each
integer as its decimal string; ``--pretty`` renders that text, so
``_encode`` alone decides how a value is written.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote


def check(name: str, expected, actual) -> dict:
    return {"name": name, "pass": expected == actual, "expected": expected, "actual": actual}


def build_report(command: str, parameters: dict, results: dict | list[dict]) -> dict:
    """The report of results as a function returns them; a check list becomes totals, checks and one verdict."""
    report = {"command": command, "parameters": parameters, "results": results}
    if isinstance(results, list):
        passed = sum(1 for c in results if c["pass"])
        report["results"] = {"checks_total": len(results), "checks_passed": passed}
        report.update(checks=results, checks_passed=passed == len(results))
    return report


def _encode(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` with each integer as its decimal string, each line
    after the first indented by ``pad`` more; keys are names, so a non-string key is refused."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return _quote(str(value))
    inner = pad + "  "
    if isinstance(value, dict):
        opening, closing, items = "{", "}", [f"{_quote(k)}: {_encode(v, inner)}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        opening, closing, items = "[", "]", [_encode(v, inner) for v in value]
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    separator = ",\n" + inner
    return f"{opening}\n{inner}{separator.join(items)}\n{pad}{closing}" if items else opening + closing


def dumps(report: dict) -> str:
    """The report as indented JSON text; ASCII only, so its length is its size in bytes."""
    return _encode(report, "") + "\n"


def _pretty_lines(prefix: str, value) -> list[str]:
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            lines.extend(_pretty_lines(f"{prefix}{k}.", v) if isinstance(v, dict) else _pretty_lines(f"{prefix}{k}", v))
        return lines
    if isinstance(value, list):
        return [f"{prefix} = {json.dumps(value)}"]
    return [f"{prefix} = {value}"]


def render_pretty(text: str) -> str:
    """Human-readable view of the JSON report text ``dumps`` wrote."""
    report = json.loads(text)
    lines = [f"command: {report['command']}"]
    for key in ("parameters", "results"):
        if report.get(key):
            lines.append(f"{key}:")
            lines.extend(_pretty_lines("  ", report[key]))
    for chk in report.get("checks", []):
        status = "PASS" if chk["pass"] else "FAIL"
        lines.append(
            f"[{status}] {chk['name']} (expected={json.dumps(chk['expected'])}, "
            f"actual={json.dumps(chk['actual'])})"
        )
    if "checks" in report:
        lines.append(f"checks passed: {report['checks_passed']}")
    return "\n".join(lines) + "\n"
