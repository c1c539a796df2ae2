"""Reproducibility manifests for campaign and Monte-Carlo results.

A manifest is the minimal record needed to re-run (or audit) a stochastic
result: library and toolchain versions, the RNG seed, which numerical
backends were actually chosen at runtime, and — when telemetry was active —
a compact summary of the work performed.  It is a plain dict so it embeds
directly into result JSON payloads.
"""

from __future__ import annotations

import platform
import sys
from typing import Any, Dict, Optional

MANIFEST_SCHEMA_VERSION = 1


def _library_versions() -> Dict[str, Optional[str]]:
    versions: Dict[str, Optional[str]] = {}
    import repro

    versions["repro"] = repro.__version__
    for module_name in ("numpy", "scipy"):
        module = sys.modules.get(module_name)
        if module is None:
            try:
                module = __import__(module_name)
            except Exception:  # pragma: no cover - scipy-less installs
                versions[module_name] = None
                continue
        versions[module_name] = getattr(module, "__version__", None)
    return versions


def telemetry_summary(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Compress a telemetry snapshot to the manifest-sized essentials."""
    return {
        "elapsed_s": snapshot.get("elapsed_s"),
        "counters": dict(snapshot.get("counters", {})),
        "open_spans": snapshot.get("open_spans", 0),
        "root_spans": [span.get("name") for span in snapshot.get("spans", [])],
    }


def build_manifest(
    seed: Optional[int] = None,
    backends: Optional[Dict[str, str]] = None,
    telemetry_snapshot: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a reproducibility manifest.

    ``backends`` names the numerical paths actually taken at runtime
    (e.g. ``{"crosstalk": "fft"}``); ``extra`` merges
    caller-specific keys (mode, sample counts) at the top level.
    """
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "versions": _library_versions(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if seed is not None:
        manifest["seed"] = int(seed)
    if backends:
        manifest["backends"] = dict(backends)
    if telemetry_snapshot is not None:
        manifest["telemetry"] = telemetry_summary(telemetry_snapshot)
    if extra:
        manifest.update(extra)
    return manifest
