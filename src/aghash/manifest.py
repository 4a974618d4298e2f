"""Run manifests: resolved configuration, input digests, and timestamps.

A manifest is written in 'running' state before any work happens and
finalized afterwards, so a run is reproducible from its recorded values.
"""

import datetime
import hashlib
import json


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def start(path, command, config, inputs, seed, version):
    """Write a pending manifest and return it."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "seed": seed,
        "version": version,
        "status": "running",
        "started_at": _now(),
    }
    _write(path, manifest)
    return manifest


def finalize(path, manifest, outputs=None):
    manifest["status"] = "completed"
    manifest["finished_at"] = _now()
    if outputs:
        manifest["outputs"] = {str(p): file_digest(p) for p in outputs}
    _write(path, manifest)
    return manifest


def _write(path, manifest):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
