"""Run manifests: resolved configuration, input digests, and timestamps.

A manifest is written in 'running' state before any work happens and
finalized afterwards, as 'completed' or as 'failed' with the error that
stopped the run, so a run is reproducible from its recorded values.
"""

import contextlib
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


@contextlib.contextmanager
def recorded(path, command, config, inputs, seed, version):
    """The manifest of one run: written 'running' on entry and finalized on exit.

    The body lists the files it wrote under "outputs"; on success they are
    recorded by digest. An error in the body finalizes the manifest as
    'failed' with the error's message, the line the command line prints
    after `error:`.
    """
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
    try:
        yield manifest
        manifest["outputs"] = {str(p): file_digest(p) for p in manifest.get("outputs", ())}
    except Exception as exc:
        manifest.pop("outputs", None)  # a failed run vouches for no output file
        manifest.update(status="failed", error=str(exc), finished_at=_now())
        _write(path, manifest)
        raise
    manifest.update(status="completed", finished_at=_now())
    _write(path, manifest)


def _write(path, manifest):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
