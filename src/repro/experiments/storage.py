"""History persistence: save and reload experiment results as JSON.

Long experiment matrices are expensive; persisting each cell's
:class:`~repro.fl.history.History` lets the CLI and notebooks regenerate
tables/figures without re-running federations, and makes results diffable
artifacts in version control.

Federation *checkpoints* (:func:`save_checkpoint` / :func:`load_checkpoint`)
are a separate, pickle-based format: unlike histories they carry live
objects (strategies, channels, RNG states) and exist to resume an
interrupted run bit-identically, not to be diffed. See
``docs/robustness.md`` for the format contract.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle

from ..fl.history import History, RoundRecord

__all__ = ["history_to_dict", "normalized_history_dict", "history_from_dict",
           "save_history", "load_history",
           "save_matrix", "load_matrix", "save_manifest", "load_manifest",
           "save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 1


def history_to_dict(history: History) -> dict:
    """JSON-serializable representation of a History."""
    return {
        "version": FORMAT_VERSION,
        "strategy": history.strategy_name,
        "scenario": history.scenario_name,
        "rounds": [
            {
                "round_idx": r.round_idx,
                "accuracy": r.accuracy,
                "sampled_ids": list(r.sampled_ids),
                "accepted_ids": list(r.accepted_ids),
                "rejected_ids": list(r.rejected_ids),
                "malicious_sampled": r.malicious_sampled,
                "malicious_accepted": r.malicious_accepted,
                "upload_nbytes": r.upload_nbytes,
                "download_nbytes": r.download_nbytes,
                "duration_s": r.duration_s,
                "metrics": _jsonable(r.metrics),
                "selected_ids": list(r.selected_ids),
                "broadcasts_dropped": r.broadcasts_dropped,
                "submits_dropped": r.submits_dropped,
            }
            for r in history.rounds
        ],
    }


def normalized_history_dict(history: History | dict) -> dict:
    """A history dict minus its wall-clock fields, for equality checks.

    Drops each round's ``duration_s`` and every metric whose key ends in
    ``_s`` (host-measured times such as ``aggregation_time_s``); every
    other field must match byte for byte between runs that claim to be
    equivalent. Accepts a :class:`History` or a :func:`history_to_dict`
    result and never mutates its input.
    """
    data = history_to_dict(history) if isinstance(history, History) else history
    rounds = []
    for r in data["rounds"]:
        r = {k: v for k, v in r.items() if k != "duration_s"}
        r["metrics"] = {
            k: v for k, v in r.get("metrics", {}).items() if not k.endswith("_s")
        }
        rounds.append(r)
    return {**data, "rounds": rounds}


def _jsonable(metrics: dict) -> dict:
    out = {}
    for key, value in metrics.items():
        try:
            json.dumps(value)
            out[key] = value
        except TypeError:
            out[key] = repr(value)
    return out


def history_from_dict(data: dict) -> History:
    """Inverse of :func:`history_to_dict`."""
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported history format version {data.get('version')!r}")
    history = History(data["strategy"], data["scenario"])
    for r in data["rounds"]:
        history.append(RoundRecord(
            round_idx=r["round_idx"],
            accuracy=r["accuracy"],
            sampled_ids=r["sampled_ids"],
            accepted_ids=r["accepted_ids"],
            rejected_ids=r["rejected_ids"],
            malicious_sampled=r["malicious_sampled"],
            malicious_accepted=r["malicious_accepted"],
            upload_nbytes=r["upload_nbytes"],
            download_nbytes=r["download_nbytes"],
            duration_s=r["duration_s"],
            metrics=r.get("metrics", {}),
            # Pre-transport records carry neither selection-vs-delivery
            # distinction nor drop counters; default to lossless.
            selected_ids=r.get("selected_ids", []),
            broadcasts_dropped=r.get("broadcasts_dropped", 0),
            submits_dropped=r.get("submits_dropped", 0),
        ))
    return history


def save_history(history: History, path: str | pathlib.Path) -> None:
    """Write one history to a JSON file."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(history_to_dict(history), indent=1))


def load_history(path: str | pathlib.Path) -> History:
    """Read one history from a JSON file."""
    return history_from_dict(json.loads(pathlib.Path(path).read_text()))


def save_matrix(results: dict, directory: str | pathlib.Path) -> list[pathlib.Path]:
    """Persist a {(strategy, scenario): History} matrix, one file per cell."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for (strategy, scenario), history in results.items():
        path = directory / f"{strategy}__{scenario}.json"
        save_history(history, path)
        written.append(path)
    return written


def save_manifest(config, directory: str | pathlib.Path) -> pathlib.Path:
    """Persist the experiment's FederationConfig next to its results."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "manifest.json"
    path.write_text(json.dumps({"config": config.to_dict()}, indent=1))
    return path


def load_manifest(directory: str | pathlib.Path):
    """Load the FederationConfig persisted by :func:`save_manifest`.

    Returns ``None`` when no manifest exists (results without provenance).
    """
    from ..config import FederationConfig

    path = pathlib.Path(directory) / "manifest.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return FederationConfig.from_dict(data["config"])


def save_checkpoint(state: dict, path: str | pathlib.Path) -> pathlib.Path:
    """Atomically persist a federation checkpoint payload.

    ``state`` is the dict built by
    :func:`repro.fl.simulation.federation_state`. The write goes to a
    sibling temp file first and is moved into place with ``os.replace``,
    so a crash mid-write never corrupts the previous checkpoint.
    """
    if state.get("format") != "repro-federation-checkpoint":
        raise ValueError("not a federation checkpoint payload")
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str | pathlib.Path) -> dict:
    """Read a checkpoint payload written by :func:`save_checkpoint`.

    Only the envelope is validated here (it must be a federation
    checkpoint); version compatibility is checked by
    :func:`repro.fl.simulation.restore_federation`, which owns the schema.
    """
    with open(path, "rb") as fh:
        state = pickle.load(fh)
    if not isinstance(state, dict) or state.get("format") != "repro-federation-checkpoint":
        raise ValueError(f"{path} is not a federation checkpoint")
    return state


def load_matrix(directory: str | pathlib.Path) -> dict:
    """Load every ``<strategy>__<scenario>.json`` in a directory."""
    directory = pathlib.Path(directory)
    results = {}
    for path in sorted(directory.glob("*__*.json")):
        history = load_history(path)
        results[(history.strategy_name, history.scenario_name)] = history
    return results
