"""Correctness gate: per-round hashes of seed-pure values, and invariants.

Each round record is reduced to a fixed list of values read *by name*
(record attribute first, then ``record.metrics``), so reshaping
``RoundRecord`` leaves the gate alone unless one of these values changes.
Wall-clock fields are never hashed. The hashes are compared with
``references.json`` (per reference federation and seed); seeds without a
stored reference are still checked against the invariants below.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

__all__ = [
    "GATE_FIELDS",
    "REFERENCES_PATH",
    "gate_values",
    "round_hash",
    "load_references",
    "check_rounds",
]

GATE_FIELDS = (
    "accuracy",
    "selected_ids",
    "sampled_ids",
    "accepted_ids",
    "rejected_ids",
    "upload_nbytes",
    "download_nbytes",
)

REFERENCES_PATH = pathlib.Path(__file__).with_name("references.json")


def _read(record, name: str):
    if hasattr(record, name):
        return getattr(record, name)
    return record.metrics[name]


def gate_values(record) -> list:
    """The seed-pure values of one round, in :data:`GATE_FIELDS` order."""
    values = []
    for name in GATE_FIELDS:
        value = _read(record, name)
        if isinstance(value, (list, tuple)):
            value = [int(v) for v in value]
        elif isinstance(value, float):
            value = repr(value)  # every digit, no JSON float rounding
        else:
            value = int(value)
        values.append([name, value])
    return values


def round_hash(record) -> str:
    payload = json.dumps(gate_values(record), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_references(path: pathlib.Path = REFERENCES_PATH) -> dict:
    """``{reference: {seed: [hash per round]}}``; empty when absent."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _invariant_errors(record, expect: dict) -> list[str]:
    errors = []
    sampled = set(record.sampled_ids)
    accepted, rejected = set(record.accepted_ids), set(record.rejected_ids)
    if not 0.0 <= record.accuracy <= 1.0:
        errors.append(f"accuracy {record.accuracy} outside [0, 1]")
    if len(record.sampled_ids) != expect["clients"]:
        errors.append(f"{len(record.sampled_ids)} updates, expected {expect['clients']}")
    if accepted | rejected != sampled or accepted & rejected:
        errors.append("accepted/rejected ids do not partition the sampled ids")
    if record.download_nbytes != expect["clients"] * expect["download_per_client"]:
        errors.append(f"download_nbytes {record.download_nbytes} off the wire model")
    if record.upload_nbytes != expect["clients"] * expect["upload_per_client"]:
        errors.append(f"upload_nbytes {record.upload_nbytes} off the wire model")
    return errors


def check_rounds(records: list, reference: list[str] | None,
                 expect: dict) -> tuple[list[str], list[str]]:
    """``(hashes, failures)``: one failure line per failing round.

    A round fails when an invariant breaks or, where a reference exists,
    when its hash differs from the reference's hash for that round.
    """
    hashes, failures = [], []
    for i, record in enumerate(records):
        digest = round_hash(record)
        hashes.append(digest)
        errors = _invariant_errors(record, expect)
        if reference is not None:
            want = reference[i] if i < len(reference) else None
            if digest != want:
                errors.append(f"hash {digest} != reference {want}")
        if errors:
            failures.append(f"round {record.round_idx}: " + "; ".join(errors))
    return hashes, failures
