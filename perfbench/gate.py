"""The correctness gate: invariants every measured result must satisfy.

These are comparisons between two runs of the program, never against
committed digests, so a deliberate change of the program's outputs
(such as a re-seeded lot) does not trip them; a backend, chunking or
transport that changes an exact result does.  Each checker returns a
list of mismatch descriptions; an empty list means the check passed.
"""

from __future__ import annotations


def yield_prefix(measured_exact: dict, reference_exact: dict) -> list[str]:
    """A lot prefix re-run elsewhere must match the lot's first devices.

    Monte-Carlo draws are serial in device order and per-device noise
    substreams are keyed by lot index, so every per-device list of the
    prefix run equals the head of the same list in the full lot.
    """
    problems = []
    per_device = [k for k, v in reference_exact.items() if isinstance(v, list)]
    if not per_device:
        return ["reference prefix has no per-device fields"]
    for key in per_device:
        expected = reference_exact[key]
        got = measured_exact.get(key)
        if not isinstance(got, list) or got[: len(expected)] != expected:
            problems.append(f"yield lot: per-device field {key!r} differs from the reference prefix")
    return problems


def same_exact(label: str, left_steps, right_steps) -> list[str]:
    """Two runs of one spec must carry identical exact channels."""
    problems = []
    if [s.name for s in left_steps] != [s.name for s in right_steps]:
        return [f"{label}: step lists differ"]
    for left, right in zip(left_steps, right_steps):
        if left.exact != right.exact:
            keys = sorted(k for k in set(left.exact) | set(right.exact) if left.exact.get(k) != right.exact.get(k))
            problems.append(f"{label}: step {left.name!r} exact fields {keys} differ")
    return problems


def fault_aligned(measured_steps, subset_steps) -> list[str]:
    """Entries the sub-catalog shares with the full campaign must agree.

    The golden device and the first catalog fault hold the same lot
    positions (hence the same noise substreams) in both campaigns.
    """
    problems = []
    by_name = {s.name: s.exact for s in subset_steps}
    for step in measured_steps:
        sub = by_name.get(step.name)
        if sub is None:
            problems.append(f"fault campaign: subset lacks step {step.name!r}")
            continue
        full = step.exact
        shared = [k for k in ("golden_signature", "golden_words", "good_verdict") if k in sub]
        for key in shared:
            if full.get(key) != sub[key]:
                problems.append(f"fault campaign: step {step.name!r} {key} differs")
        for key in ("fault_labels", "signatures", "verdicts"):
            if key in sub and (not full.get(key) or full[key][0] != sub[key][0]):
                problems.append(f"fault campaign: step {step.name!r} first-fault {key} differs")
    return problems


def same_bytes(label: str, left: str, right: str) -> list[str]:
    """Two canonical JSON results must be byte-identical."""
    if left == right:
        return []
    where = next(
        (i for i, (a, b) in enumerate(zip(left, right)) if a != b),
        min(len(left), len(right)),
    )
    return [f"{label}: canonical results differ from byte {where}"]
