#!/usr/bin/env python
"""Assert a tuned profile round-trips and resolves every "auto" knob legally.

CI's ``tune-profile`` job runs this against the profile ``repro tune
--quick`` just emitted on the runner::

    PYTHONPATH=src python benchmarks/check_tuned_profile.py tuned_profile.json

Two properties, both machine-independent:

1. **Round-trip**: ``TunedProfile.load(path)`` must equal the profile
   rebuilt from its own JSON (``loads(dumps(p)) == p``) — the on-disk
   format loses nothing.
2. **Legal resolution everywhere**: with the profile active, every
   ``"auto"`` tunable in the library must resolve to a value the target
   subsystem accepts — including on a 1-core machine (the dev-container
   degenerate case), where a profile calibrated elsewhere must still
   demote ``"processes"`` to a backend that can actually run.

Exit 0 on success, 1 with a per-check report otherwise.
"""

import sys

from repro.config import TrainingConfig
from repro.exec.registry import backend_names, resolve_backend_name
from repro.hardware import fingerprint_matches, usable_cores
from repro.serve.scorer import DEFAULT_CHUNK_ITEMS
from repro.serve.service import DEFAULT_SERVICE_BATCH
from repro.service.server import ServiceConfig
from repro.tune import (
    TunedProfile,
    resolve_foldin_batch_users,
    resolve_foldin_gram_chunk,
    resolve_serving_batch_size,
    resolve_serving_chunk_items,
    resolve_training_batch_size,
    resolve_workers,
    use_profile,
)


def check_profile(path: str) -> int:
    failures = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        print(f"  {'ok' if ok else 'FAIL':>4} {label}{': ' + detail if detail else ''}")
        if not ok:
            failures.append(label)

    profile = TunedProfile.load(path)
    check(
        "round-trip",
        TunedProfile.loads(profile.dumps()) == profile,
        "load(dump(p)) == p",
    )
    check(
        "fingerprint",
        fingerprint_matches(profile.fingerprint),
        "profile was calibrated on this machine",
    )

    with use_profile(profile):
        backend = resolve_backend_name("auto", n_workers=None)
        check(
            "backend",
            backend in backend_names() and backend != "auto",
            f"auto -> {backend}",
        )
        workers = resolve_workers("auto", 1)
        check("workers", isinstance(workers, int) and workers >= 1, f"auto -> {workers}")
        if backend == "processes":
            check(
                "backend-workers coherence",
                workers > 1,
                "processes only pays for multi-worker runs",
            )
        batch = TrainingConfig(batch_size="auto").effective_batch_size
        check("train batch_size", isinstance(batch, int) and batch >= 1, f"auto -> {batch}")
        chunk = resolve_serving_chunk_items("auto", DEFAULT_CHUNK_ITEMS)
        check("serving chunk_items", chunk >= 1, f"auto -> {chunk}")
        sbatch = resolve_serving_batch_size("auto", DEFAULT_SERVICE_BATCH)
        check("serving batch_size", sbatch >= 1, f"auto -> {sbatch}")
        config = ServiceConfig(batch_size="auto", chunk_items="auto")
        check(
            "ServiceConfig",
            isinstance(config.batch_size, int) and isinstance(config.chunk_items, int),
            f"auto -> batch {config.batch_size}, chunk {config.chunk_items}",
        )
        gram = resolve_foldin_gram_chunk(0)
        check("foldin gram chunk", gram >= 1, f"profile -> {gram}")
        fbatch = resolve_foldin_batch_users(0)
        check("foldin batch users", fbatch >= 1, f"profile -> {fbatch}")

    cores = usable_cores()
    if failures:
        print(f"\n{len(failures)} check(s) failed on a {cores}-core machine: {failures}")
        return 1
    print(f"\nprofile is round-trip-exact and fully resolvable on this {cores}-core machine")
    return 0


def main(argv) -> int:
    if len(argv) != 2:
        print(f"usage: {argv[0]} PROFILE.json")
        return 2
    return check_profile(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
