"""Autotuning end to end: calibrate → profile → train/serve on "auto".

The cost-model loop of :mod:`repro.tune`, on this machine:

1. run the calibration probes (``run_tune``): the Section V cost models
   are fitted against short on-machine workloads, validated out of
   sample (``predict_error = |predicted - measured| / measured``), and
   every ``"auto"`` tunable is resolved into a
   :class:`repro.tune.TunedProfile`;
2. write the profile to disk and load it back — the JSON round-trip CI
   asserts on every runner;
3. train with ``backend="auto"`` / ``batch_size="auto"`` under the
   profile and verify the run used the calibrated knobs;
4. serve with ``chunk_items="auto"`` and verify the tuned scorer
   returns **bitwise-identical** slates to the hand-picked default — a
   profile may change speed, never results;
5. report per-section prediction error, the self-validation signal
   ``BENCH_tune.json`` gates in CI.

Run with::

    python examples/autotune_pipeline.py
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.config import TrainingConfig
from repro.datasets import SyntheticConfig, generate_synthetic_matrix, holdout_split
from repro.core import factorize
from repro.exec import resolve_backend_name
from repro.serve import Scorer
from repro.tune import TunedProfile, run_tune, use_profile

ITERATIONS = int(os.environ.get("REPRO_EXAMPLES_ITERATIONS", "3"))


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Calibrate: fit the cost models on this machine
    # ------------------------------------------------------------------ #
    print("== calibrating (quick probe set) ==")
    outcome = run_tune(quick=True, seed=0)
    profile = outcome.profile
    fp = profile.fingerprint
    print(f"machine        : {fp['machine']}, {fp['usable_cores']} usable cores")
    for name, error in sorted(profile.predict_error.items()):
        print(f"  {name:<12} : predict error {error:.1%}")
    if profile.alpha is not None:
        print(f"  alpha        : {profile.alpha:.3f} (calibrated GPU share, Eq. 7-8)")

    # ------------------------------------------------------------------ #
    # 2. The profile round-trips through JSON
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tuned_profile.json")
        profile.dump(path)
        loaded = TunedProfile.load(path)
    print(f"round-trip     : load(dump(p)) == p -> {loaded == profile}")

    # ------------------------------------------------------------------ #
    # 3. Train with every knob on "auto" under the profile
    # ------------------------------------------------------------------ #
    matrix, _, _ = generate_synthetic_matrix(
        SyntheticConfig(n_rows=300, n_cols=200, n_ratings=8_000, rank=4, seed=11)
    )
    train, test = holdout_split(matrix, test_fraction=0.15, seed=3)
    with use_profile(loaded):
        backend = resolve_backend_name("auto", n_workers=None)
        batch = TrainingConfig(batch_size="auto").effective_batch_size
        print(
            f"auto resolves  : backend={backend} batch_size={batch}"
        )
        result = factorize(
            train,
            test,
            iterations=ITERATIONS,
            backend="auto",
            training=TrainingConfig(batch_size="auto", iterations=ITERATIONS),
            seed=0,
        )
    print(
        f"trained        : {ITERATIONS} epochs on backend={backend}, "
        f"test RMSE {result.final_test_rmse:.4f}"
    )

    # ------------------------------------------------------------------ #
    # 4. Serve with auto chunking: tuned == default, bitwise
    # ------------------------------------------------------------------ #
    users = np.arange(min(64, train.shape[0]), dtype=np.int64)
    default_ids, default_scores = Scorer(result.model).top_k(users, 10)
    with use_profile(loaded):
        tuned_scorer = Scorer(result.model, chunk_items="auto")
        tuned_ids, tuned_scores = tuned_scorer.top_k(users, 10)
    identical = bool(
        np.array_equal(tuned_ids, default_ids)
        and np.array_equal(tuned_scores, default_scores)
    )
    print(
        f"serving        : chunk_items=auto -> {tuned_scorer.chunk_items}, "
        f"slates identical to default: {identical}"
    )
    if not identical:
        raise SystemExit("tuned scorer diverged from the default scorer")

    # ------------------------------------------------------------------ #
    # 5. The acceptance verdict CI gates on
    # ------------------------------------------------------------------ #
    acceptance = outcome.payload["tune"]["acceptance"]
    for name, acc in sorted(acceptance["sections"].items()):
        print(
            f"  {name:<12} : default {acc['default_s'] * 1e3:7.2f} ms, "
            f"resolved {acc['resolved_s'] * 1e3:7.2f} ms, ok={acc['ok']}"
        )
    print(f"acceptance met : {acceptance['met']}")
    if not acceptance["met"]:
        raise SystemExit("resolved configuration measured slower than defaults")
    print("autotune pipeline complete")


if __name__ == "__main__":
    main()
