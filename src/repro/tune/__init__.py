"""On-machine autotuning: calibrate the cost models, resolve ``"auto"``.

The :mod:`repro.costmodel` package knows how to *fit* per-machine cost
models (Algorithm 3 calibration, Qilin-style linear projection); this
package closes the loop by *running* that calibration on the current
machine and packaging the answers into a :class:`TunedProfile` — a
versioned, machine-fingerprinted JSON document that resolves every
``"auto"`` tunable in the stack:

* training ``backend`` / ``workers`` / ``batch_size``
  (:class:`~repro.config.TrainingConfig`,
  :func:`~repro.exec.registry.resolve_backend_name`);
* serving ``chunk_items`` and the coalescing ``batch_size``
  (:class:`~repro.serve.Scorer`,
  :class:`~repro.serve.RecommendationService`,
  :class:`~repro.service.ServiceConfig`);
* streaming fold-in chunk sizes (:mod:`repro.sgd.foldin`).

Without a profile every resolver falls back to the hand-picked default
that shipped before autotuning existed — that path is pinned
bitwise-unchanged by the test suite, so loading no profile is always
safe.  ``repro tune`` (see :mod:`repro.cli`) emits the profile plus a
``BENCH_tune.json`` payload recording predicted-vs-measured time for
every probed configuration, which CI gates on.

Import discipline: this module re-exports only the lightweight
:mod:`~repro.tune.profile` layer (stdlib + :mod:`repro.config`).  The
measurement probes in :mod:`~repro.tune.probes` pull in the training
and serving stacks, so :func:`run_tune` imports them lazily.
"""

from .profile import (
    AUTO,
    PROFILE_SCHEMA_VERSION,
    ServingTunables,
    StreamTunables,
    TrainingTunables,
    TunedProfile,
    active_profile,
    resolve_foldin_batch_users,
    resolve_foldin_gram_chunk,
    resolve_serving_batch_size,
    resolve_serving_chunk_items,
    resolve_training_batch_size,
    resolve_workers,
    set_active_profile,
    use_profile,
)

__all__ = [
    "AUTO",
    "PROFILE_SCHEMA_VERSION",
    "ServingTunables",
    "StreamTunables",
    "TrainingTunables",
    "TunedProfile",
    "TuneOutcome",
    "active_profile",
    "resolve_foldin_batch_users",
    "resolve_foldin_gram_chunk",
    "resolve_serving_batch_size",
    "resolve_serving_chunk_items",
    "resolve_training_batch_size",
    "resolve_workers",
    "run_tune",
    "set_active_profile",
    "use_profile",
]


def run_tune(*args, **kwargs):
    """Run the calibration probes (lazy wrapper around :mod:`.probes`).

    See :func:`repro.tune.probes.run_tune` for the full signature; the
    indirection keeps ``import repro.tune`` free of the training and
    serving stacks.
    """
    from .probes import run_tune as _run_tune

    return _run_tune(*args, **kwargs)


def __getattr__(name):
    if name == "TuneOutcome":
        from .probes import TuneOutcome

        return TuneOutcome
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
