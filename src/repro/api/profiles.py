"""Analysis profiles: the one map from a name to a detector.

Historically a string → ``HelgrindConfig`` table mapped names to
configurations, which worked while every analysis tier was a flavour
of the same detector.  The predictive tier and the §2.2 baselines
broke that assumption: ``predictive`` layers a *different detector
class* (:class:`~repro.detectors.predict.PredictiveDetector`) on the
``hwlc+dr`` configuration, and ``djit``, ``hybrid``, ``racetrack`` and
``atomizer`` are other algorithms altogether, run on the same
instrumented (``hwlc+dr``) build.  An :class:`AnalysisProfile`
captures each in one registered object:

* the public **name** (the CLI's configuration and ``--detector``
  vocabulary, the service HELLO ``config`` field, the harness column
  label),
* a **config factory** (fresh :class:`HelgrindConfig` per call — configs
  are frozen but interning tables behind them are not; it also picks
  the instrumented build),
* a **detector factory** (config → ready detector, honouring
  suppressions).

Look-ups go through :func:`profile`; enumeration through
:func:`profiles`/:func:`profile_names`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.detectors import (
    AtomizerDetector,
    DjitDetector,
    HelgrindConfig,
    HelgrindDetector,
    HybridDetector,
    PredictiveDetector,
    RaceTrackDetector,
)

__all__ = [
    "AnalysisProfile",
    "profile",
    "profiles",
    "profile_names",
    "register_profile",
]


@dataclass(frozen=True, slots=True)
class AnalysisProfile:
    """One registered analysis tier.

    ``detector_factory`` takes ``(config, *, suppressions=None)`` so a
    caller holding a hand-modified copy of the profile's config (e.g.
    ``config().with_(transition_cache=False)``, the uncached reference
    path the equivalence tests compare against) can still build the
    profile's detector class around it.
    """

    #: Public name — CLI choices and service HELLOs validate against it.
    name: str
    #: One-line human description (``repro.api.profiles`` docs, help).
    description: str
    #: Fresh configuration per call.
    config_factory: Callable[[], HelgrindConfig]
    #: ``(config, *, suppressions=None) -> detector``.
    detector_factory: Callable[..., object]

    def config(self) -> HelgrindConfig:
        """A fresh configuration for this profile."""
        return self.config_factory()

    def detector(self, config: HelgrindConfig | None = None, *, suppressions=None):
        """A fresh detector; ``config`` overrides the profile default."""
        cfg = config if config is not None else self.config_factory()
        return self.detector_factory(cfg, suppressions=suppressions)


_REGISTRY: dict[str, AnalysisProfile] = {}


def register_profile(profile: AnalysisProfile) -> AnalysisProfile:
    """Register (or replace) a profile under its name."""
    _REGISTRY[profile.name] = profile
    return profile


def profile_names() -> tuple[str, ...]:
    """Every registered profile name, sorted."""
    return tuple(sorted(_REGISTRY))


def profiles() -> tuple[AnalysisProfile, ...]:
    """Every registered profile, sorted by name."""
    return tuple(_REGISTRY[name] for name in profile_names())


def profile(name: str) -> AnalysisProfile:
    """Look up a profile by name.

    An unknown name, or one that is not a string (a service HELLO's
    ``config`` is whatever JSON the client sent), raises a
    :class:`ValueError` listing every known one, so CLI and service
    error paths read identically.
    """
    try:
        return _REGISTRY[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        known = ", ".join(profile_names())
        raise ValueError(
            f"unknown detector configuration {name!r}; "
            f"known configurations: {known}"
        ) from None


def _on_hwlc_dr(name: str) -> Callable[[], HelgrindConfig]:
    """Config factory of a tier riding the instrumented HWLC+DR build."""
    return lambda: HelgrindConfig.hwlc_dr().with_(name=name)


def _config_free(detector_class) -> Callable[..., object]:
    """Detector factory of a baseline with no lock-set engine: its
    profile's configuration only picks the instrumented build."""
    return lambda config, *, suppressions=None: detector_class(
        suppressions=suppressions
    )


# -- the registered tiers: name, description, config, detector ---------

for _profile in (
    AnalysisProfile(
        "original", "Helgrind as shipped: mutex bus-lock model (§3)",
        HelgrindConfig.original, HelgrindDetector,
    ),
    AnalysisProfile(
        "hwlc", "corrected hardware bus-lock semantics (§3.2)",
        HelgrindConfig.hwlc, HelgrindDetector,
    ),
    AnalysisProfile(
        "hwlc+dr", "HWLC plus destructor annotations — the paper's "
        "headline configuration (§3.3)",
        HelgrindConfig.hwlc_dr, HelgrindDetector,
    ),
    AnalysisProfile(
        "extended", "every extension on: queue/semaphore happens-before",
        HelgrindConfig.extended, HelgrindDetector,
    ),
    AnalysisProfile(
        "raw-eraser", "the §2.3.2 Eraser ablation (no states, no segments)",
        HelgrindConfig.raw_eraser, HelgrindDetector,
    ),
    AnalysisProfile(
        "eraser-states", "Eraser with the full Figure-1 state machine",
        HelgrindConfig.eraser_states, HelgrindDetector,
    ),
    AnalysisProfile(
        "predictive", "hwlc+dr plus cross-thread lock sets, predicted races "
        "and dynamic deadlock prediction (offline post-pass)",
        _on_hwlc_dr("predictive"), PredictiveDetector,
    ),
    AnalysisProfile(
        "djit", "DJIT happens-before baseline: vector clocks, first "
        "apparent race per word (§2.2)",
        _on_hwlc_dr("djit"), _config_free(DjitDetector),
    ),
    AnalysisProfile(
        "hybrid", "hybrid baseline: HWLC+DR lock-set nominations confirmed "
        "by happens-before (§2.2)",
        _on_hwlc_dr("hybrid"), HybridDetector,
    ),
    AnalysisProfile(
        "racetrack", "RaceTrack baseline: adaptive threadset and lock set "
        "(reference [16])",
        _on_hwlc_dr("racetrack"), _config_free(RaceTrackDetector),
    ),
    AnalysisProfile(
        "atomizer", "Atomizer baseline: reduction-based atomicity check of "
        "atomic regions, HWLC+DR raciness oracle (reference [4])",
        _on_hwlc_dr("atomizer"), AtomizerDetector,
    ),
):
    register_profile(_profile)
