"""Analysis profiles: the registry every configuration name routes through.

Historically a string → ``HelgrindConfig`` table mapped names to
configurations, which worked while every analysis tier was a flavour
of the same detector.  The predictive tier broke that
assumption: ``predictive`` needs a *different detector class*
(:class:`~repro.detectors.predict.PredictiveDetector`) layered on the
``hwlc+dr`` configuration, plus a finalisation pass the legacy tiers do
not have.  An :class:`AnalysisProfile` captures all of it in one
registered object:

* the public **name** (the CLI ``--detector-config`` vocabulary, the
  service HELLO ``config`` field, the harness column label),
* a **config factory** (fresh :class:`HelgrindConfig` per call — configs
  are frozen but interning tables behind them are not),
* a **detector factory** (config → ready detector, honouring
  suppressions),
* **capabilities** flags (``"paper-eval"`` marks the three Figure-6
  configurations; ``"predictive"`` marks profiles whose detector emits
  predicted findings at :meth:`finalize` time).

Look-ups go through :func:`profile`; enumeration through
:func:`profiles`/:func:`profile_names`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.detectors import HelgrindConfig, HelgrindDetector

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
    the ``--no-transition-cache`` escape hatch) can still build the
    profile's detector class around it.
    """

    #: Public name — CLI choices and service HELLOs validate against it.
    name: str
    #: One-line human description (``repro.api.profiles`` docs, help).
    description: str
    #: Fresh configuration per call.
    config_factory: Callable[[], HelgrindConfig]
    #: ``(config, *, suppressions=None) -> detector``.
    detector_factory: Callable[..., HelgrindDetector]
    #: Capability flags: ``"paper-eval"`` (a Figure-6 configuration),
    #: ``"predictive"`` (detector emits predicted findings at finalize).
    capabilities: frozenset[str] = field(default_factory=frozenset)

    @property
    def predictive(self) -> bool:
        """True when the profile's detector predicts offline findings."""
        return "predictive" in self.capabilities

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

    Unknown names raise a :class:`ValueError` listing every known one,
    so CLI and service error paths read identically.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(profile_names())
        raise ValueError(
            f"unknown detector configuration {name!r}; "
            f"known configurations: {known}"
        ) from None


def _predictive_detector(config: HelgrindConfig, *, suppressions=None):
    # Deferred: predict.py imports the detector stack, which is heavier
    # than this registry module needs at import time.
    from repro.detectors.predict import PredictiveDetector

    return PredictiveDetector(config, suppressions=suppressions)


# -- the registered tiers ----------------------------------------------

register_profile(AnalysisProfile(
    name="original",
    description="Helgrind as shipped: mutex bus-lock model (§3)",
    config_factory=HelgrindConfig.original,
    detector_factory=HelgrindDetector,
    capabilities=frozenset({"paper-eval"}),
))
register_profile(AnalysisProfile(
    name="hwlc",
    description="corrected hardware bus-lock semantics (§3.2)",
    config_factory=HelgrindConfig.hwlc,
    detector_factory=HelgrindDetector,
    capabilities=frozenset({"paper-eval"}),
))
register_profile(AnalysisProfile(
    name="hwlc+dr",
    description="HWLC plus destructor annotations — the paper's "
    "headline configuration (§3.3)",
    config_factory=HelgrindConfig.hwlc_dr,
    detector_factory=HelgrindDetector,
    capabilities=frozenset({"paper-eval"}),
))
register_profile(AnalysisProfile(
    name="extended",
    description="every extension on: queue/semaphore happens-before",
    config_factory=HelgrindConfig.extended,
    detector_factory=HelgrindDetector,
))
register_profile(AnalysisProfile(
    name="raw-eraser",
    description="the §2.3.2 Eraser ablation (no states, no segments)",
    config_factory=HelgrindConfig.raw_eraser,
    detector_factory=HelgrindDetector,
))
register_profile(AnalysisProfile(
    name="eraser-states",
    description="Eraser with the full Figure-1 state machine",
    config_factory=HelgrindConfig.eraser_states,
    detector_factory=HelgrindDetector,
))
register_profile(AnalysisProfile(
    name="predictive",
    description="hwlc+dr plus cross-thread lock sets, predicted races "
    "and dynamic deadlock prediction (offline post-pass)",
    config_factory=lambda: HelgrindConfig.hwlc_dr().with_(name="predictive"),
    detector_factory=_predictive_detector,
    capabilities=frozenset({"predictive"}),
))
