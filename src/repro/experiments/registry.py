"""Registry mapping experiment keys to their declarative Studies.

Every paper artefact is one :class:`Experiment` record: key, artefact
metadata, a config factory, preset override *data* (``--quick`` is a
dict, not a code path), a ``study_builder`` that turns a config into a
declarative :class:`~repro.study.Study`, and a ``result_adapter`` that
wraps the study rows into the artefact's rich result type (fits, claim
checks, chart helpers).

Used by the CLI (``python -m repro.cli``) and the benchmark suite so
every artefact has exactly one entry point::

    from repro.experiments import EXPERIMENTS

    exp = EXPERIMENTS["figure1"]
    config = exp.configure(preset="quick", trials=50)
    result = exp.run(config, backend="batched")
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping
from typing import Any

from ..study import Study, StudyProgress, StudyResult, run_study
from . import (
    alpha_ablation,
    arrival_order,
    drift_check,
    dynamic_load,
    figure1,
    figure2,
    lower_bound,
    resource_above,
    resource_tight,
    speed_ablation,
    table1,
    tight_scaling,
)

__all__ = ["Experiment", "EXPERIMENTS"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artefact, defined declaratively."""

    key: str
    paper_artifact: str
    description: str
    config_factory: Callable[[], Any]
    study_builder: Callable[[Any], Study]
    result_adapter: Callable[[Any, StudyResult], Any]
    presets: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def configure(self, preset: str | None = None, **overrides: Any) -> Any:
        """Build a config, applying a named preset and field overrides.

        An override whose value is ``None`` is skipped (it stands for
        "not given").  An override the config has no field for raises
        ``ValueError`` naming it and the valid fields, so a misspelt
        name never runs a different experiment than the one asked for.
        """
        config = self.config_factory()
        fields = [f.name for f in dataclasses.fields(config)]
        unknown = sorted(set(overrides) - set(fields))
        if unknown:
            raise ValueError(
                f"experiment {self.key!r} has no config field "
                f"{', '.join(map(repr, unknown))}; valid fields: "
                f"{', '.join(fields)}"
            )
        if preset is not None:
            if preset not in self.presets:
                raise ValueError(
                    f"experiment {self.key!r} has no preset {preset!r}; "
                    f"available: {sorted(self.presets)}"
                )
            config = dataclasses.replace(config, **self.presets[preset])
        given = {k: v for k, v in overrides.items() if v is not None}
        if given:
            config = dataclasses.replace(config, **given)
        return config

    def build_study(self, config: Any | None = None) -> Study:
        """The declarative study for a config (default config if None)."""
        config = config if config is not None else self.config_factory()
        return self.study_builder(config)

    def run(
        self,
        config: Any | None = None,
        backend: str | None = None,
        progress: Callable[[StudyProgress], None] | None = None,
    ) -> Any:
        """Run the experiment, optionally forcing a simulation backend.

        ``backend`` overrides the config's ``backend`` field (every
        trial-sweep config carries one); see
        :mod:`repro.core.backends` for the choices.  ``progress`` is
        forwarded to :func:`repro.study.run_study` and fires once per
        grid point.
        """
        config = config if config is not None else self.config_factory()
        if backend is not None and hasattr(config, "backend"):
            config = dataclasses.replace(config, backend=backend)
        study = self.study_builder(config)
        return self.result_adapter(config, run_study(study, progress=progress))


EXPERIMENTS: dict[str, Experiment] = {
    exp.key: exp
    for exp in [
        Experiment(
            key="figure1",
            paper_artifact="Figure 1",
            description=(
                "user-controlled balancing time vs total weight W for k "
                "heavy tasks (n=1000)"
            ),
            config_factory=figure1.Figure1Config,
            study_builder=figure1.build_study,
            result_adapter=figure1.figure1_result,
            presets={"quick": figure1.QUICK},
        ),
        Experiment(
            key="figure2",
            paper_artifact="Figure 2",
            description=(
                "normalised balancing time vs m for one heavy task of "
                "weight wmax (n=1000)"
            ),
            config_factory=figure2.Figure2Config,
            study_builder=figure2.build_study,
            result_adapter=figure2.figure2_result,
            presets={"quick": figure2.QUICK},
        ),
        Experiment(
            key="table1",
            paper_artifact="Table 1",
            description="mixing and hitting times of common graph families",
            config_factory=table1.Table1Config,
            study_builder=table1.build_study,
            result_adapter=table1.table1_result,
            presets={"quick": table1.QUICK},
        ),
        Experiment(
            key="resource_above",
            paper_artifact="Theorem 3",
            description=(
                "resource-controlled, above-average threshold: rounds = "
                "O(tau log m) across graph families"
            ),
            config_factory=resource_above.ResourceAboveConfig,
            study_builder=resource_above.build_study,
            result_adapter=resource_above.resource_above_result,
            presets={"quick": resource_above.QUICK},
        ),
        Experiment(
            key="resource_tight",
            paper_artifact="Theorem 7",
            description=(
                "resource-controlled, tight threshold: rounds = O(H ln W), "
                "complete graph vs cycle"
            ),
            config_factory=resource_tight.ResourceTightConfig,
            study_builder=resource_tight.build_study,
            result_adapter=resource_tight.resource_tight_result,
            presets={"quick": resource_tight.QUICK},
        ),
        Experiment(
            key="lower_bound",
            paper_artifact="Observation 8",
            description=(
                "clique-plus-pendant adversarial instance: rounds scale "
                "with H = Theta(n^2/k)"
            ),
            config_factory=lower_bound.LowerBoundConfig,
            study_builder=lower_bound.build_study,
            result_adapter=lower_bound.lower_bound_result,
            presets={"quick": lower_bound.QUICK},
        ),
        Experiment(
            key="alpha_ablation",
            paper_artifact="Section 7 (open question)",
            description=(
                "alpha sweep for the user-controlled protocol plus hybrid "
                "protocol comparison"
            ),
            config_factory=alpha_ablation.AlphaAblationConfig,
            study_builder=alpha_ablation.build_study,
            result_adapter=alpha_ablation.alpha_ablation_result,
            presets={"quick": alpha_ablation.QUICK},
        ),
        Experiment(
            key="tight_scaling",
            paper_artifact="Section 8 (open question)",
            description=(
                "user-controlled tight-threshold scaling in n: measured "
                "exponent vs Theorem 12's linear upper bound"
            ),
            config_factory=tight_scaling.TightScalingConfig,
            study_builder=tight_scaling.build_study,
            result_adapter=tight_scaling.tight_scaling_result,
            presets={"quick": tight_scaling.QUICK},
        ),
        Experiment(
            key="arrival_order",
            paper_artifact="Section 5 (model assumption)",
            description=(
                "arbitrary-arrival-order robustness: random vs FIFO "
                "stacking must not change balancing times"
            ),
            config_factory=arrival_order.ArrivalOrderConfig,
            study_builder=arrival_order.build_study,
            result_adapter=arrival_order.arrival_order_result,
            presets={"quick": arrival_order.QUICK},
        ),
        Experiment(
            key="speed_ablation",
            paper_artifact="Extension (Adolphs & Berenbrink)",
            description=(
                "heterogeneous two-class machine speeds: makespan vs "
                "speed skew, complete graph vs torus"
            ),
            config_factory=speed_ablation.SpeedAblationConfig,
            study_builder=speed_ablation.build_study,
            result_adapter=speed_ablation.speed_ablation_result,
            presets={"quick": speed_ablation.QUICK},
        ),
        Experiment(
            key="dynamic_load",
            paper_artifact="Extension (online regime)",
            description=(
                "Poisson arrival stream with exponential lifetimes: "
                "time-in-violation, churn and steady-state makespan vs "
                "arrival rate, complete graph vs torus"
            ),
            config_factory=dynamic_load.DynamicLoadConfig,
            study_builder=dynamic_load.build_study,
            result_adapter=dynamic_load.dynamic_load_result,
            presets={"quick": dynamic_load.QUICK},
        ),
        Experiment(
            key="drift_check",
            paper_artifact="Lemma 5 / Lemma 10",
            description=(
                "measured potential drift vs the analysis constants; "
                "Observation 4 monotonicity"
            ),
            config_factory=drift_check.DriftCheckConfig,
            study_builder=drift_check.build_study,
            result_adapter=drift_check.drift_check_result,
            presets={"quick": drift_check.QUICK},
        ),
    ]
}
