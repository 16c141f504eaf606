"""Shared fixtures.

The expensive objects (trained source model, pruned model, conditional
generator) take ~10s per seed to build, and several acceptance criteria sweep
the same five seeds. They are built lazily and cached for the whole session,
keyed by seed; tests must treat them as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from loco_pda import adaptation, cvae, models
from loco_pda.adaptation import Scenario

DEFAULT_TARGETS = (0, 1, 2, 3, 4)


@dataclass
class SeedPipeline:
    seed: int
    dataset: models.LabeledDataset
    m0: models.MlpModel
    mp: models.MlpModel
    acts: models.ActivationBatch        # pruned-model activations, train split
    generator: cvae.CvaeModel

    def scenario(self, target_classes=DEFAULT_TARGETS) -> Scenario:
        return Scenario(dataset=self.dataset, m0=self.m0, mp=self.mp,
                        cvae=self.generator, target_classes=tuple(target_classes),
                        seed=self.seed)


_PIPELINES: dict[int, SeedPipeline] = {}
_PACKS: dict[int, cvae.UncondVaePack] = {}


def build_pipeline(seed: int) -> SeedPipeline:
    if seed not in _PIPELINES:
        spec = models.DatasetSpec(seed=seed)
        ds = models.synth_dataset(spec)
        m0, _ = models.train_source_model(ds, seed=seed)
        mp = models.prune_model(m0, 0.3, ds, seed=seed)
        acts = models.extract_activations(mp, ds.train_x, labels=ds.train_y)
        generator, _ = cvae.train_cvae(acts, spec.num_classes, seed=seed)
        _PIPELINES[seed] = SeedPipeline(seed, ds, m0, mp, acts, generator)
    return _PIPELINES[seed]


def build_uncond_pack(seed: int) -> cvae.UncondVaePack:
    if seed not in _PACKS:
        pipe = build_pipeline(seed)
        pack, _ = cvae.train_uncond_pack(pipe.acts, pipe.dataset.spec.num_classes,
                                         seed=seed)
        _PACKS[seed] = pack
    return _PACKS[seed]


@pytest.fixture(scope="session")
def pipeline_for():
    """Factory fixture: pipeline_for(seed) -> SeedPipeline, session-cached."""
    return build_pipeline


@pytest.fixture(scope="session")
def pipe0() -> SeedPipeline:
    return build_pipeline(0)


@pytest.fixture(scope="session")
def uncond_pack_for():
    return build_uncond_pack


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def training_calls(monkeypatch) -> list:
    """Count classifier retrainings: each train_softmax_stack call appends
    how many runs it trains, 1 or the K of a lockstep group. sum() counts
    the LoCO-PDA and baseline runs, len() the trainer calls."""
    calls = []
    original = adaptation.train_softmax_stack

    def counting(layers, x, *args, **kwargs):
        calls.append(1 if x.ndim == 2 else x.shape[0])
        return original(layers, x, *args, **kwargs)

    monkeypatch.setattr(adaptation, "train_softmax_stack", counting)
    return calls
