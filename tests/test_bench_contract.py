"""What the benchmark in perfbench/ relies on in gradus.

perfbench/tracer.py patches gradus functions by name and reads their
arguments; a refactor that renames one, moves it, or changes what it is
called with would break traced benchmark runs. These checks keep that
contract in the tier-1 suite without running the benchmark itself.
"""

import importlib.util
import inspect
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from gradus import (
    denoiser, fusion, graph, kernels, library, midi, phrase, rules, sampler, schedule,
)
from gradus.phrase import strip_to_skeleton

_TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tracer  # its dataclasses look their module up there
_spec.loader.exec_module(tracer)

GRADUS = SimpleNamespace(
    denoiser=denoiser, fusion=fusion, graph=graph, kernels=kernels, library=library,
    midi=midi, phrase=phrase, rules=rules, sampler=sampler, schedule=schedule,
)


def _targets():
    return tracer.gradus_targets(GRADUS, lambda ctx, degrees, loss: None)


def test_every_traced_target_resolves():
    # Looked up as Tracer.installed looks them up: class attributes from
    # the class's own namespace, module attributes by name.
    names = set()
    for owner, attr, name, _ in _targets():
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert callable(getattr(raw, "__func__", raw)), name
        names.add(f"{getattr(owner, '__name__', owner)}.{attr}")
    for required in ("gradus.sampler.qbar", "gradus.sampler.q_step",
                     "gradus.sampler.build_graph", "gradus.denoiser.forward_sample"):
        assert required in names


def test_traced_guided_phrase_reads_graph_and_nests_scoring(corpus, corpus_marginal):
    # The tracer reads args[1].n of Denoiser.forward as the node count,
    # and counts guidance candidates from RuleContext.score spans whose
    # parent is scg_reverse_step.
    params_of = inspect.signature(denoiser.Denoiser.forward).parameters
    assert list(params_of)[:3] == ["self", "graph", "t"]
    T, K = 3, 2
    hp = replace(denoiser.DenoiserHyperparams.toy(), T=T)
    den = denoiser.Denoiser(hp)
    skel = strip_to_skeleton(corpus[0])
    n = graph.build_graph(skel).n
    params = den.init_params(np.random.default_rng(0), 3)
    rec = tracer.Tracer()
    with rec.installed(_targets()):
        sampler.generate_phrase(
            skel, den, params, schedule.NoiseSchedule(T=T), corpus_marginal,
            sampler.GuidanceConfig(K=K, seed=0),
        )
    forward = [s for s in rec.spans if s[tracer.NAME] == "denoiser.forward"]
    assert forward and all(s[tracer.EXTRA] == n for s in forward)
    shape = tracer.ForwardShape(hp.layers, hp.hidden_dim, hp.mlp_ratio, 21, 18)
    metrics = tracer.per_layer_metrics(rec.spans, 1.0, 1.0, shape, [], 18)
    assert metrics["sampler.guidance.steps"] == T
    assert metrics["sampler.guidance.candidates"] == K * T


def test_kernels_keep_the_flag_the_machine_block_reads():
    # perfbench/run.py's machine() records bool(g.kernels.USE_NUMBA).
    assert isinstance(kernels.USE_NUMBA, bool)
