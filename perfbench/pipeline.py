"""Seeded inputs shared by every workload: the ABR teacher, its distilled
tree, and the held-out states the tree is served on.

The teacher is an untrained Pensieve-shaped MLP with fixed weights (seed
0, as in ``benchmarks/``): decision *shape* is what serving and
distillation cost depend on, and skipping training keeps a run short and
deterministic.  Its weights are part of the workload, not of its inputs:
other initialisations collapse onto one action and distill to a handful
of leaves.  The bandwidth traces are part of the workload too (seed 0):
drawn per seed, they moved held-out fidelity by about 0.06 across seeds
against about 0.03 with fixed traces, and a cross-commit fidelity bound
can only be as tight as that spread.  The fitted-Q rollouts, DAgger
rollouts and held-out episodes are derived from the run's ``--seed``
through one ``SeedSequence``, so the same seed always yields the same
tree (checked by content hash) and the same held-out states.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

import numpy as np

from repro.config import MetisConfig
from repro.core.distill import viper
from repro.core.distill.dataset import DistillDataset
from repro.core.distill.rollout import collect_teacher_dataset_batch
from repro.core.distill.viper import DistilledPolicy, distill_from_env
from repro.core.tree.cart import DecisionTreeClassifier
from repro.envs.abr import ABREnv, Video
from repro.envs.abr.env import STATE_DIM
from repro.envs.traces import trace_set
from repro.nn.policy import SoftmaxPolicy, ValueNet
from repro.serve import PolicyArtifact
from repro.teachers.pensieve import PensieveTeacher

#: The paper's Pensieve configuration (Table 4): 200 leaves, 4 DAgger
#: rounds, advantage resampling on.
CONFIG = MetisConfig()
#: Lockstep episodes per DAgger round.
EPISODES_PER_ROUND = 64
#: Teacher episodes behind the fitted-Q estimator used for resampling.
FIT_Q_EPISODES = 16
#: Held-out teacher episodes: the fidelity set and the serving inputs.
HELD_OUT_EPISODES = 64
TEACHER_SEED = 0
TRACES_SEED = 0
N_CHUNKS = 48
N_TRACES = 16
MODEL = "abr"


@dataclass
class Teacher:
    env: ABREnv
    teacher: PensieveTeacher


@dataclass
class Distilled:
    student: DistilledPolicy
    distill_s: float
    tree_hash: str
    fidelity: float


@dataclass
class Inputs:
    """What a serving workload needs, all built before any tier exists."""

    distilled: Distilled
    #: Held-out teacher states, shape (n, 25).
    states: np.ndarray
    #: Offline ``artifact.predict_batch`` on ``states``: the reference
    #: every served decision is compared with.
    expected: List[int]
    #: Whether every distillation gave the same tree and fidelity.
    deterministic: bool = True
    #: Wall time of each distillation behind ``distilled.distill_s``.
    distill_times: List[float] = field(default_factory=list)
    #: Mean per-distillation phase times (traced runs only).
    phases: Dict[str, float] = field(default_factory=dict)


def _seeds(seed: int) -> List[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(4)


def build_teacher(seed: int) -> Teacher:
    """Environment + untrained teacher + fitted Q estimator."""
    s_q = _seeds(seed)[1]
    video = Video.synthetic(n_chunks=N_CHUNKS, seed=7)
    traces = trace_set("hsdpa", N_TRACES, duration_s=120,
                       seed=np.random.default_rng(TRACES_SEED))
    env = ABREnv(video, traces)
    teacher = PensieveTeacher(
        policy=SoftmaxPolicy(STATE_DIM, env.n_actions, hidden=(64, 32),
                             seed=np.random.default_rng(TEACHER_SEED)),
        value=ValueNet(STATE_DIM, seed=np.random.default_rng(TEACHER_SEED)),
    )
    teacher.fit_q(env, episodes=FIT_Q_EPISODES,
                  seed=np.random.default_rng(s_q))
    return Teacher(env=env, teacher=teacher)


def held_out(built: Teacher, seed: int) -> DistillDataset:
    """Teacher rollouts from a seed disjoint from distillation's."""
    s_held = _seeds(seed)[3]
    return collect_teacher_dataset_batch(
        built.env, built.teacher, HELD_OUT_EPISODES,
        rng=np.random.default_rng(s_held),
    )


def distill(built: Teacher, seed: int, held: DistillDataset) -> Distilled:
    """One §3.2 conversion, timed, with its held-out fidelity."""
    s_distill = _seeds(seed)[2]
    start = time.perf_counter()
    student = distill_from_env(
        built.env, built.teacher, CONFIG,
        episodes_per_iteration=EPISODES_PER_ROUND,
        seed=np.random.default_rng(s_distill),
    )
    distill_s = time.perf_counter() - start
    artifact = PolicyArtifact.from_tree(student.tree, name=MODEL)
    return Distilled(
        student=student,
        distill_s=distill_s,
        tree_hash=artifact.content_hash,
        fidelity=held.agreement_with(student),
    )


def make_inputs(runs: List[Distilled], held: DistillDataset,
                phases: Dict[str, float]) -> Inputs:
    """Serving inputs from one or more distillations at the same seed:
    the first run's tree, the median wall time, the mean phase times.

    The work is the same every time, yet on a shared 2-vCPU host single
    distillations ranged from 1.6 s to 3.2 s: how much of a distillation
    the vCPU runs slowed down by other tenants changes from one
    distillation to the next and drifts over minutes, so that whole runs
    sat near 1.65 s or near 3.0 s.
    """
    first = runs[0]
    distilled = Distilled(
        student=first.student,
        distill_s=statistics.median(r.distill_s for r in runs),
        tree_hash=first.tree_hash,
        fidelity=first.fidelity,
    )
    # A fresh artifact with no kernel attached: the reference answers
    # come from the numpy walk, independent of what the tiers compile.
    reference = PolicyArtifact.from_tree(first.student.tree, name=MODEL)
    expected = np.asarray(reference.predict_batch(held.states)).tolist()
    return Inputs(
        distilled=distilled,
        states=held.states,
        expected=expected,
        deterministic=all(r.tree_hash == first.tree_hash
                          and r.fidelity == first.fidelity for r in runs),
        distill_times=[r.distill_s for r in runs],
        phases={k: v / len(runs) for k, v in phases.items()},
    )


def serving_inputs(seed: int, phases: bool = False) -> Inputs:
    """Teacher, tree and held-out states for a serving workload, from one
    distillation at the run's seed."""
    built = build_teacher(seed)
    held = held_out(built, seed)
    timers: Dict[str, float] = {}
    with (phase_timers(timers) if phases else contextlib.nullcontext()):
        runs = [distill(built, seed, held)]
    return make_inputs(runs, held, timers)


@contextlib.contextmanager
def _patched(owner, name: str, wrapper) -> Iterator[None]:
    """Install ``wrapper`` as ``owner.name`` and restore on exit, also
    when the attribute was inherited rather than defined on ``owner``."""
    own = name in vars(owner)
    original = vars(owner).get(name)
    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        if own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)


@contextlib.contextmanager
def phase_timers(out: Dict[str, float]) -> Iterator[Dict[str, float]]:
    """Time the distillation phases through their public callables.

    Accumulates ``rollout_s`` (teacher and student rollouts),
    ``relabel_s`` (teacher relabelling), ``fit_s`` (tree fits) and
    ``rows`` (rollout rows collected) into ``out``.  No source is edited:
    the callables are wrapped as module/class attributes for the
    duration of the block.
    """
    for key in ("rollout_s", "relabel_s", "fit_s", "rows"):
        out.setdefault(key, 0.0)

    def timed(fn, key, count_rows=False):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            out[key] += time.perf_counter() - start
            if count_rows:
                out["rows"] += len(result)
            return result
        return wrapper

    from_policy = vars(DistillDataset)["from_policy"].__func__
    fit = DecisionTreeClassifier.fit
    with contextlib.ExitStack() as stack:
        stack.enter_context(_patched(
            viper, "collect_teacher_dataset",
            timed(viper.collect_teacher_dataset, "rollout_s", True)))
        stack.enter_context(_patched(
            viper, "collect_student_states",
            timed(viper.collect_student_states, "rollout_s", True)))
        stack.enter_context(_patched(
            DistillDataset, "from_policy",
            classmethod(timed(from_policy, "relabel_s"))))
        stack.enter_context(_patched(
            DecisionTreeClassifier, "fit", timed(fit, "fit_s")))
        yield out
