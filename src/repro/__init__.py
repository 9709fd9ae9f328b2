"""dynlocal — Local Distributed Algorithms in Highly Dynamic Networks.

A faithful, laptop-scale reproduction of

    Philipp Bamberger, Fabian Kuhn, Yannic Maus:
    *Local Distributed Algorithms in Highly Dynamic Networks*
    (arXiv:1802.10199, IPDPS 2019)

The package provides:

* a synchronous round-based **dynamic-network simulator** with adversaries of
  graded obliviousness, wake-up schedules, churn and mobility models
  (:mod:`repro.dynamics`, :mod:`repro.runtime`);
* the paper's **packing/covering problem framework**, partial solutions and
  the sliding-window *T-dynamic solution* checker (:mod:`repro.problems`);
* the **algorithmic framework** — T-dynamic and (T, α)-network-static
  algorithm roles and the ``Concat`` combiner of Theorem 1.1
  (:mod:`repro.core`);
* the paper's **algorithms** — ``DColor``/``SColor`` for (degree+1)-colouring
  (Corollary 1.2), ``DMis``/``SMis`` for MIS (Corollary 1.3), their static
  ancestors, recovery-style baselines and ablations (:mod:`repro.algorithms`);
* an **experiment harness** regenerating every guarantee the paper states
  (:mod:`repro.analysis`, driven by ``repro experiments``).

Quickstart
----------
>>> from repro import run_simulation, generators
>>> from repro.dynamics.adversaries import ChurnAdversary
>>> from repro.dynamics.churn import FlipChurn
>>> from repro.algorithms.coloring import dynamic_coloring
>>> from repro.utils import RngFactory
>>> n = 64
>>> base = generators.gnp(n, 0.1, RngFactory(1).stream("topo"))
>>> adversary = ChurnAdversary(n, FlipChurn(base, 0.01), RngFactory(1).stream("adv"))
>>> trace = run_simulation(
...     n=n, algorithm=dynamic_coloring(n), adversary=adversary, rounds=60, seed=1)
>>> trace.num_rounds
60
"""

from repro.version import __version__
from repro.utils.rng import RngFactory
from repro.dynamics import generators
from repro.dynamics.topology import Topology, TopologyDelta
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.runtime.simulator import Simulator, run_simulation
from repro.runtime.trace import ExecutionTrace
from repro.problems import (
    coloring_problem_pair,
    mis_problem_pair,
    TDynamicSpec,
)
from repro.core import Concat, default_window
from repro import scenarios
from repro.exec import BACKENDS, ExecutionPolicy, use_policy
from repro.scenarios import (
    ResultsStore,
    ScenarioSpec,
    available,
    component,
    load_config,
    run_scenario,
    sweep,
)

__all__ = [
    "__version__",
    "RngFactory",
    "generators",
    "Topology",
    "TopologyDelta",
    "DynamicGraph",
    "Simulator",
    "run_simulation",
    "ExecutionTrace",
    "coloring_problem_pair",
    "mis_problem_pair",
    "TDynamicSpec",
    "Concat",
    "default_window",
    "scenarios",
    "ScenarioSpec",
    "component",
    "run_scenario",
    "sweep",
    "available",
    "ResultsStore",
    "load_config",
    "BACKENDS",
    "ExecutionPolicy",
    "use_policy",
]
